#include "perfbench/src/drive.h"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <deque>
#include <future>
#include <thread>

#include "src/server/json.h"

namespace perfbench {

namespace {

using prefillonly::Json;
using prefillonly::ScoringResponse;

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void AppendInt(std::string& out, int64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

void AppendItem(std::string& out, const Item& item) {
  out += "{\"user_id\":";
  AppendInt(out, item.user);
  out += ",\"tokens\":[";
  for (size_t i = 0; i < item.tokens.size(); ++i) {
    if (i != 0) out += ',';
    AppendInt(out, item.tokens[i]);
  }
  out += "],\"allowed_tokens\":[";
  for (size_t i = 0; i < item.allowed.size(); ++i) {
    if (i != 0) out += ',';
    AppendInt(out, item.allowed[i]);
  }
  out += "]}";
}

double Number(const Json& object, const char* key) {
  const Json* v = object.Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : -1.0;
}

}  // namespace

std::string ParseResult(const Json& result, Outcome& out) {
  if (!result.is_object()) {
    return "result is not an object";
  }
  if (const Json* error = result.Find("error"); error != nullptr) {
    return "server error: " + error->Serialize();
  }
  ScoringResponse& r = out.response;
  const Json* probabilities = result.Find("probabilities");
  if (probabilities == nullptr || !probabilities->is_array()) {
    return "result has no probabilities";
  }
  for (const Json& p : probabilities->AsArray()) {
    if (!p.is_object()) {
      return "malformed probability entry";
    }
    r.probabilities.push_back(
        {static_cast<int32_t>(Number(p, "token")), Number(p, "probability")});
  }
  r.score = Number(result, "score");
  r.n_input = static_cast<int64_t>(Number(result, "n_input"));
  r.n_cached = static_cast<int64_t>(Number(result, "n_cached"));
  r.batch_size = static_cast<int64_t>(Number(result, "batch_size"));
  r.queue_time_s = Number(result, "queue_time_s");
  r.execute_time_s = Number(result, "execute_time_s");
  return "";
}

namespace {

// When tracing, records the spans of one finished request:
// request > {loadgen.late, cluster.submit, engine.wait}.
struct SendTimes {
  double sched_s = 0.0, send_s = 0.0, submitted_s = 0.0, done_s = 0.0;
};

void TraceRequest(Tracer& tracer, const SendTimes& t) {
  if (!tracer.enabled()) {
    return;
  }
  const int64_t root = tracer.NewId();
  tracer.Record(root, "request", t.sched_s, t.done_s, -1, root);
  tracer.Record(tracer.NewId(), "loadgen.late", t.sched_s, t.send_s, root, root);
  tracer.Record(tracer.NewId(), "cluster.submit", t.send_s, t.submitted_s, root, root);
  tracer.Record(tracer.NewId(), "engine.wait", t.submitted_s, t.done_s, root, root);
}

}  // namespace

PhaseResult RunPhase(Stack& stack, const std::vector<Item>& items,
                     const std::vector<double>& offsets, Tracer& tracer) {
  PhaseResult phase;
  phase.outcomes.resize(items.size());
  phase.start_s = Now() + 0.002;

  // The sender (this thread) hands each admitted request to the collector,
  // which timestamps completions. The collector blocks on the oldest
  // outstanding future for at most 1 ms, then sweeps the rest: the oldest is
  // timed exactly, and a completion that overtakes it within 1 ms. A shorter
  // wait costs the compute threads more wake-ups than it buys precision.
  struct Pending {
    size_t item = 0;
    SendTimes times;
    prefillonly::Engine::ResponseFuture future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> incoming;
  bool sender_done = false;
  int64_t outstanding = 0;  // guarded by mu

  auto finish = [&](Pending& p, double done) {
    p.times.done_s = done;
    Outcome& o = phase.outcomes[p.item];
    o.sched_s = p.times.sched_s;
    o.send_s = p.times.send_s;
    o.done_s = done;
    auto result = p.future.get();
    if (result.ok()) {
      o.ok = true;
      o.response = std::move(result.value());
    } else {
      o.error = result.status().ToString();
    }
    TraceRequest(tracer, p.times);
  };

  std::thread collector([&] {
    std::vector<Pending> live;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (live.empty()) {
          cv.wait(lock, [&] { return !incoming.empty() || sender_done; });
        }
        while (!incoming.empty()) {
          live.push_back(std::move(incoming.front()));
          incoming.pop_front();
        }
        if (live.empty() && sender_done) {
          return;
        }
      }
      live.front().future.wait_for(std::chrono::milliseconds(1));
      const double now = Now();
      size_t finished = 0;
      for (size_t i = 0; i < live.size(); ++i) {
        if (live[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finish(live[i], now);
          ++finished;
        } else if (finished > 0) {
          live[i - finished] = std::move(live[i]);
        }
      }
      live.resize(live.size() - finished);
      if (finished > 0) {
        std::lock_guard<std::mutex> lock(mu);
        outstanding -= static_cast<int64_t>(finished);
      }
    }
  });

  for (size_t i = 0; i < items.size(); ++i) {
    const double sched = phase.start_s + (offsets.empty() ? 0.0 : offsets[i]);
    SleepUntil(sched);
    Pending p;
    p.item = i;
    p.times.sched_s = sched;
    p.times.send_s = Now();
    {
      std::lock_guard<std::mutex> lock(mu);
      phase.depth_at_send.push_back(static_cast<double>(outstanding));
    }
    auto sub = stack.set().Submit(ToRequest(items[i]));
    p.times.submitted_s = Now();
    if (!sub.ok()) {
      Outcome& o = phase.outcomes[i];
      o.sched_s = sched;
      o.send_s = p.times.send_s;
      o.done_s = p.times.submitted_s;
      o.error = sub.status().ToString();
      continue;
    }
    p.future = std::move(sub.value().future);
    {
      std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
      incoming.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  }
  cv.notify_one();
  collector.join();
  return phase;
}

Stack::Stack(const WorkloadSpec& spec, int nproc, bool listen) {
  threads_per_replica_ =
      std::max(1, std::min(spec.threads_per_replica, nproc / spec.n_replicas));
  engine_.model = spec.model;
  engine_.num_threads = threads_per_replica_;
  engine_.max_concurrent_requests = 1;  // one executor lane per replica
  engine_.max_batch_size = spec.max_batch;
  engine_.cache_budget_tokens = spec.cache_budget_tokens;
  engine_.block_size = spec.block_size;
  prefillonly::ScoringServiceOptions service_options;
  service_options.cluster.n_replicas = spec.n_replicas;
  service_ = std::make_unique<prefillonly::ScoringService>(engine_, service_options);
  if (listen) {
    if (prefillonly::Status s = service_->Start(0); s.ok()) {
      port_ = service_->port();
    }
  }
}

prefillonly::ScoringRequest ToRequest(const Item& item) {
  prefillonly::ScoringRequest request;
  request.user_id = item.user;
  request.tokens = item.tokens;
  request.allowed_tokens = item.allowed;
  return request;
}

std::string RequestBody(const Item& item) {
  std::string body;
  AppendItem(body, item);
  return body;
}

}  // namespace perfbench
