// po_perfbench: one run of one workload against the real serving stack.
//
//   po_perfbench --workload <post-rec|credit> --seed <n>
//                --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Phases: set-up (stack construction through a fixed warm-up set), a
// saturated set offered at once, and an open-loop Poisson phase at the
// workload's fixed rate. The traced run then measures each layer on its own.
// Every output is checked; the last line of stdout is the result as one JSON
// object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/run.h"

namespace perfbench {

namespace {

using prefillonly::ClusterStats;
using prefillonly::EngineStats;

constexpr int kCycles = 5;
// Fixed traces of the open-loop chunks and of the saturated rounds (one
// each, kRoundTrace + cycle).
constexpr uint64_t kChunkTrace = 1;
constexpr uint64_t kRoundTrace = 2;

int64_t Terminal(const EngineStats& s) {
  return s.completed + s.failed + s.cancelled + s.cancelled_in_flight +
         s.deadline_expired + s.deadline_expired_in_flight;
}

std::vector<double> JctMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (o.ok) {
      out.push_back((o.done_s - o.sched_s) * 1e3);
    }
  }
  return out;
}

std::vector<double> LateMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    out.push_back((o.send_s - o.sched_s) * 1e3);
  }
  return out;
}

// Completions between the 10th and 90th percentile completion, and the
// seconds between them, so the ramp-up and the drain of the last partial
// batches are left out.
struct CompletionSpan {
  double completions = 0.0;
  double seconds = 0.0;
  double rate() const { return seconds > 0 ? completions / seconds : 0.0; }
};

CompletionSpan Completions(const PhaseResult& phase) {
  std::vector<double> done;
  for (const Outcome& o : phase.outcomes) {
    if (o.ok) {
      done.push_back(o.done_s);
    }
  }
  if (done.size() < 2) {
    return {};
  }
  std::sort(done.begin(), done.end());
  const size_t lo = done.size() / 10;
  const size_t hi = done.size() - 1 - done.size() / 10;
  return {static_cast<double>(hi - lo), done[hi] - done[lo]};
}

// Serves `items` one at a time through the router, each waited for.
PhaseResult OneByOne(Stack& stack, const std::vector<Item>& items) {
  PhaseResult phase;
  for (const Item& item : items) {
    Outcome& o = phase.outcomes.emplace_back();
    o.sched_s = o.send_s = Now();
    auto result = stack.set().Score(ToRequest(item));
    o.done_s = Now();
    if (result.ok()) {
      o.ok = true;
      o.response = std::move(result.value());
    } else {
      o.error = result.status().ToString();
    }
  }
  return phase;
}

void Summarize(const char* phase, const PhaseResult& result) {
  const std::vector<double> jct = JctMs(result);
  const std::vector<double> late = LateMs(result);
  std::fprintf(stderr,
               "[perfbench] %-10s n=%zu jct p50=%.3f p90=%.3f p95=%.3f p99=%.3f ms  "
               "send-late p99=%.3f ms  completions %.3f/s\n",
               phase, result.outcomes.size(), Percentile(jct, 50), Percentile(jct, 90),
               Percentile(jct, 95), Percentile(jct, 99), Percentile(late, 99),
               Completions(result).rate());
}

void Usage() {
  std::fprintf(stderr,
               "usage: po_perfbench --workload <post-rec|credit> "
               "--seed <n> --seconds <1..600> --trace <0|1> [--trace-out <file>]\n");
}

}  // namespace

void Run::Account(const std::vector<Item>& items, const PhaseResult& phase) {
  for (size_t i = 0; i < items.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    ++attempted;
    if (!o.ok) {
      ++failed;
      checker.Fail("request failed: " + o.error);
      continue;
    }
    const std::string bad = CheckResponse(o.response, items[i].tokens, items[i].allowed,
                                          spec.block_size, spec.name == "credit");
    if (!bad.empty()) {
      checker.Fail(spec.name + ": " + bad);
    }
    // Sample shapes: prompt kind x prefix hit or miss x solo or batched.
    const auto shape = static_cast<size_t>(items[i].shape) * 4 +
                       (o.response.n_cached > 0 ? 2 : 0) +
                       (o.response.batch_size > 1 ? 1 : 0);
    if (reservoir.size() <= shape) {
      reservoir.resize(shape + 1);
      reservoir_seen.resize(shape + 1, 0);
    }
    const int64_t seen = ++reservoir_seen[shape];
    auto& bucket = reservoir[shape];
    if (bucket.size() < 2) {
      bucket.push_back({items[i], o.response});
    } else if (const auto slot = static_cast<int64_t>(sample_rng.Next() % static_cast<uint64_t>(seen));
               slot < 2) {
      bucket[static_cast<size_t>(slot)] = {items[i], o.response};
    }
  }
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--seed" || flag == "--seconds" || flag == "--trace") {
      const long long v = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0') {
        Usage();
        return 2;
      }
      (flag == "--seed" ? seed : flag == "--seconds" ? seconds : trace) = v;
    } else {
      Usage();
      return 2;
    }
  }
  Run run;
  if (argc % 2 != 1 || !LookupWorkload(workload, run.spec) || seed < 0 ||
      seconds < 1 || seconds > 600 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  const WorkloadSpec& spec = run.spec;
  run.seed = static_cast<uint64_t>(seed);
  run.seconds = static_cast<int>(seconds);
  run.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  run.tracer.set_enabled(trace == 1);
  run.sample_rng = Rng(run.seed ^ 0xc0ffee);
  InputSource source(spec, run.seed);

  // ---------------------------------------------------------------- set-up
  Stack stack(spec, run.nproc, trace == 1);
  if (trace == 1 && stack.port() == 0) {
    std::fprintf(stderr, "[perfbench] could not open a loopback listening socket\n");
    return 1;
  }
  std::fprintf(stderr, "[perfbench] nproc=%d kernel backend=%s threads/replica=%d\n",
               run.nproc, stack.set().engine(0).model().kernel_ops()->name,
               stack.threads_per_replica());
  const ClusterStats s0 = stack.set().Stats();
  // Warm-up, one request at a time through the router: each user's profile
  // once, so it is cached on the replica that user's affinity picks, then a
  // fixed set of ordinary requests. One at a time, nothing spills, so the
  // warm-up does the same work in every run.
  {
    std::vector<Item> items;
    for (int u = 0; u < source.n_users(); ++u) {
      items.push_back(source.ProfileFill(u));
    }
    source.Next(spec.warmup_requests, items);
    run.Account(items, OneByOne(stack, items));
    for (const auto& replica : stack.set().Stats().replicas) {
      std::fprintf(stderr, "[perfbench] warm-up: replica %d cached %lld blocks\n",
                   replica.index,
                   static_cast<long long>(replica.engine.cache.insertions));
    }
  }
  const double setup_s = Now();

  // ------------------------------------------------------ measured cycles
  // The measured work is spread over the run in kCycles cycles of a
  // saturated round (offered all at once) and an open-loop chunk at the
  // workload's fixed rate, each started from a settled cache.
  // throughput_rps pools the rounds. Each round has a trace of its own: a
  // replayed round would find the profiles the last one spilled still cached
  // where they spilled to. Every chunk replays one fixed trace (new tokens
  // each time), so the five chunks measure the same thing five times, and
  // each JCT figure is the median over the five: a burst of load from
  // another tenant of the host that slows one or two of them moves it
  // little.
  auto settle = [&] {
    // A saturated round spills user bursts to replicas that do not hold the
    // user's profile, and how many profiles that evicts depends on timing.
    // Each profile is sent once more, one at a time, so that it is back on
    // the replica that user's affinity picks.
    std::vector<Item> items;
    for (int u = 0; u < source.n_users(); ++u) {
      items.push_back(source.ProfileFill(u));
    }
    run.Account(items, OneByOne(stack, items));
  };
  const ClusterStats m0 = stack.set().Stats();
  CompletionSpan rounds;
  std::vector<double> chunk_mean, chunk_p50, chunk_p95;
  OpenLoop open;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    settle();
    std::vector<Item> items;
    source.Restart(kRoundTrace + static_cast<uint64_t>(cycle));
    source.Next(std::llround(spec.saturated_per_s * run.seconds / kCycles), items);
    const PhaseResult sat = RunPhase(stack, items, {}, run.tracer);
    run.Account(items, sat);
    const CompletionSpan round = Completions(sat);
    rounds.completions += round.completions;
    rounds.seconds += round.seconds;
    Summarize("saturated", sat);

    settle();
    items.clear();
    source.Restart(kChunkTrace);
    source.Next(std::llround(spec.open_rps * run.seconds / kCycles), items);
    PhaseResult chunk =
        RunPhase(stack, items, source.Arrivals(items.size(), spec.open_rps), run.tracer);
    run.Account(items, chunk);
    Summarize("open-loop", chunk);
    const std::vector<double> jct = JctMs(chunk);
    chunk_mean.push_back(Mean(jct));
    chunk_p50.push_back(Percentile(jct, 50));
    chunk_p95.push_back(Percentile(jct, 95));
    open.Append(std::move(items), std::move(chunk));
  }
  const double throughput = rounds.rate();
  const double jct_mean = Percentile(chunk_mean, 50);
  const double jct_p50 = Percentile(chunk_p50, 50);
  const double jct_p95 = Percentile(chunk_p95, 50);
  const ClusterStats m1 = stack.set().Stats();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::vector<Metric> layer_metrics;
  if (trace == 1) {
    MeasureLayers(run, stack, source, open, m0, m1, layer_metrics);
  }

  // ---------------------------------------------------------------- ledger
  // Every request the benchmark sent was admitted exactly once and reached
  // exactly one terminal bucket.
  ClusterStats s1 = stack.set().Stats();
  for (int i = 0; i < 200 && Terminal(s1.totals) - Terminal(s0.totals) <
                                 s1.totals.submitted - s0.totals.submitted;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    s1 = stack.set().Stats();
  }
  const int64_t submitted = s1.totals.submitted - s0.totals.submitted;
  const int64_t terminal = Terminal(s1.totals) - Terminal(s0.totals);
  if (submitted != run.attempted || terminal != run.attempted) {
    run.checker.Fail("ledger: attempted " + std::to_string(run.attempted) +
                     ", engine submitted " + std::to_string(submitted) +
                     ", terminal " + std::to_string(terminal));
  }

  // --------------------------------------------------- plain-path agreement
  // A separate engine on the plainest path (standard prefill, no cache,
  // batch 1, one thread, no cluster) must reproduce the sampled
  // served results bit for bit.
  {
    prefillonly::EngineOptions plain;
    plain.model = spec.model;
    plain.mode = prefillonly::PrefillMode::kStandard;
    plain.num_threads = 1;
    plain.cache_budget_tokens = 0;
    plain.max_batch_size = 1;
    plain.block_size = spec.block_size;
    prefillonly::Engine reference(plain);
    int64_t compared = 0;
    for (const auto& bucket : run.reservoir) {
      for (const Run::Served& served : bucket) {
        auto expect = reference.ScoreSync(ToRequest(served.item));
        ++compared;
        if (!expect.ok()) {
          run.checker.Fail("reference engine failed: " + expect.status().ToString());
        } else if (!SameBits(expect.value(), served.response)) {
          run.checker.Fail("served result differs from the plain path (prompt of " +
                           std::to_string(served.item.tokens.size()) + " tokens)");
        }
      }
    }
    std::fprintf(stderr, "[perfbench] plain path: %lld served results recomputed\n",
                 static_cast<long long>(compared));
    if (compared == 0) {
      run.checker.Fail("no served result to compare with the plain path");
    }
  }

  if (trace == 1 && !trace_out.empty() && !run.tracer.WriteJson(trace_out)) {
    std::fprintf(stderr, "[perfbench] could not write %s\n", trace_out.c_str());
  }
  for (const std::string& failure : run.checker.failures()) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", failure.c_str());
  }

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_rps", throughput, "req/s"},
        {"jct_mean_ms", jct_mean, "ms"},
        {"jct_p50_ms", jct_p50, "ms"},
        {"jct_p95_ms", jct_p95, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    std::fprintf(stderr, "[perfbench] open-loop JCT samples: %zu in %d chunks\n",
                 open.phase.outcomes.size(), kCycles);
  } else {
    // The traced run's own end-to-end figures, for the tracing overhead.
    std::fprintf(stderr,
                 "[perfbench] traced: setup_s=%.6f throughput_rps=%.6f "
                 "jct_mean_ms=%.6f jct_p50_ms=%.6f jct_p95_ms=%.6f\n",
                 setup_s, throughput, jct_mean, jct_p50, jct_p95);
    metrics = std::move(layer_metrics);
  }
  std::string line = "{\"correct\": ";
  line += run.checker.ok() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.attempted);
  line += ", \"failed\": " + std::to_string(run.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
