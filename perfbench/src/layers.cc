// The traced run's per-layer report. Each figure comes from timing a call
// into one layer's public functions from here, or from the counters that
// layer publishes, on the workload's own inputs and shapes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "perfbench/src/run.h"
#include "src/client/http_client.h"
#include "src/common/hash.h"
#include "src/common/thread_pool.h"
#include "src/kvcache/prefix_cache.h"
#include "src/model/llama.h"
#include "src/sched/batch_cost.h"
#include "src/sched/jct.h"
#include "src/sched/scheduler.h"
#include "src/server/json.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tracking_allocator.h"

namespace perfbench {

namespace {

using namespace prefillonly;

constexpr double kMiB = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Times `fn` once, records it as a span under `parent`, returns seconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, int64_t parent, Fn&& fn) {
  const double t0 = Now();
  fn();
  const double t1 = Now();
  tracer.Record(tracer.NewId(), name, t0, t1, parent, -1);
  return t1 - t0;
}

PrefillOptions EngineLikeOptions(const EngineOptions& engine, int64_t n_input) {
  PrefillOptions options;
  options.mode = engine.mode;
  options.chunk_size = engine.chunk_size;
  options.preallocate_outputs = engine.preallocate_outputs;
  options.in_place = engine.in_place;
  options.retention = KvRetention::kPrefixBudget;
  const int64_t budget_blocks =
      std::min(n_input / engine.block_size, engine.cache_budget_tokens / engine.block_size);
  options.prefix_budget_tokens = budget_blocks * engine.block_size;
  return options;
}

// One dispatched GEMM shape: c[m, n] = a[m, k] * w[k, n], through the same
// kernel table and weight layout the model uses.
double GemmGflops(const KernelOps* ops, ThreadPool& pool, Tracer& tracer, int64_t parent,
                  const char* name, int64_t m, std::vector<std::pair<int64_t, int64_t>> kns) {
  TrackingAllocator alloc;
  Rng rng(7);
  struct Operand {
    std::vector<float> a, w, c;
    PackedMatrix packed;
    int64_t k = 0, n = 0;
  };
  std::vector<Operand> operands(kns.size());
  double flops = 0.0, bytes = 0.0;
  for (size_t i = 0; i < kns.size(); ++i) {
    Operand& op = operands[i];
    op.k = kns[i].first;
    op.n = kns[i].second;
    op.a.resize(static_cast<size_t>(m * op.k));
    op.w.resize(static_cast<size_t>(op.k * op.n));
    op.c.resize(static_cast<size_t>(m * op.n));
    for (float& x : op.a) x = static_cast<float>(rng.Uniform() - 0.5);
    for (float& x : op.w) x = static_cast<float>(rng.Uniform() - 0.5);
    if (ops->gemm_layout == GemmLayout::kPacked) {
      op.packed = PackWeights(alloc, op.w.data(), op.k, op.n, "perfbench.gemm");
    }
    flops += 2.0 * static_cast<double>(m * op.k * op.n);
    bytes += 4.0 * static_cast<double>(m * op.k + op.k * op.n + m * op.n);
  }
  auto once = [&] {
    for (Operand& op : operands) {
      if (ops->gemm_layout == GemmLayout::kPacked) {
        MatMulPacked(op.a.data(), op.packed, op.c.data(), m, &pool, ops);
      } else {
        MatMul(op.a.data(), op.w.data(), op.c.data(), m, op.k, op.n, &pool, ops);
      }
    }
  };
  once();  // warm caches and workers
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 7 || (total < 0.02 && times.size() < 200)) {
    times.push_back(Timed(tracer, name, parent, once));
    total += times.back();
  }
  const double t = Percentile(times, 50);
  std::fprintf(stderr,
               "[perfbench] gemm %-24s m=%lld: %.3g flop, %.3g bytes moved (computed), "
               "%.3f GFLOP/s\n",
               name, static_cast<long long>(m), flops, bytes, flops / t / 1e9);
  return flops / t / 1e9;
}

}  // namespace

void MeasureLayers(Run& run, Stack& stack, InputSource& source, const OpenLoop& open,
                   const ClusterStats& m0, const ClusterStats& m1,
                   std::vector<Metric>& out) {
  const WorkloadSpec& spec = run.spec;
  const EngineOptions& engine = stack.engine_options();
  const ModelConfig& model_config = spec.model;
  Tracer& tracer = run.tracer;
  const int64_t root = tracer.NewId();
  const double root_start = Now();
  auto add = [&](const char* name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
  };

  // ---- src/core, from the open loop's responses and the engines' counters.
  std::vector<double> queue_ms, execute_ms, n_cached;
  std::vector<double> estimate, execute_solo;
  CacheMissProxyEstimator estimator;  // the engine's default JCT estimator
  for (size_t i = 0; i < open.items.size(); ++i) {
    const Outcome& o = open.phase.outcomes[i];
    if (!o.ok) continue;
    queue_ms.push_back(o.response.queue_time_s * 1e3);
    execute_ms.push_back(o.response.execute_time_s * 1e3);
    n_cached.push_back(static_cast<double>(o.response.n_cached));
    if (o.response.batch_size == 1) {
      estimate.push_back(estimator.Estimate(o.response.n_input, o.response.n_cached));
      execute_solo.push_back(o.response.execute_time_s);
    }
  }
  const EngineStats& e0 = m0.totals;
  const EngineStats& e1 = m1.totals;
  const double batches = static_cast<double>(e1.batches_dispatched - e0.batches_dispatched);
  const double occupancy =
      Ratio(static_cast<double>(e1.batched_requests - e0.batched_requests), batches);
  const double miss_per_batch =
      Ratio(static_cast<double>(e1.batched_miss_tokens - e0.batched_miss_tokens), batches);

  // ---- src/model + src/tensor run on the serving engine's own model and
  // thread pool, while the stack is idle.
  const LlamaModel& model = stack.set().engine(0).model();
  ThreadPool& pool = *model.thread_pool();
  TrackingAllocator kv_alloc;  // declared first: outlives the prefixes below
  std::map<std::pair<int64_t, int64_t>, KvCacheData> prefixes;  // (user, n_cached)
  auto prefix_for = [&](const Item& item, int64_t cached) -> const KvCacheData* {
    if (cached == 0) return nullptr;
    auto [it, inserted] = prefixes.try_emplace({item.user, cached});
    if (inserted) {
      PrefillOptions options;
      options.retention = KvRetention::kAll;
      auto pass = model.Prefill(std::span(item.tokens).first(static_cast<size_t>(cached)),
                                nullptr, options, kv_alloc);
      if (pass.ok()) it->second = std::move(pass.value().kv);
    }
    return it->second.n_tokens == cached ? &it->second : nullptr;
  };

  // ---- Solo probes: kProbeReps requests of each of kProbeShapes workload
  // shapes, one at a time through the router. Right after each, the same
  // pass (same n_cached, same n_new, engine options) runs on the bare model,
  // so execute time and prefill time are paired request by request and
  // compared median with median per shape.
  constexpr int kProbeShapes = 6;
  constexpr int kProbeReps = 5;
  std::vector<Item> probe_items;
  source.ShapeProbes(kProbeShapes, kProbeReps, probe_items);
  PhaseResult probes;
  probes.outcomes.resize(probe_items.size());
  struct ShapeTimes {
    std::vector<double> execute_s, prefill_s;
  };
  std::map<std::pair<int64_t, int64_t>, ShapeTimes> shapes;  // (n_cached, n_input)
  std::vector<double> allocs;
  std::vector<PrefillSequence> sequences;  // one per shape
  for (size_t i = 0; i < probe_items.size(); ++i) {
    const Item& item = probe_items[i];
    Outcome& o = probes.outcomes[i];
    o.sched_s = o.send_s = Now();
    auto result = stack.set().Score(ToRequest(item));
    o.done_s = Now();
    if (!result.ok()) {
      o.error = result.status().ToString();
      continue;
    }
    o.ok = true;
    o.response = result.value();
    const ScoringResponse& r = o.response;
    estimate.push_back(estimator.Estimate(r.n_input, r.n_cached));
    execute_solo.push_back(r.execute_time_s);

    const KvCacheData* prefix = prefix_for(item, r.n_cached);
    const PrefillOptions options = EngineLikeOptions(engine, r.n_input);
    TrackingAllocator act;
    const uint64_t before = act.total_allocations();
    const double t = Timed(tracer, "model.prefill", root, [&] {
      (void)model.Prefill(item.tokens, prefix, options, act);
    });
    allocs.push_back(static_cast<double>(act.total_allocations() - before));
    auto [shape, first] = shapes.try_emplace({r.n_cached, r.n_input});
    shape->second.execute_s.push_back(r.execute_time_s);
    shape->second.prefill_s.push_back(t);
    if (first) {
      PrefillSequence seq;
      seq.tokens = item.tokens;
      seq.cached_prefix = prefix;
      seq.retention = KvRetention::kPrefixBudget;
      seq.prefix_budget_tokens = options.prefix_budget_tokens;
      sequences.push_back(seq);
    }
  }
  run.Account(probe_items, probes);
  std::vector<double> prefill_ms, non_prefill_ms;
  double new_tokens = 0.0, prefill_s = 0.0;
  for (const auto& [key, times] : shapes) {
    const double prefill = Percentile(times.prefill_s, 50);
    prefill_ms.push_back(prefill * 1e3);
    non_prefill_ms.push_back((Percentile(times.execute_s, 50) - prefill) * 1e3);
    new_tokens += static_cast<double>(key.second - key.first);
    prefill_s += prefill;
  }
  std::vector<double> batch_ms;
  if (!sequences.empty()) {
    const auto b = static_cast<size_t>(std::max(1.0, std::round(occupancy)));
    std::vector<PrefillSequence> batch;
    for (size_t i = 0; i < b; ++i) batch.push_back(sequences[i % sequences.size()]);
    const PrefillOptions options = EngineLikeOptions(engine, 0);
    for (int rep = 0; rep < 3; ++rep) {
      TrackingAllocator act;
      batch_ms.push_back(1e3 * Timed(tracer, "model.prefill_batch", root, [&] {
        (void)model.PrefillBatch(batch, options, act);
      }));
    }
  }
  const KernelOps* ops = model.kernel_ops();
  const int64_t gemm_m = std::clamp<int64_t>(
      static_cast<int64_t>(std::llround(miss_per_batch)), 1, engine.chunk_size);
  const int64_t h = model_config.hidden_size;
  const int64_t inter = model_config.intermediate_size;
  const double gemm_qkv = GemmGflops(
      ops, pool, tracer, root, "tensor.gemm.qkv", gemm_m,
      {{h, model_config.q_size()}, {h, model_config.kv_size()}, {h, model_config.kv_size()}});
  const double gemm_o = GemmGflops(ops, pool, tracer, root, "tensor.gemm.o", gemm_m,
                                   {{model_config.q_size(), h}});
  const double gemm_gate_up = GemmGflops(ops, pool, tracer, root, "tensor.gemm.gate_up",
                                         gemm_m, {{h, 2 * inter}});
  const double gemm_down =
      GemmGflops(ops, pool, tracer, root, "tensor.gemm.down", gemm_m, {{inter, h}});
  const double gemm_lm_head = GemmGflops(ops, pool, tracer, root, "tensor.gemm.lm_head", 1,
                                         {{h, model_config.vocab_size}});

  // ---- src/common: a trivial ParallelFor at the engine's thread count.
  std::vector<double> parallel_for_us;
  const ThreadPool::RangeFn noop = [](int64_t, int64_t, int) {};
  for (int i = 0; i < 1000; ++i) {
    parallel_for_us.push_back(1e6 * Timed(tracer, "pool.parallel_for", root, [&] {
      pool.ParallelFor(pool.num_threads(), 1, noop);
    }));
  }

  // ---- src/sched: PickBatch over open-loop queue snapshots at the mean
  // depth the run saw at its sends.
  const auto depth = static_cast<size_t>(
      std::max(1.0, std::ceil(Mean(open.phase.depth_at_send))));
  const Scheduler scheduler(SchedPolicy::kSrjfCalibrated, engine.lambda, &estimator,
                            engine.batch_packing);
  const BatchBudget budget = MakeBatchBudget(model_config, engine.mode,
                                             engine.activation_budget_bytes,
                                             engine.block_size);
  std::vector<double> pick_us;
  if (!open.items.empty()) {
    for (int i = 0; i < 500; ++i) {
      std::vector<SchedEntry> queue;
      for (size_t j = 0; j < depth; ++j) {
        const size_t k = (static_cast<size_t>(i) * depth + j) % open.items.size();
        const Outcome& o = open.phase.outcomes[k];
        SchedEntry entry;
        entry.arrival_time = o.sched_s;
        entry.n_input = static_cast<int64_t>(open.items[k].tokens.size());
        entry.n_cached_at_arrival = entry.n_cached_now = o.ok ? o.response.n_cached : 0;
        queue.push_back(entry);
      }
      const double now = Now();
      pick_us.push_back(1e6 * Timed(tracer, "sched.pick_batch", root, [&] {
        (void)scheduler.PickBatch(queue, now, engine.max_batch_size, budget);
      }));
    }
  }

  // ---- src/kvcache: acquire + release of the run's own block chains.
  std::vector<double> acquire_us;
  {
    const int64_t capacity = engine.cache_budget_tokens / engine.block_size;
    PrefixCache cache(engine.block_size, capacity);
    for (size_t i = 0; i < std::min<size_t>(open.items.size(), 400); ++i) {
      const std::vector<uint64_t> chain =
          BlockHashChain(open.items[i].tokens, engine.block_size);
      const int64_t need = std::min<int64_t>(static_cast<int64_t>(chain.size()), capacity);
      acquire_us.push_back(1e6 * Timed(tracer, "kvcache.acquire_release", root, [&] {
        auto acquired = cache.Acquire(chain, need);
        if (acquired.ok()) cache.Release(acquired.value(), need);
      }));
    }
  }

  // ---- src/server: JSON on the workload's own bodies, and Handle() on a
  // few of them minus the engine's own queue + execute time.
  std::vector<double> parse_us, serialize_us;
  for (size_t i = 0; i < std::min<size_t>(open.items.size(), 200); ++i) {
    const std::string body = RequestBody(open.items[i]);
    Result<Json> parsed = Json();
    parse_us.push_back(1e6 * Timed(tracer, "server.json_parse", root,
                                   [&] { parsed = Json::Parse(body); }));
    if (!parsed.ok()) {
      run.checker.Fail("the server's parser rejected a benchmark body");
      continue;
    }
    std::string text;
    serialize_us.push_back(1e6 * Timed(tracer, "server.json_serialize", root,
                                       [&] { text = parsed.value().Serialize(); }));
  }
  std::vector<Item> handle_items;
  source.Next(8, handle_items);
  PhaseResult handled;
  handled.outcomes.resize(handle_items.size());
  std::vector<double> overhead_us;
  for (size_t i = 0; i < handle_items.size(); ++i) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/v1/score";
    request.body = RequestBody(handle_items[i]);
    Outcome& o = handled.outcomes[i];
    HttpResponse response;
    const double t = Timed(tracer, "server.handle", root,
                           [&] { response = stack.service().Handle(request); });
    auto parsed = Json::Parse(response.body);
    o.error = response.status != 200 ? "HTTP " + std::to_string(response.status)
              : !parsed.ok()         ? "unparseable response"
                                     : ParseResult(parsed.value(), o);
    o.ok = o.error.empty();
    if (o.ok) {
      overhead_us.push_back(
          (t - o.response.queue_time_s - o.response.execute_time_s) * 1e6);
    }
  }
  run.Account(handle_items, handled);

  // ---- src/client: loopback round trip of the health route.
  std::vector<double> rtt_us;
  {
    HttpClientOptions options;
    options.port = stack.port();
    HttpClient client(options);
    for (int i = 0; i < 200; ++i) {
      bool ok = false;
      rtt_us.push_back(1e6 * Timed(tracer, "client.health", root, [&] {
        auto reply = client.Get("/v1/health");
        ok = reply.ok() && reply.value().status == 200;
      }));
      if (!ok) {
        run.checker.Fail("GET /v1/health failed");
        break;
      }
    }
  }

  // ---- src/cluster: router counters, and Submit call time under the run's
  // own load.
  const ClusterCounters& c0 = m0.cluster;
  const ClusterCounters& c1 = m1.cluster;
  const double affinity = static_cast<double>(c1.routed_affinity - c0.routed_affinity);
  const double spills = static_cast<double>(c1.routed_spill - c0.routed_spill);
  std::vector<double> cluster_submit_us;
  for (double s : tracer.Durations("cluster.submit")) cluster_submit_us.push_back(s * 1e6);

  tracer.Record(root, "layers", root_start, Now(), -1, -1);
  std::fprintf(stderr, "[perfbench] self time by span:\n");
  for (const Tracer::SelfTime& row : tracer.SelfTimes()) {
    std::fprintf(stderr, "[perfbench]   %-28s n=%-7lld self %10.3f ms (%.3f us each)\n",
                 row.name.c_str(), static_cast<long long>(row.count), row.total_ms,
                 1e3 * row.total_ms / static_cast<double>(row.count));
  }

  const PrefixCacheStats& k0 = e0.cache;
  const PrefixCacheStats& k1 = e1.cache;
  add("server.json_parse_us", Percentile(parse_us, 50), "us");
  add("server.json_serialize_us", Percentile(serialize_us, 50), "us");
  add("server.handle_overhead_us", Percentile(overhead_us, 50), "us");
  add("client.http_rtt_us", Percentile(rtt_us, 50), "us");
  add("cluster.affinity_share", Ratio(affinity, affinity + spills), "ratio");
  add("cluster.spills", spills, "count");
  add("cluster.submit_us", Percentile(cluster_submit_us, 50), "us");
  add("engine.queue_wait_ms_p50", Percentile(queue_ms, 50), "ms");
  add("engine.queue_wait_ms_p99", Percentile(queue_ms, 99), "ms");
  add("engine.execute_ms_p50", Percentile(execute_ms, 50), "ms");
  add("engine.non_prefill_ms", Percentile(non_prefill_ms, 50), "ms");
  add("engine.batch_occupancy", occupancy, "req/batch");
  add("engine.miss_tokens_per_batch", miss_per_batch, "tokens");
  add("engine.packing_skips", static_cast<double>(e1.packing_skips - e0.packing_skips),
      "count");
  add("engine.peak_activation_mb", static_cast<double>(e1.peak_activation_bytes) / kMiB,
      "MiB");
  add("sched.pick_batch_us", Percentile(pick_us, 50), "us");
  add("sched.jct_estimate_corr", Correlation(estimate, execute_solo), "r");
  add("kvcache.hit_token_share",
      Ratio(static_cast<double>(k1.hit_tokens - k0.hit_tokens),
            static_cast<double>(k1.lookup_tokens - k0.lookup_tokens)),
      "ratio");
  add("kvcache.evictions", static_cast<double>(k1.evictions - k0.evictions), "count");
  add("kvcache.insertions", static_cast<double>(k1.insertions - k0.insertions), "count");
  add("kvcache.failed_acquires",
      static_cast<double>(k1.failed_acquires - k0.failed_acquires), "count");
  add("kvcache.acquire_us", Percentile(acquire_us, 50), "us");
  add("kvcache.prefix_bytes_per_req",
      Mean(n_cached) * static_cast<double>(model_config.kv_bytes_per_token()), "bytes");
  add("model.prefill_ms", Percentile(prefill_ms, 50), "ms");
  add("model.prefill_tokens_per_s", Ratio(new_tokens, prefill_s), "tokens/s");
  add("model.batch_prefill_ms", Percentile(batch_ms, 50), "ms");
  add("tensor.gemm_gflops.qkv", gemm_qkv, "GFLOP/s");
  add("tensor.gemm_gflops.o", gemm_o, "GFLOP/s");
  add("tensor.gemm_gflops.gate_up", gemm_gate_up, "GFLOP/s");
  add("tensor.gemm_gflops.down", gemm_down, "GFLOP/s");
  add("tensor.gemm_gflops.lm_head", gemm_lm_head, "GFLOP/s");
  add("tensor.allocs_per_pass", Percentile(allocs, 50), "count");
  add("pool.parallel_for_us", Percentile(parallel_for_us, 50), "us");
}

}  // namespace perfbench
