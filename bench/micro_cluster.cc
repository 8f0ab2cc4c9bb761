// Multi-replica serving microbenchmark (ISSUE 8).
//
// Two questions the ReplicaSet layer must answer with numbers:
//
//  1. SCALING — aggregate prefill throughput of a shared-prefix workload
//     behind the prefix-affinity router at N = {1, 2, 4} replicas. Affinity
//     keeps each prefix family on one replica, so per-replica cache hit
//     rates should survive the split (the router's reason to exist: naive
//     round-robin would dilute them N ways).
//  2. RECOVERY — kill one of three replicas (Trip(), the operator switch)
//     with a backlog queued on it, and measure makespan plus how many
//     queued requests transparently failed over. The bar: every request
//     completes, none execute twice, and the surviving replicas absorb the
//     work without operator involvement.
//
// Output: a human table plus BENCH_cluster.json in the style of
// BENCH_concurrent_serving.json. Same caveat as docs/PERFORMANCE.md: the
// dev container may expose few cores; replica-count speedups only show on
// real multi-core hosts, while the recovery numbers are meaningful anywhere.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/affinity_router.h"
#include "src/cluster/replica_set.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/request.h"

namespace {

using namespace prefillonly;

EngineOptions BenchEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 1024;
  options.mode = PrefillMode::kChunked;
  options.chunk_size = 32;
  options.num_threads = 0;  // whole machine, shared by all replicas
  options.max_concurrent_requests = 2;
  return options;
}

// Shared-prefix workload: `families` distinct first blocks, each repeated
// so the prefix cache (and the affinity router) has something to share.
std::vector<ScoringRequest> BenchWorkload(int n_requests, int families,
                                          int64_t n_tokens) {
  std::vector<ScoringRequest> requests;
  Rng rng(7);
  std::vector<std::vector<int32_t>> prefixes;
  for (int f = 0; f < families; ++f) {
    std::vector<int32_t> prefix(16);
    for (auto& t : prefix) {
      t = static_cast<int32_t>(rng.NextBounded(256));
    }
    prefixes.push_back(std::move(prefix));
  }
  for (int i = 0; i < n_requests; ++i) {
    ScoringRequest request;
    request.user_id = i;
    request.tokens = prefixes[static_cast<size_t>(i % families)];
    while (request.tokens.size() < static_cast<size_t>(n_tokens)) {
      request.tokens.push_back(static_cast<int32_t>(rng.NextBounded(256)));
    }
    request.allowed_tokens = {10, 20};
    requests.push_back(std::move(request));
  }
  return requests;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct ScalePoint {
  int n_replicas;
  int requests;
  double seconds;
  double prefills_per_s;
  double cache_hit_rate;
  int64_t routed_affinity;
  int64_t routed_spill;
};

ScalePoint RunScale(const std::vector<ScoringRequest>& workload, int n_replicas) {
  ReplicaSetOptions options;
  options.n_replicas = n_replicas;
  options.engine = BenchEngineOptions();
  options.health_poll_ms = 0;
  ReplicaSet set(options);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Engine::ResponseFuture> futures;
  futures.reserve(workload.size());
  for (const auto& request : workload) {
    auto submitted = set.Submit(request);
    if (submitted.ok()) {
      futures.push_back(std::move(submitted.value().future));
    }
  }
  int completed = 0;
  for (auto& future : futures) {
    completed += future.get().ok() ? 1 : 0;
  }
  const double elapsed = Seconds(t0);
  const ClusterStats stats = set.Stats();
  ScalePoint p;
  p.n_replicas = n_replicas;
  p.requests = completed;
  p.seconds = elapsed;
  p.prefills_per_s = static_cast<double>(completed) / elapsed;
  p.cache_hit_rate = stats.totals.cache.HitRate();
  p.routed_affinity = stats.cluster.routed_affinity;
  p.routed_spill = stats.cluster.routed_spill;
  return p;
}

struct RecoveryPoint {
  int n_replicas;
  int requests;
  int completed;
  double seconds;
  int64_t failovers;
  int64_t cancelled_for_failover;
  bool recovered;  // every request reached a successful terminal result
};

// Recovery workload: one prefix family whose first block routes to replica
// 0 of `n_replicas`, `prefix_tokens` shared plus a distinct
// `suffix_tokens` tail per request.
std::vector<ScoringRequest> RecoveryWorkload(int n_requests, int n_replicas,
                                             int vnodes, int64_t prefix_tokens,
                                             int64_t suffix_tokens) {
  const AffinityRouter router(n_replicas, vnodes);
  const int block_size = BenchEngineOptions().block_size;
  Rng rng(11);
  std::vector<int32_t> prefix(static_cast<size_t>(prefix_tokens));
  do {
    for (auto& t : prefix) {
      t = static_cast<int32_t>(rng.NextBounded(256));
    }
  } while (router.Primary(AffinityKey(prefix, block_size)) != 0);
  std::vector<ScoringRequest> requests;
  for (int i = 0; i < n_requests; ++i) {
    ScoringRequest request;
    request.user_id = i;
    request.tokens = prefix;
    for (int64_t t = 0; t < suffix_tokens; ++t) {
      request.tokens.push_back(static_cast<int32_t>(rng.NextBounded(256)));
    }
    request.allowed_tokens = {10, 20};
    requests.push_back(std::move(request));
  }
  return requests;
}

// Queue a backlog on replica 0 of a 3-replica set (one lane each, so queues
// are real), then trip it immediately: everything queued there must move
// and finish elsewhere. The backlog builds because the workload's prefix is
// primed on replica 0 first: there each request costs a suffix-long miss,
// elsewhere a full one, so earliest-finish routing keeps about
// (prefix + suffix) / suffix of them on replica 0 before spilling.
RecoveryPoint RunRecovery(const std::vector<ScoringRequest>& workload,
                          const ScoringRequest& primer) {
  ReplicaSetOptions options;
  options.n_replicas = 3;
  options.engine = BenchEngineOptions();
  options.engine.max_concurrent_requests = 1;
  options.health_poll_ms = 0;
  ReplicaSet set(options);
  (void)set.Score(primer);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Engine::ResponseFuture> futures;
  futures.reserve(workload.size());
  for (const auto& request : workload) {
    auto submitted = set.Submit(request);
    if (submitted.ok()) {
      futures.push_back(std::move(submitted.value().future));
    }
  }
  (void)set.Trip(0, "bench: simulated replica kill");
  int completed = 0;
  for (auto& future : futures) {
    completed += future.get().ok() ? 1 : 0;
  }
  const double elapsed = Seconds(t0);
  const ClusterStats stats = set.Stats();
  RecoveryPoint p;
  p.n_replicas = 3;
  p.requests = static_cast<int>(futures.size());
  p.completed = completed;
  p.seconds = elapsed;
  p.failovers = stats.cluster.failovers;
  p.cancelled_for_failover = stats.totals.cancelled;
  p.recovered = completed == static_cast<int>(futures.size());
  return p;
}

}  // namespace

int main() {
  constexpr int kRequests = 32;
  constexpr int kFamilies = 8;
  constexpr int64_t kTokens = 96;
  const auto workload = BenchWorkload(kRequests, kFamilies, kTokens);

  std::printf("cluster serving: %d requests, %d prefix families x %lld tokens, "
              "%u hardware threads\n\n",
              kRequests, kFamilies, static_cast<long long>(kTokens),
              std::thread::hardware_concurrency());

  // Warm-up, then best-of-3 per replica count (same noise-taming protocol
  // as micro_concurrent_serving).
  constexpr int kReps = 3;
  (void)RunScale(workload, 1);
  auto best_of = [&](int n) {
    ScalePoint best = RunScale(workload, n);
    for (int r = 1; r < kReps; ++r) {
      ScalePoint p = RunScale(workload, n);
      if (p.seconds < best.seconds) {
        best = p;
      }
    }
    return best;
  };
  std::vector<ScalePoint> points;
  for (int n : {1, 2, 4}) {
    points.push_back(best_of(n));
  }

  std::printf("%-10s %10s %12s %16s %14s %10s %8s\n", "replicas", "requests",
              "seconds", "prefills/sec", "cache_hit", "affinity", "spill");
  for (const auto& p : points) {
    std::printf("%-10d %10d %12.4f %16.2f %14.3f %10lld %8lld\n", p.n_replicas,
                p.requests, p.seconds, p.prefills_per_s, p.cache_hit_rate,
                static_cast<long long>(p.routed_affinity),
                static_cast<long long>(p.routed_spill));
  }

  constexpr int64_t kRecoveryPrefix = 240;
  constexpr int64_t kRecoverySuffix = 16;
  const auto recovery_workload =
      RecoveryWorkload(kRequests + 1, 3, ReplicaSetOptions().vnodes_per_replica,
                       kRecoveryPrefix, kRecoverySuffix);
  const RecoveryPoint recovery = RunRecovery(
      {recovery_workload.begin() + 1, recovery_workload.end()}, recovery_workload[0]);
  std::printf("\nkill-one-replica recovery (3 replicas, one lane each, "
              "%lld+%lld-token prompts primed on replica 0, tripped at t=0):\n",
              static_cast<long long>(kRecoveryPrefix),
              static_cast<long long>(kRecoverySuffix));
  std::printf("  %d/%d requests completed in %.4f s; %lld queued requests "
              "failed over (%lld withdrawals); recovered: %s\n",
              recovery.completed, recovery.requests, recovery.seconds,
              static_cast<long long>(recovery.failovers),
              static_cast<long long>(recovery.cancelled_for_failover),
              recovery.recovered ? "yes" : "NO");

  FILE* f = std::fopen("BENCH_cluster.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_cluster.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"cluster_scaling\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "    {\"n_replicas\": %d, \"requests\": %d, \"seconds\": %.6g, "
                 "\"prefills_per_s\": %.4f, \"cache_hit_rate\": %.4f, "
                 "\"routed_affinity\": %lld, \"routed_spill\": %lld}%s\n",
                 p.n_replicas, p.requests, p.seconds, p.prefills_per_s,
                 p.cache_hit_rate, static_cast<long long>(p.routed_affinity),
                 static_cast<long long>(p.routed_spill),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"failover_recovery\": {\n");
  std::fprintf(f,
               "    \"n_replicas\": %d, \"requests\": %d, \"completed\": %d, "
               "\"seconds\": %.6g, \"failovers\": %lld, \"recovered\": %s\n",
               recovery.n_replicas, recovery.requests, recovery.completed,
               recovery.seconds, static_cast<long long>(recovery.failovers),
               recovery.recovered ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_cluster.json\n");
  return recovery.recovered ? 0 : 1;
}
