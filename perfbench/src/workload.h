// The workloads: their serving-stack layout, their fixed open-loop rate, and
// the seeded generator of their inputs.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/cluster/replica_set.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;

  // Serving stack. Compute threads (replicas x threads) never exceed nproc.
  prefillonly::ModelConfig model;
  int n_replicas = 1;
  int threads_per_replica = 4;
  int max_batch = 8;
  int64_t cache_budget_tokens = 4096;
  int block_size = 32;

  // Input make-up.
  int n_users = 0;                              // users with a shared profile
  int64_t profile_min = 0, profile_max = 0;     // profile tokens per user
  int64_t suffix_min = 0, suffix_max = 0;       // candidate tokens per request
  int64_t long_min = 0, long_max = 0;           // unshared prompt tokens
  int burst_min = 1, burst_max = 1;             // candidates per user burst

  // Phase sizes for one run of `seconds`: the saturated set is
  // saturated_per_s x seconds requests offered at once; the open loop offers
  // open_rps x seconds requests at open_rps.
  int warmup_requests = 0;
  double saturated_per_s = 0.0;
  double open_rps = 0.0;  // fixed absolute open-loop rate, requests/s
};

// Returns false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec& out);

// One scoring request as the benchmark generated it.
struct Item {
  std::vector<int32_t> tokens;
  std::vector<int32_t> allowed;
  int64_t user = 0;
  int shape = 0;  // 0 = shared-profile candidate, 1 = long unshared prompt
};

// Input source for one run. The user population and the traffic shape
// (lengths, bursts, arrival times) are a fixed trace, the same in every run,
// so that two runs offer the same load; the seed draws
// every token the engine sees (candidate posts, unshared prompts), so no
// cache or branch can carry one run's content into another. A workload with
// users sends only shared-profile candidates; one without sends only
// unshared prompts, each distinct from every other prompt of the run.
class InputSource {
 public:
  InputSource(const WorkloadSpec& spec, uint64_t seed);

  // Restarts the traffic shape at fixed trace `trace`: phases that restart
  // at the same trace offer the same lengths, bursts and arrival times.
  void Restart(uint64_t trace);
  // Appends `n` requests (user bursts interleaved in pairs) to `items`.
  void Next(int64_t n, std::vector<Item>& items);

  int n_users() const { return static_cast<int>(profiles_.size()); }
  // Poisson arrival offsets (seconds from phase start) of `n` requests at
  // `per_s` requests per second.
  std::vector<double> Arrivals(size_t n, double per_s);
  // One minimal candidate of `user`.
  Item ProfileFill(int64_t user);
  // `reps` requests of each of `n_shapes` shapes: the same prompt length,
  // and for candidates the same user, within a shape.
  void ShapeProbes(int n_shapes, int reps, std::vector<Item>& items);

 private:
  Item Candidate(int64_t user, int64_t suffix_len);
  Item Unshared(int64_t len);
  // Lengths spread evenly over [lo, hi] in random order, so the mean length of
  // a phase does not move with the seed.
  std::vector<int64_t> Stratified(int64_t n, int64_t lo, int64_t hi);

  const WorkloadSpec& spec_;
  Rng shape_;  // the fixed trace
  Rng rng_;    // the seed's content
  std::vector<std::vector<int32_t>> profiles_;
  uint64_t serial_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
