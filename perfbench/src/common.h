// Shared pieces of the end-to-end benchmark: the run clock, a seeded RNG,
// order statistics, the output checker and the span recorder. Everything
// here is the benchmark's own code; the program under test is only reached
// through its public headers, so a change to the program's load generator or
// metrics cannot change how the program is measured.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/request.h"

namespace perfbench {

// Seconds on the steady clock since the process started (see common.cc).
double Now();

// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform integer in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. For p = 99 over n samples, n - ceil(0.99 n) samples
// lie strictly beyond it in rank, so n >= 1000 leaves at least ten. Returns
// 0 for an empty input.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
// Pearson correlation; 0 when either side has no variance.
double Correlation(const std::vector<double>& x, const std::vector<double>& y);

// ------------------------------------------------------------ output checks

// Accumulates failed checks. A failure marks the run's outputs incorrect; it
// never turns a slow request into a failed one.
class Checker {
 public:
  void Fail(const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::mutex mu_;
  std::vector<std::string> failures_;
};

// Stated tolerance for sum(probabilities) == 1: the engine normalizes in
// double precision over at most a handful of allowed tokens.
inline constexpr double kProbabilitySumTolerance = 1e-9;

// Properties every successful response must have; returns an empty string
// when all hold, else the first violated property.
std::string CheckResponse(const prefillonly::ScoringResponse& response,
                          const std::vector<int32_t>& tokens,
                          const std::vector<int32_t>& allowed, int block_size,
                          bool expect_no_cache_hit);

// Bitwise agreement of two responses' scores and probabilities.
bool SameBits(const prefillonly::ScoringResponse& a,
              const prefillonly::ScoringResponse& b);

// ---------------------------------------------------------------- tracing

// One timed call: name, interval, the span that caused it, and the request it
// belongs to (-1 for layer measurements outside any request).
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
};

// In-memory span recorder; written out once, when the run ends. Disabled
// recorders drop every span, so the untraced run pays one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  int64_t NewId() { return next_id_.fetch_add(1); }
  void Record(int64_t id, const char* name, double start_s, double end_s,
              int64_t parent, int64_t request);

  struct SelfTime {
    std::string name;
    int64_t count = 0;
    double total_ms = 0.0;  // span durations minus the time children cover
  };
  // Self time per span name, in first-seen order.
  std::vector<SelfTime> SelfTimes() const;
  size_t size() const;
  // Durations (seconds) of every span called `name`.
  std::vector<double> Durations(const char* name) const;
  // Writes every span and the self-time table as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
