// The benchmark's own tests: the output checker rejects perturbed results,
// the percentile code agrees with a full sort, and span self times subtract
// overlapping children once. Exits non-zero on the first failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileMatchesSortedReference() {
  Rng rng(1);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 999u, 1000u, 4321u}) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.Uniform() * 100.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
      rank = std::clamp<size_t>(rank, 1, n);
      Expect(Percentile(values, p) == sorted[rank - 1], "percentile != sorted reference");
    }
  }
  std::vector<double> thousand(1000);
  for (size_t i = 0; i < thousand.size(); ++i) thousand[i] = static_cast<double>(i);
  const double p99 = Percentile(thousand, 99);
  Expect(std::count_if(thousand.begin(), thousand.end(),
                       [&](double v) { return v > p99; }) >= 10,
         "fewer than ten samples beyond p99 of 1000");
  Expect(Percentile({}, 50) == 0.0, "percentile of nothing");
}

prefillonly::ScoringResponse Valid(std::vector<int32_t>& tokens,
                                   std::vector<int32_t>& allowed) {
  tokens.assign(100, 5);
  allowed = {11, 29};
  prefillonly::ScoringResponse r;
  r.probabilities = {{11, 0.25}, {29, 0.75}};
  r.score = 0.25;
  r.n_input = 100;
  r.n_cached = 64;
  return r;
}

void TestCheckerRejectsPerturbedResults() {
  std::vector<int32_t> tokens, allowed;
  const prefillonly::ScoringResponse good = Valid(tokens, allowed);
  Expect(CheckResponse(good, tokens, allowed, 32, false).empty(), "valid response rejected");
  Expect(!CheckResponse(good, tokens, allowed, 32, true).empty(),
         "cache hit on a distinct prompt accepted");

  prefillonly::ScoringResponse r = good;
  r.score = std::nextafter(r.score, 1.0);
  Expect(!CheckResponse(r, tokens, allowed, 32, false).empty(), "perturbed score accepted");
  Expect(!SameBits(r, good), "one-ulp score change not seen by the bitwise check");

  r = good;
  r.probabilities[1].probability = std::nextafter(0.75, 1.0);
  Expect(SameBits(good, good) && !SameBits(r, good),
         "one-ulp probability change not seen by the bitwise check");
  r.probabilities[1].probability = 0.8;
  Expect(!CheckResponse(r, tokens, allowed, 32, false).empty(), "sum != 1 accepted");
  r = good;
  r.probabilities[0].probability = -0.25;
  r.probabilities[1].probability = 1.25;
  r.score = -0.25;
  Expect(!CheckResponse(r, tokens, allowed, 32, false).empty(), "probability < 0 accepted");
  r = good;
  r.n_cached = 40;
  Expect(!CheckResponse(r, tokens, allowed, 32, false).empty(), "partial block accepted");
  r = good;
  r.n_cached = 100;
  Expect(!CheckResponse(r, tokens, allowed, 32, false).empty(), "n_cached == n_input accepted");
  r = good;
  r.n_input = 99;
  Expect(!CheckResponse(r, tokens, allowed, 32, false).empty(), "wrong n_input accepted");
  r = good;
  std::swap(r.probabilities[0].token, r.probabilities[1].token);
  Expect(!CheckResponse(r, tokens, allowed, 32, false).empty(), "token order accepted");
}

void TestSelfTimeSubtractsChildrenOnce() {
  Tracer tracer(true);
  const int64_t root = tracer.NewId();
  tracer.Record(root, "parent", 0.0, 10.0, -1, root);
  tracer.Record(tracer.NewId(), "child", 1.0, 3.0, root, root);
  tracer.Record(tracer.NewId(), "child", 2.0, 5.0, root, root);
  tracer.Record(tracer.NewId(), "child", 8.0, 12.0, root, root);
  double parent_ms = -1.0, child_ms = -1.0;
  for (const auto& row : tracer.SelfTimes()) {
    (row.name == "parent" ? parent_ms : child_ms) = row.total_ms;
  }
  // Children cover [1, 5) and [8, 10) of the parent: 6 s of its 10.
  Expect(std::fabs(parent_ms - 4000.0) < 1e-6, "parent self time");
  Expect(std::fabs(child_ms - 9000.0) < 1e-6, "child self time");
  Tracer off(false);
  off.Record(off.NewId(), "x", 0.0, 1.0, -1, -1);
  Expect(off.size() == 0, "a disabled tracer kept a span");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileMatchesSortedReference();
  perfbench::TestCheckerRejectsPerturbedResults();
  perfbench::TestSelfTimeSubtractsChildrenOnce();
  if (perfbench::failures == 0) {
    std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  }
  return perfbench::failures == 0 ? 0 : 1;
}
