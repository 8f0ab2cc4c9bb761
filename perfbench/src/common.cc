#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

namespace {

// Captured during static initialization, i.e. as the process starts: the
// set-up metric is timed from here, so it covers everything the process does
// before serving its first measured request.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Correlation(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) {
    return 0.0;
  }
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

void Checker::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < 64) {
    failures_.push_back(what);
  }
}

std::string CheckResponse(const prefillonly::ScoringResponse& response,
                          const std::vector<int32_t>& tokens,
                          const std::vector<int32_t>& allowed, int block_size,
                          bool expect_no_cache_hit) {
  if (response.probabilities.size() != allowed.size()) {
    return "probabilities has " + std::to_string(response.probabilities.size()) +
           " entries for " + std::to_string(allowed.size()) + " allowed tokens";
  }
  double sum = 0.0;
  for (size_t i = 0; i < allowed.size(); ++i) {
    const auto& p = response.probabilities[i];
    if (p.token != allowed[i]) {
      return "probabilities[" + std::to_string(i) + "] is for the wrong token";
    }
    if (!(p.probability >= 0.0 && p.probability <= 1.0)) {
      return "probability outside [0, 1]";
    }
    sum += p.probability;
  }
  if (std::fabs(sum - 1.0) > kProbabilitySumTolerance) {
    return "probabilities sum to " + std::to_string(sum);
  }
  if (response.score != response.probabilities[0].probability) {
    return "score differs from probabilities[0]";
  }
  if (response.n_input != static_cast<int64_t>(tokens.size())) {
    return "n_input " + std::to_string(response.n_input) + " for a prompt of " +
           std::to_string(tokens.size()) + " tokens";
  }
  if (response.n_cached < 0 || response.n_cached >= response.n_input) {
    return "n_cached " + std::to_string(response.n_cached) + " outside [0, n_input)";
  }
  if (response.n_cached % block_size != 0) {
    return "n_cached " + std::to_string(response.n_cached) + " is not a block multiple";
  }
  if (expect_no_cache_hit && response.n_cached != 0) {
    return "a distinct prompt was served from the prefix cache";
  }
  return "";
}

bool SameBits(const prefillonly::ScoringResponse& a,
              const prefillonly::ScoringResponse& b) {
  if (a.probabilities.size() != b.probabilities.size() ||
      std::memcmp(&a.score, &b.score, sizeof(double)) != 0) {
    return false;
  }
  for (size_t i = 0; i < a.probabilities.size(); ++i) {
    if (a.probabilities[i].token != b.probabilities[i].token ||
        std::memcmp(&a.probabilities[i].probability, &b.probabilities[i].probability,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void Tracer::Record(int64_t id, const char* name, double start_s, double end_s,
                    int64_t parent, int64_t request) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, request, name, start_s, end_s});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(s.end_s - s.start_s);
    }
  }
  return out;
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::map<int64_t, const Span*> by_id;
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    by_id[s.id] = &s;
  }
  for (const Span& s : spans_) {
    auto parent = by_id.find(s.parent);
    if (parent != by_id.end()) {
      const Span& p = *parent->second;
      children[s.parent].emplace_back(std::max(s.start_s, p.start_s),
                                      std::min(s.end_s, p.end_s));
    }
  }
  std::vector<SelfTime> out;
  std::map<std::string, size_t> index;
  for (const Span& s : spans_) {
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cur_start = 0.0, cur_end = -1.0;
      for (const auto& [a, b] : intervals) {
        if (b <= a) {
          continue;
        }
        if (a > cur_end) {
          covered += std::max(0.0, cur_end - cur_start);
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      covered += std::max(0.0, cur_end - cur_start);
    }
    auto [it, inserted] = index.emplace(s.name, out.size());
    if (inserted) {
      out.push_back(SelfTime{s.name, 0, 0.0});
    }
    SelfTime& row = out[it->second];
    ++row.count;
    row.total_ms += std::max(0.0, (s.end_s - s.start_s) - covered) * 1e3;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<SelfTime> self = SelfTimes();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"self_time\": [");
  for (size_t i = 0; i < self.size(); ++i) {
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"count\": %lld, \"self_ms\": %.6f}",
                 i == 0 ? "" : ",", self[i].name.c_str(),
                 static_cast<long long>(self[i].count), self[i].total_ms);
  }
  std::fprintf(f, "],\n\"spans\": [");
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                 i == 0 ? "" : ",", static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.request),
                 s.name, s.start_s, s.end_s);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
