#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Sizes below are for a 4-core x86 host (README "Workloads"). The open-loop
// rates are absolute and fixed: re-deriving them from a fresh capacity probe
// in every run would make the offered load move with the host's noise.
WorkloadSpec PostRec() {
  WorkloadSpec s;
  s.name = "post-rec";
  s.model = prefillonly::ModelConfig::Small();
  s.n_replicas = 2;
  s.threads_per_replica = 2;
  s.max_batch = 8;
  s.cache_budget_tokens = 16384;
  s.n_users = 16;
  s.profile_min = 1024;
  s.profile_max = 1536;
  s.suffix_min = 16;
  s.suffix_max = 48;
  s.burst_min = 4;
  s.burst_max = 12;
  s.warmup_requests = 64;
  s.saturated_per_s = 16;
  s.open_rps = 8;
  return s;
}

WorkloadSpec Credit() {
  WorkloadSpec s;
  s.name = "credit";
  s.model = prefillonly::ModelConfig::Medium();
  s.n_replicas = 1;
  s.threads_per_replica = 4;
  s.max_batch = 4;
  s.cache_budget_tokens = 4096;
  s.long_min = 128;
  s.long_max = 384;
  s.warmup_requests = 8;
  s.saturated_per_s = 6;
  s.open_rps = 6;
  return s;
}

// Unshared prompts start with this marker token, which no profile starts
// with, followed by a run-unique serial: no unshared prompt can share even
// its first cache block with any other prompt of the run.
constexpr int kSerialTokens = 3;

constexpr uint64_t kTraceSeed = 0x9051eedULL;

// Every request asks the same {yes, no} pair.
constexpr int32_t kAllowedYes = 11;
constexpr int32_t kAllowedNo = 29;

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec& out) {
  if (name == "post-rec") {
    out = PostRec();
  } else if (name == "credit") {
    out = Credit();
  } else {
    return false;
  }
  return true;
}

InputSource::InputSource(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), shape_(kTraceSeed), rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eed) {
  // Profiles belong to the fixed population: which replica a user hashes to
  // and how long the profile is would otherwise move every figure with the
  // seed.
  const std::vector<int64_t> lengths =
      Stratified(spec.n_users, spec.profile_min, spec.profile_max);
  const auto vocab = spec.model.vocab_size;
  for (int u = 0; u < spec.n_users; ++u) {
    std::vector<int32_t> profile(static_cast<size_t>(lengths[static_cast<size_t>(u)]));
    for (auto& t : profile) {
      t = static_cast<int32_t>(shape_.Range(0, vocab - 2));
    }
    profiles_.push_back(std::move(profile));
  }
}

void InputSource::Restart(uint64_t trace) {
  shape_ = Rng(kTraceSeed + trace * 0x9e3779b97f4a7c15ULL);
}

std::vector<double> InputSource::Arrivals(size_t n, double per_s) {
  std::vector<double> out;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(t);
    t += -std::log(1.0 - shape_.Uniform()) / per_s;
  }
  return out;
}

std::vector<int64_t> InputSource::Stratified(int64_t n, int64_t lo, int64_t hi) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + shape_.Uniform()) / static_cast<double>(n);
    out.push_back(lo + static_cast<int64_t>(u * static_cast<double>(hi - lo + 1)));
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<size_t>(shape_.Next() % i)]);
  }
  return out;
}

Item InputSource::Candidate(int64_t user, int64_t suffix_len) {
  Item item;
  item.allowed = {kAllowedYes, kAllowedNo};
  item.user = user;
  item.shape = 0;
  item.tokens = profiles_[static_cast<size_t>(user)];
  for (int64_t i = 0; i < suffix_len; ++i) {
    item.tokens.push_back(static_cast<int32_t>(rng_.Range(0, spec_.model.vocab_size - 1)));
  }
  return item;
}

Item InputSource::Unshared(int64_t len) {
  Item item;
  item.allowed = {kAllowedYes, kAllowedNo};
  item.user = -1;
  item.shape = 1;
  const auto vocab = static_cast<uint64_t>(spec_.model.vocab_size - 1);
  item.tokens.push_back(static_cast<int32_t>(vocab));
  uint64_t serial = serial_++;
  for (int i = 0; i < kSerialTokens; ++i) {
    item.tokens.push_back(static_cast<int32_t>(serial % vocab));
    serial /= vocab;
  }
  while (static_cast<int64_t>(item.tokens.size()) < len) {
    item.tokens.push_back(static_cast<int32_t>(rng_.Range(0, spec_.model.vocab_size - 1)));
  }
  return item;
}

void InputSource::Next(int64_t n, std::vector<Item>& items) {
  if (spec_.n_users == 0) {
    for (int64_t len : Stratified(n, spec_.long_min, spec_.long_max)) {
      items.push_back(Unshared(len));
    }
    return;
  }
  // User bursts, interleaved in pairs: two users' candidate lists arrive at
  // once, as when two feeds refresh together.
  const std::vector<int64_t> lens = Stratified(n, spec_.suffix_min, spec_.suffix_max);
  size_t next = 0;
  while (next < lens.size()) {
    std::vector<Item> pair[2];
    for (auto& burst : pair) {
      const int64_t user = shape_.Range(0, spec_.n_users - 1);
      for (int64_t k = shape_.Range(spec_.burst_min, spec_.burst_max);
           k > 0 && next < lens.size(); --k) {
        burst.push_back(Candidate(user, lens[next++]));
      }
    }
    for (size_t i = 0; i < std::max(pair[0].size(), pair[1].size()); ++i) {
      for (auto& burst : pair) {
        if (i < burst.size()) {
          items.push_back(std::move(burst[i]));
        }
      }
    }
  }
}

Item InputSource::ProfileFill(int64_t user) { return Candidate(user, spec_.suffix_min); }

void InputSource::ShapeProbes(int n_shapes, int reps, std::vector<Item>& items) {
  const bool shared = spec_.n_users > 0;
  const std::vector<int64_t> lens =
      shared ? Stratified(n_shapes, spec_.suffix_min, spec_.suffix_max)
             : Stratified(n_shapes, spec_.long_min, spec_.long_max);
  for (int s = 0; s < n_shapes; ++s) {
    for (int r = 0; r < reps; ++r) {
      const int64_t len = lens[static_cast<size_t>(s)];
      items.push_back(shared ? Candidate(s % spec_.n_users, len) : Unshared(len));
    }
  }
}

}  // namespace perfbench
