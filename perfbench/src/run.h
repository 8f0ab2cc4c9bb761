// State of one benchmark run shared by the phases (main.cc) and the traced
// per-layer measurements (layers.cc).
#ifndef PERFBENCH_SRC_RUN_H_
#define PERFBENCH_SRC_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/drive.h"
#include "perfbench/src/workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Run {
  WorkloadSpec spec;
  uint64_t seed = 0;
  int seconds = 0;
  int nproc = 1;
  Tracer tracer{false};
  Checker checker;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Checks and counts every outcome of a phase (see main.cc).
  void Account(const std::vector<Item>& items, const PhaseResult& phase);
  // Plain-path agreement sample: up to two served results per shape (prompt
  // kind, prefix hit or miss, solo or batched), drawn with a seeded
  // reservoir.
  struct Served {
    Item item;
    prefillonly::ScoringResponse response;
  };
  std::vector<std::vector<Served>> reservoir;
  std::vector<int64_t> reservoir_seen;
  Rng sample_rng{0};
};

// The measured open-loop chunks, pooled, kept for the per-layer report.
struct OpenLoop {
  std::vector<Item> items;
  PhaseResult phase;

  void Append(std::vector<Item> more_items, PhaseResult more) {
    for (Item& item : more_items) items.push_back(std::move(item));
    for (Outcome& o : more.outcomes) phase.outcomes.push_back(std::move(o));
    phase.depth_at_send.insert(phase.depth_at_send.end(), more.depth_at_send.begin(),
                               more.depth_at_send.end());
  }
};

// The traced run's per-layer metrics (layers.cc). `m0`/`m1` bracket the
// measured phases.
void MeasureLayers(Run& run, Stack& stack, InputSource& source,
                   const OpenLoop& open, const prefillonly::ClusterStats& m0,
                   const prefillonly::ClusterStats& m1, std::vector<Metric>& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUN_H_
