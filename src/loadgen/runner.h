// Open-loop load runner and QPS-sweep driver (ISSUE 10).
//
// RunLoad() fires one workload through one LoadTarget on one precomputed
// arrival schedule and measures it the open-loop way:
//
//   * A pool of workers pulls request indices from a shared counter and
//     sleeps until each request's SCHEDULED send time. Latency is measured
//     from the scheduled time, not the actual send — if every worker is
//     stuck waiting on a saturated server, the requests piling up behind
//     them get charged that delay (coordinated-omission-free, wrk2-style).
//     The worker-pool size bounds in-flight requests, not the offered rate.
//   * Requests scheduled inside the warmup window execute normally but are
//     excluded from the histogram and rate accounting, so cold caches and
//     first-touch page faults don't pollute the tail.
//   * Every dispatched request must come back with a terminal result, and
//     the engine-side stats delta must balance (submitted == sum of
//     terminal buckets) — the runner carries both checks in its report and
//     the po_loadgen gate fails the run otherwise.
//
// RunSweep() repeats RunLoad() across a rate grid and reduces the points to
// the SLO-attainment curve: the highest offered rate whose measured p99 is
// within the target (the paper's "max QPS sustaining p99 <= D ms" framing,
// Fig. 6/7 turned into a pass/fail capacity number).
#ifndef SRC_LOADGEN_RUNNER_H_
#define SRC_LOADGEN_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/loadgen/arrival.h"
#include "src/loadgen/histogram.h"
#include "src/loadgen/target.h"
#include "src/server/json.h"

namespace prefillonly {

// One request of the workload under test (tokens + originating user for
// affinity routing); `allowed` and per-request options are shared run-wide.
struct LoadItem {
  std::vector<int32_t> tokens;
  int64_t user_id = 0;
};

struct RunOptions {
  // Requests scheduled before this offset are excluded from measurement.
  // Capped at half the schedule span so a short schedule still measures.
  double warmup_s = 0.0;
  // Worker threads = max in-flight requests (the open-loop schedule still
  // sets the offered rate).
  int concurrency = 8;
  int histogram_bits = 6;
  std::vector<int32_t> allowed;  // shared allowed-token list
  int32_t priority = 0;
  int64_t deadline_ms = -1;
};

struct RunReport {
  // offered: measured requests / their scheduled span. achieved, goodput:
  // measured terminal / successful results over the span from the first
  // measured scheduled send to the last measured result.
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double goodput_qps = 0.0;
  int64_t dispatched = 0;     // total requests sent (warmup included)
  int64_t measured = 0;       // results in the measured window
  int64_t ok = 0;             // successful, measured window
  int64_t errors = 0;         // failed, measured window
  int64_t shed = 0;           // subset of errors with code resource_exhausted
  // dispatched - (terminal results over the whole run); the zero-lost gate.
  int64_t lost = 0;
  double error_rate = 0.0;    // errors / measured
  LatencyHistogram latency{6};  // measured window only
  double first_error_at_s = -1.0;  // -1 = no errors
  std::string first_error;    // code: message of the first failure
  // Engine-side counter snapshots bracketing the run.
  ClientStats stats_before;
  ClientStats stats_after;

  // Engine-side balance: delta submitted == delta of the six terminal
  // buckets (completed/failed/cancelled/cancelled_in_flight/
  // deadline_expired/deadline_expired_in_flight).
  bool BalanceOk() const;
  // The target fell behind the arrivals: achieved_qps below
  // kMinAchievedShare of offered_qps, so the run ended with a backlog.
  static constexpr double kMinAchievedShare = 0.8;
  bool Backlogged() const;
};

RunReport RunLoad(LoadTarget& target, const std::vector<LoadItem>& items,
                  const std::vector<double>& schedule, const RunOptions& options);

struct SweepOptions {
  std::vector<double> rates;  // offered QPS per point
  ArrivalKind arrival = ArrivalKind::kPoisson;
  uint64_t seed = 1;
  double slo_p99_ms = 0.0;  // <= 0: no SLO reduction
  RunOptions run;
};

struct RatePoint {
  double rate = 0.0;
  RunReport report;
};

struct SweepReport {
  std::string workload;
  std::string target;
  int n_replicas = 1;
  double slo_p99_ms = 0.0;
  std::vector<RatePoint> points;
  // Highest offered rate with p99 within the SLO, zero lost requests, a
  // balanced ledger and no backlog; 0 when no point qualifies (or no SLO
  // was set).
  double max_qps_slo = 0.0;

  // Zero lost requests and a balanced engine ledger at EVERY rate — the
  // po_loadgen acceptance gate.
  bool GatePassed() const;
  Json ToJson() const;
};

SweepReport RunSweep(LoadTarget& target, const std::string& workload,
                     const std::vector<LoadItem>& items,
                     const SweepOptions& options);

}  // namespace prefillonly

#endif  // SRC_LOADGEN_RUNNER_H_
