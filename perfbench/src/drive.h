// The serving stack under test and the load that drives it: timed sends on a
// schedule (open loop) or all at once (saturated), completion timestamps, and
// the spans of each request when tracing.
#ifndef PERFBENCH_SRC_DRIVE_H_
#define PERFBENCH_SRC_DRIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workload.h"
#include "src/server/json.h"
#include "src/server/scoring_service.h"

namespace perfbench {

// The real stack: engines behind a ReplicaSet behind the v1 scoring service,
// listening on a loopback port when `listen` is set (traced runs, for the
// server and client layers).
class Stack {
 public:
  Stack(const WorkloadSpec& spec, int nproc, bool listen);

  prefillonly::ScoringService& service() { return *service_; }
  prefillonly::ReplicaSet& set() { return service_->replica_set(); }
  uint16_t port() const { return port_; }
  int threads_per_replica() const { return threads_per_replica_; }
  const prefillonly::EngineOptions& engine_options() const { return engine_; }

 private:
  prefillonly::EngineOptions engine_;
  int threads_per_replica_ = 1;
  std::unique_ptr<prefillonly::ScoringService> service_;
  uint16_t port_ = 0;
};

prefillonly::ScoringRequest ToRequest(const Item& item);

// The v1 /v1/score body of one request.
std::string RequestBody(const Item& item);

// What happened to one request. Times are Now() seconds.
struct Outcome {
  double sched_s = 0.0;  // when it was due to be sent
  double send_s = 0.0;   // when it was sent
  double done_s = 0.0;   // when its result was seen
  bool ok = false;
  std::string error;
  prefillonly::ScoringResponse response;
};

// Fills `out` from one v1 result object; returns an error string when the
// result is malformed or error-shaped.
std::string ParseResult(const prefillonly::Json& result, Outcome& out);

struct PhaseResult {
  std::vector<Outcome> outcomes;  // index-aligned with the phase's items
  double start_s = 0.0;
  // Requests already outstanding (sent, not yet seen done) at each send.
  std::vector<double> depth_at_send;
};

// Sends every request of the phase through ReplicaSet::Submit: request i at
// start + offsets[i], or all at once when `offsets` is empty.
PhaseResult RunPhase(Stack& stack, const std::vector<Item>& items,
                     const std::vector<double>& offsets, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DRIVE_H_
