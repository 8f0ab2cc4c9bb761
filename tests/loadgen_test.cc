// Load-generation subsystem tests (ISSUE 10, src/loadgen/).
//
// Four layers under test:
//   * arrival schedules — seeded determinism (same seed => the same
//     schedule bit for bit, distinct seeds => distinct schedules) and trace
//     replay semantics;
//   * the HDR-style histogram — percentiles against an exact sorted-vector
//     nearest-rank reference, within the documented 2^-b relative bound;
//   * the open-loop runner — zero lost requests and a balanced engine
//     ledger on a real in-process engine;
//   * remote-vs-in-process parity — the same workload through the facade's
//     two transports must yield BITWISE identical scores (the determinism
//     contract riding the shortest-round-trip JSON doubles), with the
//     balance invariant holding on both sides of the wire.
//
// ChaosLoadgenTest (chaos label, CI's chaos job) replays a seeded fault
// schedule across BOTH fault domains at once — a replica hand-off failure
// and a socket-level read blip — under open-loop load against a self-hosted
// server, and checks the books still reconcile with /v1/stats.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/histogram.h"
#include "src/loadgen/runner.h"
#include "src/loadgen/target.h"
#include "src/server/scoring_service.h"
#include "src/workload/dataset.h"

namespace prefillonly {
namespace {

// ----------------------------------------------------------------- arrivals

TEST(LoadgenArrivalTest, PoissonSameSeedSameSchedule) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kPoisson;
  options.qps = 25.0;
  options.seed = 99;
  const auto a = MakeArrivalSchedule(500, options);
  const auto b = MakeArrivalSchedule(500, options);
  ASSERT_EQ(a.size(), 500u);
  // Bit-for-bit replay, not approximate: the whole point of seeding.
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(LoadgenArrivalTest, PoissonDistinctSeedsDiffer) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kPoisson;
  options.qps = 25.0;
  options.seed = 1;
  const auto a = MakeArrivalSchedule(100, options);
  options.seed = 2;
  const auto b = MakeArrivalSchedule(100, options);
  EXPECT_NE(a, b);
}

TEST(LoadgenArrivalTest, PoissonMeanRateApproximatesQps) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kPoisson;
  options.qps = 50.0;
  options.seed = 7;
  const auto schedule = MakeArrivalSchedule(4000, options);
  const double measured_qps =
      static_cast<double>(schedule.size() - 1) / schedule.back();
  EXPECT_NEAR(measured_qps, 50.0, 5.0);  // ~4000 samples: well within 10%
}

TEST(LoadgenArrivalTest, FixedRateIsAMetronome) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kFixedRate;
  options.qps = 10.0;
  const auto schedule = MakeArrivalSchedule(5, options);
  ASSERT_EQ(schedule.size(), 5u);
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_DOUBLE_EQ(schedule[i], static_cast<double>(i) / 10.0);
  }
}

TEST(LoadgenArrivalTest, TraceScheduleShiftsAndRescales) {
  Dataset dataset;
  for (double t : {8.0, 5.0, 6.0}) {  // deliberately unsorted
    SimRequest request;
    request.arrival_time = t;
    dataset.requests.push_back(request);
  }
  const auto verbatim = TraceSchedule(dataset);
  ASSERT_EQ(verbatim.size(), 3u);
  EXPECT_DOUBLE_EQ(verbatim[0], 0.0);
  EXPECT_DOUBLE_EQ(verbatim[1], 1.0);
  EXPECT_DOUBLE_EQ(verbatim[2], 3.0);

  // 3 requests over 3 s = 1 QPS; asking for 2 QPS halves every offset,
  // preserving the relative burst structure.
  const auto rescaled = TraceSchedule(dataset, 2.0);
  EXPECT_DOUBLE_EQ(rescaled[1], 0.5);
  EXPECT_DOUBLE_EQ(rescaled[2], 1.5);
}

TEST(LoadgenArrivalTest, TraceReplayOfUserBurstsIsDeterministic) {
  Dataset a = MakePostRecommendationDataset(ScaledPostRecommendationConfig());
  AssignUserBurstArrivals(a, 40.0, /*seed=*/5);
  Dataset b = MakePostRecommendationDataset(ScaledPostRecommendationConfig());
  AssignUserBurstArrivals(b, 40.0, /*seed=*/5);
  EXPECT_EQ(TraceSchedule(a), TraceSchedule(b));
}

// ---------------------------------------------------------------- histogram

// Exact nearest-rank percentile over a sorted copy — the reference the
// histogram's bounded-error answer is checked against.
double NearestRankMicros(std::vector<int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(values.size())))));
  return static_cast<double>(values[rank - 1]);
}

TEST(LoadgenHistogramTest, PercentilesWithinDocumentedBound) {
  LatencyHistogram histogram(6);
  EXPECT_DOUBLE_EQ(histogram.MaxRelativeError(), 1.0 / 64.0);

  // Latencies spanning five orders of magnitude (0.1 ms .. multiple
  // seconds), heavy-tailed like a saturating server.
  Rng rng(42);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const double magnitude = std::pow(10.0, 2.0 + 4.0 * rng.NextDouble());
    const int64_t micros = static_cast<int64_t>(magnitude);
    values.push_back(micros);
    histogram.RecordMicros(micros);
  }
  ASSERT_EQ(histogram.count(), 20000);

  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double reference = NearestRankMicros(values, q);
    const double reported = histogram.Percentile(q) * 1e6;
    // The documented contract: relative error <= 2^-b (plus half a micro
    // for the integer bucket midpoint).
    EXPECT_NEAR(reported, reference,
                reference * histogram.MaxRelativeError() + 0.5)
        << "q=" << q;
  }
  const double mean_reference =
      static_cast<double>(std::accumulate(values.begin(), values.end(),
                                          int64_t{0})) /
      static_cast<double>(values.size());
  // The mean is tracked exactly, no bucket error at all.
  EXPECT_DOUBLE_EQ(histogram.Mean() * 1e6, mean_reference);
  EXPECT_DOUBLE_EQ(histogram.Min() * 1e6,
                   static_cast<double>(*std::min_element(values.begin(), values.end())));
  EXPECT_DOUBLE_EQ(histogram.Max() * 1e6,
                   static_cast<double>(*std::max_element(values.begin(), values.end())));
}

TEST(LoadgenHistogramTest, SmallValuesAreExact) {
  LatencyHistogram histogram(6);
  for (int64_t v : {0, 1, 5, 17, 63}) {  // all below 2^6: the exact region
    histogram.RecordMicros(v);
  }
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0) * 1e6, 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0) * 1e6, 63.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5) * 1e6, 5.0);
}

TEST(LoadgenHistogramTest, MergeMatchesSingleRecorder) {
  LatencyHistogram merged(6);
  LatencyHistogram single(6);
  std::vector<LatencyHistogram> shards(4, LatencyHistogram(6));
  Rng rng(7);
  for (int i = 0; i < 8000; ++i) {
    const int64_t micros = static_cast<int64_t>(rng.NextBounded(5'000'000));
    single.RecordMicros(micros);
    shards[static_cast<size_t>(i) % shards.size()].RecordMicros(micros);
  }
  for (const LatencyHistogram& shard : shards) {
    ASSERT_TRUE(merged.Merge(shard).ok());
  }
  EXPECT_EQ(merged.count(), single.count());
  EXPECT_DOUBLE_EQ(merged.Mean(), single.Mean());
  EXPECT_DOUBLE_EQ(merged.Min(), single.Min());
  EXPECT_DOUBLE_EQ(merged.Max(), single.Max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(q), single.Percentile(q)) << "q=" << q;
  }
}

TEST(LoadgenHistogramTest, MergeRejectsMismatchedResolution) {
  LatencyHistogram coarse(4);
  LatencyHistogram fine(8);
  EXPECT_EQ(coarse.Merge(fine).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- runner

std::vector<LoadItem> ScaledPostRecItems(size_t max_items = 0) {
  Dataset dataset =
      MakePostRecommendationDataset(ScaledPostRecommendationConfig());
  std::vector<LoadItem> items;
  for (SimRequest& request : dataset.requests) {
    LoadItem item;
    item.tokens = std::move(request.tokens);
    item.user_id = request.user_id;
    items.push_back(std::move(item));
  }
  if (max_items > 0 && items.size() > max_items) {
    items.resize(max_items);
  }
  return items;
}

std::vector<LoadItem> ScaledCreditItems(size_t max_items) {
  Dataset dataset = MakeCreditVerificationDataset(ScaledCreditVerificationConfig(1));
  std::vector<LoadItem> items;
  for (SimRequest& request : dataset.requests) {
    LoadItem item;
    item.tokens = std::move(request.tokens);
    item.user_id = request.user_id;
    items.push_back(std::move(item));
  }
  items.resize(std::min(items.size(), max_items));
  return items;
}

ClientOptions TinyClientOptions(int n_replicas = 1) {
  ClientOptions options;
  options.model = "tiny";
  options.max_concurrent_requests = 2;
  options.max_batch_size = 4;
  options.n_replicas = n_replicas;
  return options;
}

TEST(LoadgenRunnerTest, OpenLoopRunLosesNothingAndBalances) {
  auto target = MakeInProcessTarget(TinyClientOptions());
  const auto items = ScaledPostRecItems(24);

  ArrivalOptions arrival;
  arrival.kind = ArrivalKind::kPoisson;
  arrival.qps = 120.0;
  arrival.seed = 3;
  RunOptions options;
  options.concurrency = 4;
  options.allowed = {7, 9};
  const RunReport report =
      RunLoad(*target, items, MakeArrivalSchedule(items.size(), arrival), options);

  EXPECT_EQ(report.dispatched, static_cast<int64_t>(items.size()));
  EXPECT_EQ(report.lost, 0);
  EXPECT_EQ(report.measured, report.ok + report.errors);
  EXPECT_EQ(report.errors, 0) << report.first_error;
  EXPECT_TRUE(report.BalanceOk());
  EXPECT_EQ(report.latency.count(), report.measured);
  EXPECT_GT(report.latency.Percentile(0.99), 0.0);
  EXPECT_GE(report.latency.Percentile(0.99), report.latency.Percentile(0.50));
}

TEST(LoadgenRunnerTest, SweepReportsGateAndSloCurve) {
  auto target = MakeInProcessTarget(TinyClientOptions());
  const auto items = ScaledPostRecItems(16);

  SweepOptions options;
  // Both rates stay below what the tiny engine serves even in sanitizer
  // builds or beside other tests on a loaded host, so neither point ends
  // with a backlog.
  options.rates = {10.0, 20.0};
  options.seed = 11;
  options.slo_p99_ms = 60000.0;  // generous: every point should attain it
  options.run.concurrency = 4;
  options.run.allowed = {7, 9};
  const SweepReport sweep = RunSweep(*target, "post-rec", items, options);

  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_TRUE(sweep.GatePassed());
  EXPECT_DOUBLE_EQ(sweep.max_qps_slo, 20.0);

  const Json json = sweep.ToJson();
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.Find("workload")->AsString(), "post-rec");
  EXPECT_EQ(json.Find("target")->AsString(), "inprocess");
  EXPECT_TRUE(json.Find("gate_passed")->AsBool());
  const Json* points = json.Find("points");
  ASSERT_TRUE(points != nullptr && points->is_array());
  for (const Json& point : points->AsArray()) {
    for (const char* key : {"rate_qps", "p99_ms", "mean_ms", "goodput_qps",
                            "lost", "shed", "balance_ok"}) {
      EXPECT_NE(point.Find(key), nullptr) << key;
    }
    EXPECT_EQ(point.Find("lost")->AsInt(), 0);
  }
}

TEST(LoadgenRunnerTest, SaturatedRatesSpanTheLastResultAndFailTheBacklogTest) {
  // Regression: achieved and goodput rates were divided by the SCHEDULED
  // span, so they equalled the offered rate whenever nothing failed, even
  // far past saturation: credit on one replica at 2000 req/s reported
  // goodput near the offered rate and max_qps_slo = 2000.
  auto target = MakeInProcessTarget(TinyClientOptions());
  const auto items = ScaledCreditItems(12);
  ASSERT_EQ(items.size(), 12u);

  SweepOptions options;
  options.rates = {2000.0};
  options.slo_p99_ms = 60000.0;  // latency alone cannot disqualify the point
  options.run.concurrency = 4;
  options.run.allowed = {7, 9};
  const SweepReport sweep = RunSweep(*target, "credit", items, options);

  ASSERT_EQ(sweep.points.size(), 1u);
  const RunReport& report = sweep.points[0].report;
  EXPECT_EQ(report.errors, 0) << report.first_error;
  EXPECT_DOUBLE_EQ(report.achieved_qps, report.goodput_qps);
  EXPECT_LT(report.goodput_qps, 0.5 * report.offered_qps);
  EXPECT_TRUE(report.Backlogged());
  EXPECT_DOUBLE_EQ(sweep.max_qps_slo, 0.0);
  // The CI gate is about losing nothing, not about keeping up: it holds.
  EXPECT_TRUE(sweep.GatePassed());
}

// ------------------------------------------------------------------- parity

TEST(RemoteParityTest, RemoteAndInProcessScoresAreBitwiseIdentical) {
  // One engine configuration, two transports.
  EngineOptions engine_options;
  engine_options.model = ModelConfig::Tiny();
  engine_options.max_concurrent_requests = 2;
  engine_options.max_batch_size = 4;
  ScoringService service(engine_options);
  ASSERT_TRUE(service.Start(0).ok());

  auto inprocess = MakeInProcessTarget(TinyClientOptions());
  ClientOptions remote_options;
  remote_options.model = "tiny";
  auto remote = MakeRemoteTarget("127.0.0.1:" + std::to_string(service.port()),
                                 remote_options);

  const auto items = ScaledPostRecItems(12);
  ScoreOptions score_options;
  const ClientStats remote_before = remote->Stats();
  for (const LoadItem& item : items) {
    score_options.user_id = item.user_id;
    const ScoreResult local = inprocess->Score(item.tokens, {7, 9}, score_options);
    const ScoreResult wire = remote->Score(item.tokens, {7, 9}, score_options);
    ASSERT_TRUE(local.ok) << local.error_message;
    ASSERT_TRUE(wire.ok) << wire.error_message;
    // BITWISE equality across the HTTP boundary: deterministic engine plus
    // shortest-round-trip JSON doubles. EXPECT_EQ on doubles, not NEAR.
    EXPECT_EQ(local.score, wire.score);
    ASSERT_EQ(local.probabilities.size(), wire.probabilities.size());
    for (size_t i = 0; i < local.probabilities.size(); ++i) {
      EXPECT_EQ(local.probabilities[i].token, wire.probabilities[i].token);
      EXPECT_EQ(local.probabilities[i].probability,
                wire.probabilities[i].probability);
    }
    EXPECT_EQ(local.n_input, wire.n_input);
  }

  // The balance invariant holds on both sides of the wire.
  const ClientStats local_stats = inprocess->Stats();
  EXPECT_EQ(local_stats.submitted,
            local_stats.completed + local_stats.failed + local_stats.cancelled +
                local_stats.cancelled_in_flight + local_stats.deadline_expired +
                local_stats.deadline_expired_in_flight);
  const ClientStats remote_after = remote->Stats();
  EXPECT_EQ(remote_after.submitted - remote_before.submitted,
            static_cast<int64_t>(items.size()));
  EXPECT_EQ(remote_after.submitted - remote_before.submitted,
            (remote_after.completed - remote_before.completed) +
                (remote_after.failed - remote_before.failed));
  service.Stop();
}

TEST(RemoteParityTest, ErrorCodesCrossTheWireUnchanged) {
  EngineOptions engine_options;
  engine_options.model = ModelConfig::Tiny();
  ScoringService service(engine_options);
  ASSERT_TRUE(service.Start(0).ok());
  ClientOptions remote_options;
  remote_options.model = "tiny";
  auto remote = MakeRemoteTarget("127.0.0.1:" + std::to_string(service.port()),
                                 remote_options);

  // Out-of-vocabulary token: 400 on the wire, "invalid_argument" here —
  // exactly what the in-process engine reports.
  ScoreResult result = remote->Score({100000}, {7}, {});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "invalid_argument");

  // Already-expired deadline: 504 on the wire, "deadline_exceeded" here.
  ScoreOptions expired;
  expired.deadline_ms = 0;
  result = remote->Score({1, 2, 3}, {7}, expired);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "deadline_exceeded");
  service.Stop();
}

TEST(RemoteParityTest, RemoteTargetToDeadEndpointIsUnavailable) {
  uint16_t free_port = 0;
  {
    EngineOptions engine_options;
    engine_options.model = ModelConfig::Tiny();
    ScoringService probe(engine_options);
    ASSERT_TRUE(probe.Start(0).ok());
    free_port = probe.port();
    probe.Stop();
  }
  ClientOptions remote_options;
  remote_options.model = "tiny";
  auto remote = MakeRemoteTarget("127.0.0.1:" + std::to_string(free_port),
                                 remote_options);
  const ScoreResult result = remote->Score({1, 2, 3}, {7}, {});
  EXPECT_FALSE(result.ok);
  // The transient class the RetryPolicy understands, same as a drained
  // in-process cluster.
  EXPECT_EQ(result.error_code, "unavailable");
}

// -------------------------------------------------------------------- chaos

// Both fault domains at once under open-loop load: the FIRST replica
// hand-off fails (cluster must fail over or surface a retryable error) and
// an early server-side socket read takes a transient EINTR (the read loop
// must absorb it). The books must still reconcile with /v1/stats.
TEST(ChaosLoadgenTest, FaultsUnderLoadReconcileWithServerStats) {
  EngineOptions engine_options;
  engine_options.model = ModelConfig::Tiny();
  engine_options.max_concurrent_requests = 2;
  ScoringServiceOptions service_options;
  service_options.cluster.n_replicas = 2;
  ScoringService service(engine_options, service_options);
  ASSERT_TRUE(service.Start(0).ok());

  ClientOptions remote_options;
  remote_options.model = "tiny";
  remote_options.retry.max_retries = 2;
  remote_options.retry.initial_backoff_ms = 5;
  remote_options.retry.retry_after_floor_ms = 10;
  auto remote = MakeRemoteTarget("127.0.0.1:" + std::to_string(service.port()),
                                 remote_options);

  const auto items = ScaledPostRecItems(24);
  ArrivalOptions arrival;
  arrival.kind = ArrivalKind::kPoisson;
  arrival.qps = 150.0;
  arrival.seed = 13;
  RunOptions run_options;
  run_options.concurrency = 4;
  run_options.allowed = {7, 9};

  RunReport report;
  int64_t fires = 0;
  {
    FaultScope scope("seed=7;replica.submit=@1;socket.recv=@2");
    report = RunLoad(*remote, items, MakeArrivalSchedule(items.size(), arrival),
                     run_options);
    fires = FaultInjector::Global().total_fires();
  }

  // The chaos contract: faults really fired, yet no request vanished and
  // the server's ledger (read back over /v1/stats) still balances.
  EXPECT_GE(fires, 1);
  EXPECT_EQ(report.dispatched, static_cast<int64_t>(items.size()));
  EXPECT_EQ(report.lost, 0);
  EXPECT_EQ(report.measured, report.ok + report.errors);
  EXPECT_TRUE(report.BalanceOk())
      << "submitted delta "
      << report.stats_after.submitted - report.stats_before.submitted;
  // Every client-side success required a successful engine submission, so
  // the server-side ledger must cover at least the successes (retries and
  // failures only add to it).
  EXPECT_GE(report.stats_after.submitted - report.stats_before.submitted,
            report.ok);
  EXPECT_GT(report.ok, 0);
  service.Stop();
}

}  // namespace
}  // namespace prefillonly
