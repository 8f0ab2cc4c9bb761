#include "src/loadgen/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace prefillonly {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-worker measurement shard: merged under a lock only at the end, so the
// hot path touches nothing shared but the dispatch counter.
struct WorkerShard {
  explicit WorkerShard(int histogram_bits) : latency(histogram_bits) {}
  LatencyHistogram latency;
  int64_t dispatched = 0;
  int64_t measured = 0;
  int64_t ok = 0;
  int64_t errors = 0;
  int64_t shed = 0;
  int64_t terminal = 0;  // all results observed, warmup included
  double last_result_s = 0.0;  // latest measured terminal result, since t0
  double first_error_at_s = -1.0;
  std::string first_error;
};

int64_t TerminalDelta(const ClientStats& before, const ClientStats& after) {
  return (after.completed - before.completed) + (after.failed - before.failed) +
         (after.cancelled - before.cancelled) +
         (after.cancelled_in_flight - before.cancelled_in_flight) +
         (after.deadline_expired - before.deadline_expired) +
         (after.deadline_expired_in_flight - before.deadline_expired_in_flight);
}

}  // namespace

bool RunReport::BalanceOk() const {
  return stats_after.submitted - stats_before.submitted ==
         TerminalDelta(stats_before, stats_after);
}

RunReport RunLoad(LoadTarget& target, const std::vector<LoadItem>& items,
                  const std::vector<double>& schedule, const RunOptions& options) {
  RunReport report;
  report.latency = LatencyHistogram(options.histogram_bits);
  report.stats_before = target.Stats();
  const size_t n = std::min(items.size(), schedule.size());
  if (n == 0) {
    report.stats_after = report.stats_before;
    return report;
  }

  const int concurrency =
      std::max(1, std::min<int>(options.concurrency, static_cast<int>(n)));
  std::atomic<size_t> next{0};
  std::vector<WorkerShard> shards;
  shards.reserve(static_cast<size_t>(concurrency));
  for (int i = 0; i < concurrency; ++i) {
    shards.emplace_back(options.histogram_bits);
  }

  // Cap the warmup window at half the schedule span: with a short schedule
  // (few items at a high rate) a fixed wall-clock warmup would otherwise
  // swallow every request and leave nothing measured.
  const double warmup_s = std::min(options.warmup_s, 0.5 * schedule.back());

  const Clock::time_point t0 = Clock::now();
  auto worker = [&](WorkerShard& shard) {
    ScoreOptions score_options;
    score_options.priority = options.priority;
    score_options.deadline_ms = options.deadline_ms;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      const double scheduled = schedule[i];
      const auto send_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(scheduled));
      std::this_thread::sleep_until(send_at);
      const LoadItem& item = items[i];
      score_options.user_id = item.user_id;
      ++shard.dispatched;
      ScoreResult result = target.Score(item.tokens, options.allowed, score_options);
      // Open-loop latency: completion minus SCHEDULED send. If this worker
      // was late to fire (all workers busy), that lateness is server-induced
      // queueing and belongs in the number.
      const double done_s = SecondsSince(t0);
      const double latency_s = done_s - scheduled;
      ++shard.terminal;
      if (scheduled >= warmup_s) {
        ++shard.measured;
        shard.last_result_s = std::max(shard.last_result_s, done_s);
        shard.latency.Record(latency_s);
        if (result.ok) {
          ++shard.ok;
        } else {
          ++shard.errors;
          if (result.error_code == "resource_exhausted") {
            ++shard.shed;
          }
          if (shard.first_error_at_s < 0.0) {
            shard.first_error_at_s = scheduled;
            shard.first_error = result.error_code + ": " + result.error_message;
          }
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(concurrency));
  for (int i = 0; i < concurrency; ++i) {
    threads.emplace_back(worker, std::ref(shards[static_cast<size_t>(i)]));
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  report.stats_after = target.Stats();

  int64_t terminal = 0;
  double last_result_s = 0.0;
  for (WorkerShard& shard : shards) {
    last_result_s = std::max(last_result_s, shard.last_result_s);
    report.dispatched += shard.dispatched;
    report.measured += shard.measured;
    report.ok += shard.ok;
    report.errors += shard.errors;
    report.shed += shard.shed;
    terminal += shard.terminal;
    (void)report.latency.Merge(shard.latency);
    if (shard.first_error_at_s >= 0.0 &&
        (report.first_error_at_s < 0.0 ||
         shard.first_error_at_s < report.first_error_at_s)) {
      report.first_error_at_s = shard.first_error_at_s;
      report.first_error = shard.first_error;
    }
  }
  // Every dispatched request must have produced a terminal result on the
  // calling side; a nonzero difference means a request vanished.
  report.lost = report.dispatched - terminal;

  // The offered rate is over the measured window's scheduled span (the
  // arrival process); the achieved and goodput rates run from the window's
  // first scheduled send to its last result, so a server that falls behind
  // the arrivals shows it instead of being credited with the schedule.
  const double window_start = std::max(warmup_s, schedule.front());
  const double window = std::max(schedule.back() - window_start, 1e-9);
  const double served = std::max(last_result_s - window_start, 1e-9);
  report.offered_qps = static_cast<double>(report.measured) / window;
  report.achieved_qps = static_cast<double>(report.measured) / served;
  report.goodput_qps = static_cast<double>(report.ok) / served;
  report.error_rate =
      report.measured > 0
          ? static_cast<double>(report.errors) / static_cast<double>(report.measured)
          : 0.0;
  return report;
}

bool RunReport::Backlogged() const {
  return achieved_qps < kMinAchievedShare * offered_qps;
}

bool SweepReport::GatePassed() const {
  for (const RatePoint& point : points) {
    if (point.report.lost != 0 || !point.report.BalanceOk()) {
      return false;
    }
  }
  return !points.empty();
}

Json SweepReport::ToJson() const {
  Json::Object out;
  out.emplace("workload", workload);
  out.emplace("target", target);
  out.emplace("n_replicas", static_cast<int64_t>(n_replicas));
  out.emplace("slo_p99_ms", slo_p99_ms);
  Json::Array rows;
  rows.reserve(points.size());
  for (const RatePoint& point : points) {
    const RunReport& r = point.report;
    Json::Object row;
    row.emplace("rate_qps", point.rate);
    row.emplace("offered_qps", r.offered_qps);
    row.emplace("achieved_qps", r.achieved_qps);
    row.emplace("goodput_qps", r.goodput_qps);
    row.emplace("backlogged", r.Backlogged());
    row.emplace("dispatched", r.dispatched);
    row.emplace("measured", r.measured);
    row.emplace("ok", r.ok);
    row.emplace("errors", r.errors);
    row.emplace("shed", r.shed);
    row.emplace("lost", r.lost);
    row.emplace("error_rate", r.error_rate);
    row.emplace("mean_ms", r.latency.Mean() * 1e3);
    row.emplace("p50_ms", r.latency.Percentile(0.50) * 1e3);
    row.emplace("p90_ms", r.latency.Percentile(0.90) * 1e3);
    row.emplace("p99_ms", r.latency.Percentile(0.99) * 1e3);
    row.emplace("p999_ms", r.latency.Percentile(0.999) * 1e3);
    row.emplace("max_ms", r.latency.Max() * 1e3);
    row.emplace("balance_ok", r.BalanceOk());
    rows.push_back(Json(std::move(row)));
  }
  out.emplace("points", Json(std::move(rows)));
  out.emplace("max_qps_slo", max_qps_slo);
  out.emplace("gate_passed", GatePassed());
  return Json(std::move(out));
}

SweepReport RunSweep(LoadTarget& target, const std::string& workload,
                     const std::vector<LoadItem>& items,
                     const SweepOptions& options) {
  SweepReport sweep;
  sweep.workload = workload;
  sweep.target = target.name();
  sweep.slo_p99_ms = options.slo_p99_ms;
  for (size_t rate_index = 0; rate_index < options.rates.size(); ++rate_index) {
    const double rate = options.rates[rate_index];
    ArrivalOptions arrival;
    arrival.kind = options.arrival;
    arrival.qps = rate;
    // Distinct deterministic stream per point: the same sweep always replays
    // the same schedules, but points don't share one arrival pattern.
    arrival.seed = options.seed + rate_index;
    const std::vector<double> schedule = MakeArrivalSchedule(items.size(), arrival);
    RatePoint point;
    point.rate = rate;
    point.report = RunLoad(target, items, schedule, options.run);
    sweep.points.push_back(std::move(point));
  }
  if (options.slo_p99_ms > 0.0) {
    for (const RatePoint& point : sweep.points) {
      const double p99_ms = point.report.latency.Percentile(0.99) * 1e3;
      if (point.report.measured > 0 && p99_ms <= options.slo_p99_ms &&
          point.report.lost == 0 && point.report.BalanceOk() &&
          !point.report.Backlogged()) {
        sweep.max_qps_slo = std::max(sweep.max_qps_slo, point.rate);
      }
    }
  }
  return sweep;
}

}  // namespace prefillonly
