// Serving-plane observability: counters, latency percentiles, and the
// periodic JSON dump.
//
// The simulator's RunMetrics measures one run from the inside (rounds,
// bits); ServiceMetrics measures the daemon from the outside — request
// rates, cache effectiveness, queue pressure, tail latency, worker
// utilization.  STATS replies and the JSON metrics file are two views of
// the same StatsReply snapshot, so dashboards and clients can never
// disagree.
//
// Not internally synchronized: the daemon mutates it under its scheduler
// mutex (see cache.hpp for the rationale).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "service/protocol.hpp"

namespace congestbc::service {

class ServiceMetrics {
 public:
  ServiceMetrics() : start_(std::chrono::steady_clock::now()) {}

  /// The counters the daemon bumps directly, kept in the StatsReply
  /// they are served in; snapshot() adds the fields only this class
  /// knows, and the daemon fills in the live gauges.
  StatsReply counters;

  // Whole-life histograms behind the /metrics endpoint (the percentile
  // window above describes recent behavior; these never forget).
  obs::Histogram latency_ms_hist;
  obs::Histogram job_rounds_hist;
  /// Simulated rounds per wall-second of one job — the per-job round
  /// throughput the /metrics endpoint exposes.
  obs::Histogram round_throughput_hist;

  /// Submit-to-terminal latency of one finished job.  Keeps the most
  /// recent kLatencyWindow samples (ring buffer): percentiles describe
  /// recent behavior, not the daemon's whole life.  Also feeds
  /// latency_ms_hist.
  void record_latency_ms(double ms);

  /// Round count + throughput of one terminal job that actually ran.
  void record_job_rounds(std::uint64_t rounds, double latency_ms);

  /// Interpolated percentile over the retained window; 0 when empty.
  /// p in [0, 100].
  double latency_percentile(double p) const;

  std::uint64_t uptime_ms() const;

  /// `counters` plus the uptime, qps and latency percentiles.
  StatsReply snapshot() const;

  static constexpr std::size_t kLatencyWindow = 4096;

 private:
  std::chrono::steady_clock::time_point start_;
  std::vector<double> latencies_;  ///< ring buffer, kLatencyWindow cap
  std::size_t latency_next_ = 0;
  bool latency_full_ = false;
};

/// The StatsReply as a JSON object (core/report_json.hpp writer) — the
/// payload of the daemon's --metrics-file dump.
std::string to_json(const StatsReply& stats);

/// The same snapshot (plus the whole-life histograms) as a Prometheus
/// text-format (0.0.4) page — the body of the daemon's GET /metrics
/// reply.  Deterministic for fixed inputs (golden-tested).
std::string prometheus_text(const StatsReply& stats,
                            const obs::Histogram& latency_ms,
                            const obs::Histogram& job_rounds,
                            const obs::Histogram& round_throughput);

}  // namespace congestbc::service
