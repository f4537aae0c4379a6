#include "service/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "core/report_json.hpp"
#include "obs/prom_text.hpp"

namespace congestbc::service {

void ServiceMetrics::record_latency_ms(double ms) {
  latency_ms_hist.add(static_cast<std::uint64_t>(ms < 0.0 ? 0.0 : ms));
  if (latencies_.size() < kLatencyWindow) {
    latencies_.push_back(ms);
    latency_next_ = latencies_.size() % kLatencyWindow;
    latency_full_ = latencies_.size() == kLatencyWindow;
    return;
  }
  latencies_[latency_next_] = ms;
  latency_next_ = (latency_next_ + 1) % kLatencyWindow;
}

namespace {

/// Percentile p of n samples: linear interpolation between the two
/// order statistics bracketing rank p/100 * (n - 1).
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(double p, std::size_t n) {
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

double interpolate(double low, double high, double frac) {
  return low + (high - low) * frac;
}

}  // namespace

double ServiceMetrics::latency_percentile(double p) const {
  if (latencies_.empty()) {
    return 0.0;
  }
  // Selects the two order statistics instead of sorting the window: the
  // daemon asks under its scheduler mutex on every auto or deadline
  // SUBMIT.
  std::vector<double> window = latencies_;
  const Rank r = rank_of(p, window.size());
  const auto lo = window.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(window.begin(), lo, window.end());
  const double high =
      r.hi == r.lo ? *lo : *std::min_element(lo + 1, window.end());
  return interpolate(*lo, high, r.frac);
}

void ServiceMetrics::record_job_rounds(std::uint64_t rounds,
                                       double latency_ms) {
  job_rounds_hist.add(rounds);
  // Sub-millisecond jobs round up to 1 ms so the throughput stays finite
  // (and conservative) instead of exploding.
  const double ms = latency_ms < 1.0 ? 1.0 : latency_ms;
  round_throughput_hist.add(
      static_cast<std::uint64_t>(static_cast<double>(rounds) * 1000.0 / ms));
}

std::uint64_t ServiceMetrics::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

StatsReply ServiceMetrics::snapshot() const {
  StatsReply s = counters;
  s.uptime_ms = uptime_ms();
  s.qps = s.uptime_ms == 0 ? 0.0
                           : static_cast<double>(s.submits) * 1000.0 /
                                 static_cast<double>(s.uptime_ms);
  // One sorted copy serves all three percentiles.
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  const auto percentile = [&sorted](double p) {
    if (sorted.empty()) {
      return 0.0;
    }
    const Rank r = rank_of(p, sorted.size());
    return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
  };
  s.latency_p50_ms = percentile(50.0);
  s.latency_p90_ms = percentile(90.0);
  s.latency_p99_ms = percentile(99.0);
  return s;
}

namespace {

/// The text views list the integer fields first, then the floating-point
/// gauges (the append-only STATS wire body has the v4-v6 counters after
/// the gauges).
template <class F>
void for_each_text_field(F&& f) {
  for (const bool real : {false, true}) {
    for (const StatsField& field : kStatsFields) {
      if ((field.real != nullptr) == real) {
        f(field);
      }
    }
  }
}

}  // namespace

std::string to_json(const StatsReply& stats) {
  JsonWriter w;
  w.begin_object();
  for_each_text_field([&](const StatsField& field) {
    field.visit([&](auto member) { w.key(field.name).value(stats.*member); });
    if (field.count == &StatsReply::cache_misses) {
      const std::uint64_t lookups = stats.cache_hits + stats.cache_misses;
      w.key("cache_hit_rate")
          .value(lookups == 0 ? 0.0
                              : static_cast<double>(stats.cache_hits) /
                                    static_cast<double>(lookups));
    }
  });
  w.end_object();
  return w.str();
}

std::string prometheus_text(const StatsReply& stats,
                            const obs::Histogram& latency_ms,
                            const obs::Histogram& job_rounds,
                            const obs::Histogram& round_throughput) {
  obs::PromWriter w;
  for_each_text_field([&](const StatsField& field) {
    field.visit([&](auto member) {
      if (field.kind == StatsField::kGauge) {
        w.gauge(field.prom_name, field.help,
                static_cast<double>(stats.*member));
      } else {
        w.counter(field.prom_name, field.help,
                  static_cast<std::uint64_t>(stats.*member));
      }
    });
  });
  w.histogram("congestbcd_job_latency_ms",
              "Submit-to-terminal latency of terminal jobs (ms)", latency_ms);
  w.histogram("congestbcd_job_rounds",
              "Simulated CONGEST rounds per executed job", job_rounds);
  w.histogram("congestbcd_job_round_throughput",
              "Simulated rounds per wall-second per executed job",
              round_throughput);
  return w.str();
}

}  // namespace congestbc::service
