// Observability layer (src/obs): unit tests for the flight recorder,
// scoped spans, histograms, phase profiles, and the exporters — plus the
// contract that matters most: recording is pure observation, so results,
// metrics, and message traces are bit-identical with the recorder on or
// off, on both engines, at every thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "congest/trace.hpp"
#include "graph/generators.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/phase_profile.hpp"
#include "obs/prom_text.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace congestbc {
namespace {

// ---------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  obs::FlightRecorder recorder(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.record(obs::Phase::kLaneDispatch, i, 0, 100 * i, 10);
  }
  EXPECT_EQ(recorder.recorded(), 5u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].round, i);
    EXPECT_EQ(events[i].start_ns, 100 * i);
    EXPECT_EQ(events[i].duration_ns, 10u);
    EXPECT_EQ(events[i].phase, obs::Phase::kLaneDispatch);
  }
}

TEST(FlightRecorderTest, WrapsKeepingNewest) {
  obs::FlightRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.record(obs::Phase::kMerge, i, 0, i, 1);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the survivors: rounds 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].round, 6 + i);
  }
}

TEST(FlightRecorderTest, ClearResets) {
  obs::FlightRecorder recorder(4);
  recorder.record(obs::Phase::kRound, 1, 0, 0, 1);
  recorder.clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorderTest, ConcurrentWritersAreSafe) {
  // Lanes hammer the ring concurrently; the test asserts no crashes/races
  // (run under TSan via scripts/check_sanitized.sh) and a full ring.
  obs::FlightRecorder recorder(1 << 10);
  std::vector<std::thread> writers;
  for (unsigned lane = 0; lane < 4; ++lane) {
    writers.emplace_back([&recorder, lane] {
      for (std::uint64_t i = 0; i < 5000; ++i) {
        recorder.record(obs::Phase::kLaneDispatch, i, lane, i, 1);
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_EQ(recorder.recorded(), 20000u);
  EXPECT_EQ(recorder.snapshot().size(), recorder.capacity());
}

TEST(ScopedSpanTest, NullRecorderIsNoop) {
  obs::ScopedSpan span(nullptr, obs::Phase::kMerge, 1);
  // Nothing to assert beyond "does not crash"; the disabled-build variant
  // compiles to the same no-op.
}

TEST(ScopedSpanTest, RecordsOnDestruction) {
  obs::FlightRecorder recorder(8);
  {
    obs::ScopedSpan span(&recorder, obs::Phase::kActiveSetBuild, 7, 3);
  }
#if !defined(CONGESTBC_OBS_DISABLED)
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, obs::Phase::kActiveSetBuild);
  EXPECT_EQ(events[0].round, 7u);
  EXPECT_EQ(events[0].lane, 3u);
#endif
}

TEST(PhaseTest, NamesAreStable) {
  EXPECT_STREQ(obs::phase_name(obs::Phase::kCrashBookkeeping),
               "crash_bookkeeping");
  EXPECT_STREQ(obs::phase_name(obs::Phase::kDelayedRelease),
               "delayed_release");
  EXPECT_STREQ(obs::phase_name(obs::Phase::kMerge), "merge");
  EXPECT_STREQ(obs::phase_name(obs::Phase::kRound), "round");
  EXPECT_STREQ(obs::phase_name(obs::Phase::kActiveSetBuild),
               "active_set_build");
  EXPECT_STREQ(obs::phase_name(obs::Phase::kLaneDispatch), "lane_dispatch");
  EXPECT_STREQ(obs::phase_name(obs::Phase::kQuiescenceSkip),
               "quiescence_skip");
  // The numeric ids are stable too: Chrome trace exports carry them.
  EXPECT_EQ(static_cast<int>(obs::Phase::kCrashBookkeeping), 1);
  EXPECT_EQ(static_cast<int>(obs::Phase::kDelayedRelease), 3);
  EXPECT_EQ(static_cast<int>(obs::Phase::kMerge), 4);
  EXPECT_EQ(static_cast<int>(obs::Phase::kRound), 5);
  EXPECT_EQ(static_cast<int>(obs::Phase::kActiveSetBuild), 10);
  EXPECT_EQ(static_cast<int>(obs::Phase::kLaneDispatch), 11);
  EXPECT_EQ(static_cast<int>(obs::Phase::kQuiescenceSkip), 12);
}

// ---------------------------------------------------------------------
// Histogram

TEST(HistogramTest, PowerOfTwoBuckets) {
  obs::Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket(0), 2u);   // values <= 1
  EXPECT_EQ(h.bucket(1), 1u);   // 2
  EXPECT_EQ(h.bucket(2), 1u);   // 3..4
  EXPECT_EQ(h.bucket(10), 1u);  // 513..1024
  EXPECT_EQ(h.upper_bound(10), 1024u);
}

TEST(HistogramTest, MergeAddsCounts) {
  obs::Histogram a;
  obs::Histogram b;
  a.add(5);
  b.add(7);
  b.add(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 112u);
  EXPECT_EQ(a.max(), 100u);
}

// ---------------------------------------------------------------------
// Phase profile

TEST(PhaseProfileTest, FormatTimeline) {
  std::vector<obs::PhaseStats> phases(2);
  phases[0].name = "tree_build";
  phases[0].begin_round = 0;
  phases[0].end_round = 5;
  phases[0].rounds = 5;
  phases[0].physical_messages = 13;
  phases[0].bits = 112;
  phases[1].name = "counting";
  phases[1].begin_round = 5;
  phases[1].end_round = 22;
  phases[1].rounds = 17;
  phases[1].physical_messages = 49;
  phases[1].bits = 1994;
  EXPECT_EQ(obs::format_phase_timeline(phases),
            "tree_build:[0,5) msgs=13 bits=112; "
            "counting:[5,22) msgs=49 bits=1994");
  EXPECT_EQ(obs::format_phase_timeline({}), "");
}

TEST(PhaseProfileTest, PipelinePhasesPartitionTheRun) {
  Rng rng(42);
  const Graph g = gen::erdos_renyi_connected(32, 0.15, rng);
  const auto result = run_distributed_bc(g);
  ASSERT_GE(result.phase_profile.size(), 2u);
  // Contiguous, ordered, covering [0, rounds).
  EXPECT_EQ(result.phase_profile.front().begin_round, 0u);
  EXPECT_EQ(result.phase_profile.back().end_round, result.rounds);
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < result.phase_profile.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(result.phase_profile[i].begin_round,
                result.phase_profile[i - 1].end_round);
    }
    bits += result.phase_profile[i].bits;
  }
  // The per-phase traffic sums recompose the run totals.
  EXPECT_EQ(bits, result.metrics.total_bits);
}

// ---------------------------------------------------------------------
// Exporters

TEST(ChromeTraceTest, EmitsSchemaFields) {
  obs::FlightRecorder recorder(16);
  recorder.record(obs::Phase::kLaneDispatch, 3, 1, 1000, 500);
  std::vector<obs::CounterSeries> counters(1);
  counters[0].name = "bits_on_wire";
  counters[0].first_round = 0;
  counters[0].values = {10, 20, 30};
  std::vector<obs::TraceInstant> instants{{"wave s=0", 2}};
  std::vector<obs::PhaseStats> phases(1);
  phases[0].name = "tree_build";
  phases[0].end_round = 4;
  phases[0].rounds = 4;
  const std::string json =
      obs::chrome_trace_json(&recorder, phases, counters, instants, {});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("lane_dispatch"), std::string::npos);
  EXPECT_NE(json.find("bits_on_wire"), std::string::npos);
}

TEST(ChromeTraceTest, DeterministicWithoutRecorderSpans) {
  std::vector<obs::PhaseStats> phases(1);
  phases[0].name = "counting";
  phases[0].begin_round = 2;
  phases[0].end_round = 9;
  phases[0].rounds = 7;
  obs::ChromeTraceOptions options;
  options.include_recorder_spans = false;
  const std::string a = obs::chrome_trace_json(nullptr, phases, {}, {}, options);
  const std::string b = obs::chrome_trace_json(nullptr, phases, {}, {}, options);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("counting"), std::string::npos);
}

TEST(ChromeTraceTest, DownsamplesCounters) {
  std::vector<obs::CounterSeries> counters(1);
  counters[0].name = "messages";
  counters[0].values.assign(10000, 1);
  obs::ChromeTraceOptions options;
  options.include_recorder_spans = false;
  options.max_counter_samples = 100;
  const std::string json =
      obs::chrome_trace_json(nullptr, {}, counters, {}, options);
  // Stride 100 over 10000 samples: at most ~101 counter events.
  std::size_t events = 0;
  for (std::size_t pos = json.find("\"ph\":\"C\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"C\"", pos + 1)) {
    ++events;
  }
  EXPECT_LE(events, 101u);
  EXPECT_GE(events, 90u);
}

TEST(PromTextTest, RendersAllMetricKinds) {
  obs::PromWriter out;
  out.counter("x_total", "things", 42);
  out.gauge("depth", "current depth", 3.5);
  obs::Histogram h;
  h.add(1);
  h.add(300);
  out.histogram("latency_ms", "latency", h);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP x_total things"), std::string::npos);
  EXPECT_NE(text.find("# TYPE x_total counter"), std::string::npos);
  EXPECT_NE(text.find("x_total 42"), std::string::npos);
  EXPECT_NE(text.find("depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_sum 301"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 2"), std::string::npos);
  // Cumulative: the 512 bucket includes the earlier value.
  EXPECT_NE(text.find("latency_ms_bucket{le=\"512\"} 2"), std::string::npos);
}

// ---------------------------------------------------------------------
// The determinism contract: recording never influences execution.

struct EngineMode {
  const char* name;
  bool legacy;
  unsigned threads;
};

// gtest's fallback printer dumps the raw bytes (the name pointer and the
// padding), which would make the listed test ids differ between builds.
void PrintTo(const EngineMode& mode, std::ostream* os) {
  *os << '(' << (mode.legacy ? "legacy" : "frontier") << ", "
      << mode.threads << ')';
}

class ObsBitIdentity : public ::testing::TestWithParam<EngineMode> {};

TEST_P(ObsBitIdentity, RecorderOnOffIsBitIdentical) {
  const EngineMode mode = GetParam();
  Rng rng(7);
  const Graph g = gen::erdos_renyi_connected(40, 0.12, rng);

  const auto run_once = [&](obs::FlightRecorder* recorder,
                            MessageTrace* trace) {
    DistributedBcOptions options;
    options.legacy_engine = mode.legacy;
    options.threads = mode.threads;
    // Force the frontier engine's multi-lane dispatch even on a
    // single-core host, so the recorder hooks in the parallel path run.
    options.frontier_clamp_lanes = false;
    options.frontier_min_parallel_nodes = 1;
    options.keep_tables = true;
    options.recorder = recorder;
    options.trace = trace;
    return run_distributed_bc(g, options);
  };

  MessageTrace trace_off;
  MessageTrace trace_on;
  obs::FlightRecorder recorder;
  const auto off = run_once(nullptr, &trace_off);
  const auto on = run_once(&recorder, &trace_on);

  // Results: bit-identical doubles, not just close.
  ASSERT_EQ(on.betweenness.size(), off.betweenness.size());
  EXPECT_EQ(std::memcmp(on.betweenness.data(), off.betweenness.data(),
                        off.betweenness.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(on.closeness.data(), off.closeness.data(),
                        off.closeness.size() * sizeof(double)),
            0);
  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.aggregation_epoch, off.aggregation_epoch);
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.phase_profile, off.phase_profile);
  EXPECT_EQ(trace_on.events(), trace_off.events());

#if !defined(CONGESTBC_OBS_DISABLED)
  // And the recorder did actually observe the run.
  EXPECT_GT(recorder.recorded(), 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ObsBitIdentity,
    ::testing::Values(EngineMode{"legacy", true, 1},
                      EngineMode{"frontier_t1", false, 1},
                      EngineMode{"frontier_t4", false, 4},
                      EngineMode{"frontier_t0", false, 0}),
    [](const ::testing::TestParamInfo<EngineMode>& param_info) {
      return std::string(param_info.param.name);
    });

// The frontier engine must narrate its new phases to the recorder: the
// active-set build and the per-lane dispatch every executed round, and
// quiescence skips whenever the run has fully idle stretches (the
// staggered BFS/aggregation schedule always has some).  The spans then
// flow into the Chrome trace export like any other phase.
TEST(FrontierSpans, NewPhasesAreRecorded) {
  Rng rng(7);
  const Graph g = gen::erdos_renyi_connected(40, 0.12, rng);
  obs::FlightRecorder recorder(1 << 18);
  DistributedBcOptions options;
  options.threads = 2;
  options.frontier_clamp_lanes = false;
  options.frontier_min_parallel_nodes = 1;
  options.recorder = &recorder;
  run_distributed_bc(g, options);

#if !defined(CONGESTBC_OBS_DISABLED)
  std::size_t active_builds = 0;
  std::size_t lane_dispatches = 0;
  std::size_t quiescence_skips = 0;
  for (const auto& event : recorder.snapshot()) {
    switch (event.phase) {
      case obs::Phase::kActiveSetBuild:
        ++active_builds;
        break;
      case obs::Phase::kLaneDispatch:
        ++lane_dispatches;
        break;
      case obs::Phase::kQuiescenceSkip:
        ++quiescence_skips;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(active_builds, 0u);
  EXPECT_GT(lane_dispatches, 0u);
  EXPECT_GT(quiescence_skips, 0u);

  // And the exporter renders them under their stable names.
  obs::ChromeTraceOptions trace_options;
  const std::string json = obs::chrome_trace_json(
      &recorder, {}, {}, {}, trace_options);
  EXPECT_NE(json.find("active_set_build"), std::string::npos);
  EXPECT_NE(json.find("lane_dispatch"), std::string::npos);
  EXPECT_NE(json.find("quiescence_skip"), std::string::npos);
#endif
}

}  // namespace
}  // namespace congestbc
