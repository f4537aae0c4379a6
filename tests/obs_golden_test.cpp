// Golden-file tests for the observability exporters: the Chrome trace
// JSON of a deterministic karate-club run and the Prometheus text of a
// fixed stats snapshot are compared byte-for-byte against committed
// goldens (tests/goldens/).
//
// Regenerating after an intentional format change (TESTING.md):
//   CONGESTBC_UPDATE_GOLDENS=1 ./build/tests/obs_golden_test
// rewrites the goldens in the source tree; review the diff and commit.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "algo/bc_pipeline.hpp"
#include "graph/io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/phase_profile.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"

namespace congestbc {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(CONGESTBC_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compares `actual` against the committed golden, or rewrites the golden
/// when CONGESTBC_UPDATE_GOLDENS is set in the environment.
void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("CONGESTBC_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << path
      << " (regenerate: CONGESTBC_UPDATE_GOLDENS=1 ./obs_golden_test)";
  EXPECT_EQ(actual, expected)
      << "exporter output drifted from " << path
      << "; if intentional, regenerate with CONGESTBC_UPDATE_GOLDENS=1";
}

TEST(ObsGolden, KarateChromeTrace) {
  std::ifstream in(std::string(CONGESTBC_DATA_DIR) + "/karate.txt");
  ASSERT_TRUE(in) << "data/karate.txt not found";
  const Graph g = read_edge_list(in);

  DistributedBcOptions options;  // defaults: deterministic run
  const auto result = run_distributed_bc(g, options);

  // Counters from the deterministic per-round metrics; no recorder spans
  // (wall-clock timings vary run to run, the logical track does not).
  std::vector<obs::CounterSeries> counters(2);
  counters[0].name = "bits_on_wire";
  counters[1].name = "physical_messages";
  for (const RoundStats& round : result.metrics.per_round) {
    counters[0].values.push_back(round.bits);
    counters[1].values.push_back(round.physical_messages);
  }
  std::vector<obs::TraceInstant> instants;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (result.bfs_start_rounds[v] > 0) {
      instants.push_back(
          {"wave s=" + std::to_string(v), result.bfs_start_rounds[v]});
    }
  }
  obs::ChromeTraceOptions trace_options;
  trace_options.include_recorder_spans = false;
  const std::string json = obs::chrome_trace_json(
      nullptr, result.phase_profile, counters, instants, trace_options);
  expect_matches_golden("karate_trace.json", json);
}

TEST(ObsGolden, PrometheusText) {
  // A fully fixed stats snapshot: every field distinct so a transposed
  // line is caught, not masked.
  service::StatsReply stats;
  stats.uptime_ms = 61'000;
  stats.submits = 120;
  stats.cache_hits = 30;
  stats.cache_misses = 80;
  stats.coalesced = 10;
  stats.busy_rejections = 3;
  stats.draining_rejections = 1;
  stats.jobs_completed = 70;
  stats.jobs_failed = 5;
  stats.jobs_cancelled = 4;
  stats.jobs_suspended = 2;
  stats.jobs_resumed = 2;
  stats.protocol_errors = 6;
  stats.queue_depth = 7;
  stats.running = 2;
  stats.workers = 4;
  stats.cache_entries = 48;
  stats.cache_evictions = 9;
  stats.retried_submits = 11;
  stats.deadline_rejections = 8;
  stats.deadline_expired = 13;
  stats.quarantined_files = 15;
  stats.mutations_applied = 21;
  stats.graph_version = 5;
  stats.dirty_sources_rerun = 17;
  stats.cache_invalidations = 16;
  stats.backend_downgrades = 19;
  stats.qps = 1.96721;
  stats.worker_utilization = 0.4375;
  stats.latency_p50_ms = 12.5;
  stats.latency_p90_ms = 80;
  stats.latency_p99_ms = 200;

  obs::Histogram latency;
  for (const std::uint64_t ms : {3ull, 9ull, 12ull, 14ull, 40ull, 80ull, 200ull}) {
    latency.add(ms);
  }
  obs::Histogram rounds;
  for (const std::uint64_t r : {41ull, 173ull, 680ull, 1405ull}) {
    rounds.add(r);
  }
  obs::Histogram throughput;
  for (const std::uint64_t rps : {900ull, 1400ull, 4100ull}) {
    throughput.add(rps);
  }
  const std::string text =
      service::prometheus_text(stats, latency, rounds, throughput);
  expect_matches_golden("metrics.prom", text);
}

TEST(ObsGolden, StatsJsonDump) {
  // The --metrics-file payload.  Every field holds a distinct value (the
  // cluster counters included, which the Prometheus golden leaves at 0),
  // so a transposed key is caught.
  service::StatsReply stats;
  stats.uptime_ms = 61'001;
  stats.submits = 121;
  stats.cache_hits = 31;
  stats.cache_misses = 81;
  stats.coalesced = 14;
  stats.busy_rejections = 33;
  stats.draining_rejections = 34;
  stats.jobs_completed = 71;
  stats.jobs_failed = 35;
  stats.jobs_cancelled = 36;
  stats.jobs_suspended = 37;
  stats.jobs_resumed = 38;
  stats.protocol_errors = 39;
  stats.queue_depth = 40;
  stats.running = 41;
  stats.workers = 42;
  stats.cache_entries = 43;
  stats.cache_evictions = 44;
  stats.retried_submits = 45;
  stats.deadline_rejections = 46;
  stats.deadline_expired = 47;
  stats.quarantined_files = 48;
  stats.mutations_applied = 49;
  stats.graph_version = 50;
  stats.dirty_sources_rerun = 51;
  stats.cache_invalidations = 52;
  stats.backend_downgrades = 53;
  stats.migrated_out = 54;
  stats.migrated_in = 55;
  stats.lookups_served = 56;
  stats.qps = 1.96721;
  stats.worker_utilization = 0.4375;
  stats.latency_p50_ms = 12.5;
  stats.latency_p90_ms = 80.25;
  stats.latency_p99_ms = 200.125;
  expect_matches_golden("stats.json", service::to_json(stats));
}

#ifdef CONGESTBC_CLI_PATH
TEST(ObsGolden, TraceOutIsSchemaValidAndDoesNotPerturbResults) {
  // CLI-level bit-identity: --trace-out must not change a single output
  // byte, and the file it writes must be loadable Chrome trace JSON.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("congestbc_obs_golden_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  const std::string karate = std::string(CONGESTBC_DATA_DIR) + "/karate.txt";
  const std::string base =
      std::string(CONGESTBC_CLI_PATH) + " " + karate + " --json";
  const std::string plain = dir + "/plain.json";
  const std::string traced = dir + "/traced.json";
  const std::string trace_file = dir + "/trace.json";
  ASSERT_EQ(std::system((base + " > " + plain + " 2>/dev/null").c_str()), 0);
  ASSERT_EQ(std::system((base + " --trace-out " + trace_file + " > " +
                         traced + " 2>/dev/null")
                            .c_str()),
            0);
  const std::string out_plain = read_file(plain);
  const std::string out_traced = read_file(traced);
  ASSERT_FALSE(out_plain.empty());
  EXPECT_EQ(out_plain, out_traced)
      << "--trace-out changed the CLI's JSON output";

  const std::string trace = read_file(trace_file);
  ASSERT_FALSE(trace.empty()) << "trace file not written";
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(trace.back(), '\n');
  std::filesystem::remove_all(dir);
}
#endif  // CONGESTBC_CLI_PATH

}  // namespace
}  // namespace congestbc
