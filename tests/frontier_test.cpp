// The frontier engine (DESIGN.md §13) must be a pure optimization of the
// legacy engine, which every identity check here uses as its reference
// at one lane:
//   * BC values, metrics (cut-bit accounting included), trace stream,
//     and fault outcomes are bit-identical to the legacy engine for every
//     thread count (0 = one lane per hardware thread), fault-free and
//     under the mixed fault plan;
//   * identity holds on generated scale-free graphs with sampled sources
//     (the workloads the engine exists for), not just the tiny datasets;
//   * PR-3 snapshots round-trip the engine's rebuilt-on-resume wake
//     state: kill-and-resume is bit-identical to the uninterrupted run,
//     including resuming under the *other* engine than wrote the
//     snapshot (the snapshot format is engine-agnostic).
//
// The tests force frontier_min_parallel_nodes = 1 and
// frontier_clamp_lanes = false so the multi-lane dispatch path really
// runs — even on a single-core CI host and under TSan.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "common/rng.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CBC_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CBC_UNDER_SANITIZER 1
#endif
#endif

namespace congestbc {
namespace {

Graph load_dataset(const char* name) {
  for (const std::string prefix : {"data/", "../data/", "../../data/"}) {
    std::ifstream file(prefix + name);
    if (file.good()) {
      return read_edge_list(file);
    }
  }
  throw std::runtime_error(std::string("data/") + name +
                           " not found (run from repo root)");
}

/// The mixed adversity plan: hash-drawn drop/duplicate/delay plus a
/// transient link outage (on an edge the graph actually has) and a
/// transient crash-restart.
FaultPlan mixed_fault_plan(const Graph& g) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_probability = 0.05;
  plan.duplicate_probability = 0.05;
  plan.delay_probability = 0.05;
  const NodeId u = 0;
  const NodeId v = g.neighbors(u).front();
  plan.link_faults.push_back(LinkFault{Edge{u, v}, {10, 60}});
  plan.node_faults.push_back(NodeFault{5, {20, 40}});
  return plan;
}

/// Base options that force the frontier engine's parallel machinery on:
/// no lane clamping (real lanes even when nproc = 1) and parallel
/// dispatch from the very first active node.
DistributedBcOptions frontier_options(unsigned threads) {
  DistributedBcOptions options;
  options.threads = threads;
  options.frontier_clamp_lanes = false;
  options.frontier_min_parallel_nodes = 1;
  return options;
}

/// Marks `k` seed-drawn distinct sources on an n-node graph.
std::vector<bool> sampled_sources(NodeId n, std::uint64_t k,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> mask(n, false);
  for (const std::uint64_t s : rng.sample_without_replacement(n, k)) {
    mask[static_cast<std::size_t>(s)] = true;
  }
  return mask;
}

struct Observed {
  DistributedBcResult result;
  std::vector<TraceEvent> events;
  std::vector<FaultEvent> fault_events;
};

Observed observe(const Graph& g, DistributedBcOptions options) {
  MessageTrace trace;
  options.trace = &trace;
  Observed o;
  o.result = run_distributed_bc(g, options);
  o.events = trace.events();
  o.fault_events = trace.fault_events();
  return o;
}

void expect_identical(const Observed& a, const Observed& b) {
  EXPECT_EQ(a.result.metrics, b.result.metrics);
  EXPECT_EQ(a.result.betweenness, b.result.betweenness);
  EXPECT_EQ(a.result.closeness, b.result.closeness);
  EXPECT_EQ(a.result.graph_centrality, b.result.graph_centrality);
  EXPECT_EQ(a.result.stress, b.result.stress);
  EXPECT_EQ(a.result.eccentricities, b.result.eccentricities);
  EXPECT_EQ(a.result.diameter, b.result.diameter);
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fault_events, b.fault_events);
}

/// The reference every identity check compares against: the legacy
/// engine at one lane.
Observed observe_legacy(const Graph& g, DistributedBcOptions options) {
  options.legacy_engine = true;
  options.threads = 1;
  return observe(g, options);
}

// ------------------------------------------------- the engine identity
//
// Reference = legacy @ 1 lane.  The frontier engine @ {1, 2, 4, 8, 0}
// lanes (0 = one per hardware thread) must observe the same stream.
// Returns the reference for case-specific checks.

Observed expect_engine_matrix_identical(const Graph& g,
                                        DistributedBcOptions base) {
  base.frontier_clamp_lanes = false;
  base.frontier_min_parallel_nodes = 1;
  Observed reference = observe_legacy(g, base);
  for (const unsigned threads : {1u, 2u, 4u, 8u, 0u}) {
    SCOPED_TRACE("frontier threads=" + std::to_string(threads));
    DistributedBcOptions frontier = base;
    frontier.threads = threads;
    expect_identical(reference, observe(g, frontier));
  }
  return reference;
}

TEST(FrontierIdentity, FaultFreeKarate) {
  expect_engine_matrix_identical(load_dataset("karate.txt"), {});
}

TEST(FrontierIdentity, FaultFreeLesmis) {
  expect_engine_matrix_identical(load_dataset("lesmis.txt"), {});
}

TEST(FrontierIdentity, MixedFaultsKarate) {
  const Graph g = load_dataset("karate.txt");
  DistributedBcOptions options;
  options.reliable_transport = true;
  options.faults = mixed_fault_plan(g);
  expect_engine_matrix_identical(g, options);
}

TEST(FrontierIdentity, MixedFaultsLesmis) {
  const Graph g = load_dataset("lesmis.txt");
  DistributedBcOptions options;
  options.reliable_transport = true;
  options.faults = mixed_fault_plan(g);
  expect_engine_matrix_identical(g, options);
}

TEST(FrontierIdentity, BarbellCutAccounting) {
  const Graph g = gen::barbell(6, 4);
  DistributedBcOptions options;
  options.cut_edges = {Edge{5, 6}};  // the barbell bridge
  const Observed reference = expect_engine_matrix_identical(g, options);
  EXPECT_GT(reference.result.metrics.cut_bits, 0u);
}

// --------------------------------------- generated graphs, sampled BC
//
// The workloads the frontier engine exists for: scale-free generators
// with a sampled source set, where the active set is a sliver of N for
// most of the run.  The legacy reference runs every node every round, so
// it dominates these tests' time; it is used anyway because it is the
// only reference that checks metrics and traces, not just results.

TEST(FrontierIdentity, Ba2000SampledSources) {
  Rng rng(7);
  const Graph g = gen::barabasi_albert(2000, 2, rng);
  DistributedBcOptions base;
  base.sources = sampled_sources(g.num_nodes(), 16, 11);
  const Observed reference = observe_legacy(g, base);

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("frontier threads=" + std::to_string(threads));
    DistributedBcOptions frontier = frontier_options(threads);
    frontier.sources = base.sources;
    expect_identical(reference, observe(g, frontier));
  }
}

TEST(FrontierIdentity, Ba10kSampledSources) {
#ifdef CBC_UNDER_SANITIZER
  GTEST_SKIP() << "10k-node identity run is minutes under sanitizers; "
                  "the same path is covered at 2k nodes above";
#endif
  Rng rng(13);
  const Graph g = gen::barabasi_albert(10'000, 2, rng);
  DistributedBcOptions base;
  base.sources = sampled_sources(g.num_nodes(), 4, 17);
  const Observed reference = observe_legacy(g, base);

  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("frontier threads=" + std::to_string(threads));
    DistributedBcOptions frontier = frontier_options(threads);
    frontier.sources = base.sources;
    expect_identical(reference, observe(g, frontier));
  }
}

TEST(FrontierIdentity, SparseErWithFaults) {
  Rng rng(23);
  const Graph g = gen::erdos_renyi_sparse(600, 4.0, rng);
  DistributedBcOptions options;
  options.reliable_transport = true;
  options.faults = mixed_fault_plan(g);
  options.sources = sampled_sources(g.num_nodes(), 6, 29);
  const Observed reference = observe_legacy(g, options);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("frontier threads=" + std::to_string(threads));
    DistributedBcOptions frontier = frontier_options(threads);
    frontier.reliable_transport = options.reliable_transport;
    frontier.faults = options.faults;
    frontier.sources = options.sources;
    expect_identical(reference, observe(g, frontier));
  }
}

// ------------------------------------------------------ kill-and-resume
//
// The frontier engine keeps per-node wake state (SoA arrays + timer
// heap) that is *not* serialized: snapshots stay engine-agnostic and the
// wake state is rebuilt from NodeProgram::next_active_round on resume.
// These tests prove the rebuild is exact — resumed runs are
// bit-identical to uninterrupted ones, across engines and thread counts.

Observed run_halted(const Graph& g, DistributedBcOptions options,
                    std::uint64_t halt_round, const std::string& file) {
  MessageTrace trace;
  options.trace = &trace;
  options.halt_at_round = halt_round;
  BcRun run(g, options);
  run.run();
  EXPECT_TRUE(run.suspended());
  std::ofstream out(file, std::ios::binary);
  run.save_snapshot(out);
  Observed o;
  o.result = run.harvest();
  o.events = trace.events();
  o.fault_events = trace.fault_events();
  return o;
}

Observed run_resumed(const Graph& g, DistributedBcOptions options,
                     const std::string& file) {
  options.resume_from = file;
  return observe(g, options);
}

/// Full frontier run vs halt-at-`halt_round` + resume; the writer and
/// the resumer may use different engines/thread counts.  Checks outputs
/// and the stitched trace (full == halted prefix + resumed suffix).
void check_resume(const Graph& g, const DistributedBcOptions& base,
                  const Observed& full, std::uint64_t halt_round,
                  const DistributedBcOptions& writer_opts,
                  const DistributedBcOptions& resumer_opts,
                  const std::string& tag) {
  SCOPED_TRACE(tag + " halt@" + std::to_string(halt_round));
  const std::string file =
      testing::TempDir() + "frontier_resume_" + tag + ".snap";

  DistributedBcOptions writer = base;
  writer.legacy_engine = writer_opts.legacy_engine;
  writer.threads = writer_opts.threads;
  writer.frontier_clamp_lanes = false;
  writer.frontier_min_parallel_nodes = 1;
  const Observed halted = run_halted(g, writer, halt_round, file);
  EXPECT_TRUE(halted.result.suspended);
  EXPECT_EQ(halted.result.rounds, halt_round);

  DistributedBcOptions resumer = base;
  resumer.legacy_engine = resumer_opts.legacy_engine;
  resumer.threads = resumer_opts.threads;
  resumer.frontier_clamp_lanes = false;
  resumer.frontier_min_parallel_nodes = 1;
  const Observed resumed = run_resumed(g, resumer, file);
  EXPECT_FALSE(resumed.result.suspended);
  ASSERT_TRUE(resumed.result.resumed_from_round.has_value());
  EXPECT_EQ(*resumed.result.resumed_from_round, halt_round);

  EXPECT_EQ(full.result.betweenness, resumed.result.betweenness);
  EXPECT_EQ(full.result.closeness, resumed.result.closeness);
  EXPECT_EQ(full.result.stress, resumed.result.stress);
  EXPECT_EQ(full.result.eccentricities, resumed.result.eccentricities);
  EXPECT_EQ(full.result.diameter, resumed.result.diameter);
  EXPECT_EQ(full.result.rounds, resumed.result.rounds);
  EXPECT_EQ(full.result.metrics, resumed.result.metrics);

  std::vector<TraceEvent> stitched = halted.events;
  stitched.insert(stitched.end(), resumed.events.begin(),
                  resumed.events.end());
  EXPECT_EQ(full.events, stitched);
  std::vector<FaultEvent> stitched_faults = halted.fault_events;
  stitched_faults.insert(stitched_faults.end(), resumed.fault_events.begin(),
                         resumed.fault_events.end());
  EXPECT_EQ(full.fault_events, stitched_faults);
}

DistributedBcOptions frontier_at(unsigned threads) {
  DistributedBcOptions o;
  o.threads = threads;
  return o;
}

DistributedBcOptions legacy_at_one() {
  DistributedBcOptions o;
  o.legacy_engine = true;
  return o;
}

TEST(FrontierResume, KarateRoundTripsAcrossEnginesAndThreads) {
  const Graph g = load_dataset("karate.txt");
  const DistributedBcOptions base = frontier_options(1);
  const Observed full = observe(g, base);
  ASSERT_GT(full.result.rounds, 50u);
  const std::uint64_t mid = full.result.rounds / 2;

  // Same-engine round trips at several boundaries and thread counts.
  check_resume(g, base, full, 1, frontier_at(1), frontier_at(1),
               "frontier1_frontier1");
  check_resume(g, base, full, mid, frontier_at(1), frontier_at(8),
               "frontier1_frontier8");
  check_resume(g, base, full, full.result.rounds - 1, frontier_at(4),
               frontier_at(2), "frontier4_frontier2");

  // Cross-engine: legacy-written snapshot resumed under frontier and the
  // reverse — the snapshot format carries no engine state.
  check_resume(g, base, full, mid, legacy_at_one(), frontier_at(4),
               "legacy_frontier4");
  check_resume(g, base, full, mid, frontier_at(4), legacy_at_one(),
               "frontier4_legacy");
  check_resume(g, base, full, mid, legacy_at_one(), frontier_at(2),
               "legacy_frontier2");
}

TEST(FrontierResume, MixedFaultsKarateRoundTrips) {
  const Graph g = load_dataset("karate.txt");
  DistributedBcOptions base = frontier_options(1);
  base.reliable_transport = true;
  base.faults = mixed_fault_plan(g);
  const Observed full = observe(g, base);
  ASSERT_GT(full.result.rounds, 60u);

  // Halt inside the fault window (rounds 20-40 have a crashed node and
  // 10-60 a dead link) so delayed mailboxes and crash state cross the
  // snapshot boundary.
  check_resume(g, base, full, 30, frontier_at(2), frontier_at(8),
               "faults_mid_window");
  check_resume(g, base, full, 30, legacy_at_one(), frontier_at(4),
               "faults_legacy_frontier");
  check_resume(g, base, full, full.result.rounds / 2, frontier_at(4),
               frontier_at(1), "faults_late");
}

TEST(FrontierResume, Ba2000SampledRoundTrip) {
  Rng rng(7);
  const Graph g = gen::barabasi_albert(2000, 2, rng);
  DistributedBcOptions base = frontier_options(1);
  base.sources = sampled_sources(g.num_nodes(), 8, 11);
  const Observed full = observe(g, base);
  ASSERT_GT(full.result.rounds, 100u);

  // Halt deep in the run, where the active set is a sliver of N and the
  // wake heap carries far-future timers that must be rebuilt on resume.
  check_resume(g, base, full, full.result.rounds * 3 / 4, frontier_at(4),
               frontier_at(1), "ba2000_deep");
  check_resume(g, base, full, full.result.rounds / 4, frontier_at(1),
               legacy_at_one(), "ba2000_frontier_legacy");
}

}  // namespace
}  // namespace congestbc
