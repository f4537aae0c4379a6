// Streaming subsystem tests (src/stream + the daemon's v4 MUTATE plane).
//
// What is pinned here, per the stream contract:
//   * VersionedGraph canonicalizes batches (endpoint order, net-effect
//     dedup, no-op dropping), bumps the version even for net-empty
//     batches, and its chained fingerprint is reproducible from the
//     delta log alone;
//   * the clean-source rule: an op on an equidistant edge is inert for
//     that source — IncrementalBc::source_is_clean agrees with what a
//     re-run would show;
//   * the differential guarantee: after ANY mutation sequence the
//     maintained scores are bit-identical to a from-scratch build at
//     the same version, across thread counts (`rounds` is work
//     accounting, not a result bit, and is excluded);
//   * daemon MUTATE semantics: create / apply / version-conflict /
//     surgical cache invalidation, stream-addressed and incremental
//     SUBMIT, and — through the crash-safe journal — a SIGKILLed daemon
//     replays its namespaces to the exact pre-crash version and
//     fingerprint.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "gtest/gtest.h"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "snapshot/fingerprint.hpp"
#include "stream/incremental_bc.hpp"
#include "stream/versioned_graph.hpp"

namespace congestbc {
namespace {

namespace fs = std::filesystem;
using service::Client;
using service::Daemon;
using service::DaemonConfig;
using service::GraphSource;
using service::MutateOp;
using service::MutateOutcome;
using service::MutateReply;
using service::MutateRequest;
using service::ResultBlock;
using service::ResultReply;
using service::decode_result_block;
using service::SubmitDisposition;
using service::SubmitReply;
using service::SubmitRequest;
using stream::EdgeOp;
using stream::EdgeOpKind;
using stream::IncrementalBc;
using stream::IncrementalBcConfig;
using stream::MaintainedScores;
using stream::VersionedGraph;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("congestbc_stream_test_" + tag + "_" +
               std::to_string(static_cast<unsigned long>(::getpid())))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint64_t got_bits = 0;
    std::uint64_t want_bits = 0;
    std::memcpy(&got_bits, &got[i], sizeof got_bits);
    std::memcpy(&want_bits, &want[i], sizeof want_bits);
    ASSERT_EQ(got_bits, want_bits) << what << "[" << i << "]";
  }
}

void expect_bit_equal(const std::vector<long double>& got,
                      const std::vector<long double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << "[" << i << "]";
  }
}

/// The differential guarantee's equality: every result field bit-exact;
/// `rounds` is engine-work accounting, not a result bit, and is excluded.
void expect_scores_identical(const MaintainedScores& got,
                             const MaintainedScores& want) {
  expect_bit_equal(got.betweenness, want.betweenness, "betweenness");
  expect_bit_equal(got.closeness, want.closeness, "closeness");
  expect_bit_equal(got.graph_centrality, want.graph_centrality,
                   "graph_centrality");
  expect_bit_equal(got.stress, want.stress, "stress");
  ASSERT_EQ(got.eccentricities, want.eccentricities);
  ASSERT_EQ(got.diameter, want.diameter);
}

// ------------------------------------------------- VersionedGraph units

TEST(VersionedGraph, CanonicalizesBatchesAndChainsFingerprints) {
  VersionedGraph vg(gen::cycle(6));
  EXPECT_EQ(vg.version(), 0u);
  EXPECT_EQ(vg.fingerprint(), graph_fingerprint(gen::cycle(6)));

  // Reversed endpoints, a duplicate, and a no-op delete all canonicalize
  // away; the surviving delta is sorted by (u, v).
  const auto out = vg.apply({{EdgeOpKind::kInsert, 3, 0},
                             {EdgeOpKind::kInsert, 0, 3},
                             {EdgeOpKind::kInsert, 1, 4},
                             {EdgeOpKind::kRemove, 2, 5}});
  EXPECT_EQ(out.version, 1u);
  EXPECT_EQ(out.applied, 2u);
  EXPECT_EQ(out.dropped, 2u);
  const std::vector<GraphDeltaOp>& delta = vg.delta(1);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_TRUE(delta[0].insert && delta[0].u == 0 && delta[0].v == 3);
  EXPECT_TRUE(delta[1].insert && delta[1].u == 1 && delta[1].v == 4);
  EXPECT_EQ(out.fingerprint,
            chain_graph_fingerprint(vg.fingerprint_at(0), delta));

  // A batch that nets to nothing still bumps the version and chains an
  // empty delta (clients round-tripping a no-op must observe progress).
  const auto noop = vg.apply({{EdgeOpKind::kInsert, 0, 3}});
  EXPECT_EQ(noop.version, 2u);
  EXPECT_EQ(noop.applied, 0u);
  EXPECT_TRUE(vg.delta(2).empty());
  EXPECT_NE(noop.fingerprint, out.fingerprint);

  // Remove what we inserted: head returns to base topology, but the
  // fingerprint is a history identity and never returns with it.
  const auto back = vg.apply({{EdgeOpKind::kRemove, 0, 3},
                              {EdgeOpKind::kRemove, 4, 1}});
  EXPECT_EQ(back.applied, 2u);
  EXPECT_EQ(graph_fingerprint(vg.head()), graph_fingerprint(gen::cycle(6)));
  EXPECT_NE(vg.fingerprint(), graph_fingerprint(gen::cycle(6)));

  // Historical replay: at(v) rebuilds every version, edge-set-identical
  // to the head walked forward.
  EXPECT_EQ(graph_fingerprint(vg.at(3)), graph_fingerprint(vg.head()));
  EXPECT_EQ(graph_fingerprint(vg.at(0)), graph_fingerprint(gen::cycle(6)));
  Graph v1 = vg.at(1);
  EXPECT_EQ(v1.num_edges(), 8u);
}

TEST(VersionedGraph, RejectsInvalidBatchesWhole) {
  VersionedGraph vg(gen::cycle(5));
  // Self-loop and out-of-range endpoints reject the whole batch: the
  // valid first op must not land either.
  EXPECT_THROW(vg.apply({{EdgeOpKind::kInsert, 0, 2},
                         {EdgeOpKind::kInsert, 3, 3}}),
               std::invalid_argument);
  EXPECT_THROW(vg.apply({{EdgeOpKind::kInsert, 0, 2},
                         {EdgeOpKind::kRemove, 1, 99}}),
               std::invalid_argument);
  EXPECT_EQ(vg.version(), 0u);
  EXPECT_EQ(vg.head().num_edges(), 5u);
  EXPECT_THROW(vg.at(1), std::out_of_range);
  EXPECT_THROW(vg.delta(0), std::out_of_range);
}

// ------------------------------------------------- clean-source rule

TEST(IncrementalBcRule, EquidistantOpsAreCleanLevelCrossingOpsAreDirty) {
  // Cycle of 8 from source 0: d(1)=1, d(7)=1, d(2)=2, d(6)=2, d(3)=3,
  // d(5)=3, d(4)=4.
  const Graph g = gen::cycle(8);
  IncrementalBcConfig config;
  config.sources = {0};
  const IncrementalBc inc(g, config);

  std::vector<std::uint32_t> dist = {0, 1, 2, 3, 4, 3, 2, 1};
  // (2, 6): both at level 2 — equidistant, inert for source 0.
  EXPECT_TRUE(IncrementalBc::source_is_clean(dist, {{true, 2, 6}}));
  // (1, 3): levels 1 and 3 — creates a shortcut, dirty.
  EXPECT_FALSE(IncrementalBc::source_is_clean(dist, {{true, 1, 3}}));
  // One dirty op poisons the whole batch for that source.
  EXPECT_FALSE(
      IncrementalBc::source_is_clean(dist, {{true, 2, 6}, {false, 3, 4}}));

  // The rule against the maintainer's own classification: an equidistant
  // chord re-runs nothing, and the maintained scores still match a
  // from-scratch build (the inertness claim, checked bit-for-bit).
  VersionedGraph vg(g);
  IncrementalBcConfig all;
  IncrementalBc maintained(g, all);
  vg.apply({{EdgeOpKind::kInsert, 2, 6}});  // equidistant only from 0 & 4
  const auto stats = maintained.apply(vg.head(), vg.delta(1));
  EXPECT_EQ(stats.clean_sources, 2u);
  EXPECT_EQ(stats.dirty_sources, 6u);
  const IncrementalBc fresh(vg.head(), all);
  expect_scores_identical(maintained.scores(), fresh.scores());
}

// ------------------------------------------------- the property matrix

// Random mutation sequences (insert / delete / no-op / duplicate) on a
// connected base; at EVERY version, maintainers running at different
// thread counts must all be bit-identical to a from-scratch build at
// that version.  Connectivity is preserved by construction:
// only chords are ever deleted, never the base cycle.
TEST(StreamProperty, IncrementalMatchesScratchAcrossEnginesAndThreads) {
  const NodeId n = 20;
  const Graph base = gen::cycle(n);
  VersionedGraph vg(base);

  struct Lane {
    const char* name;
    IncrementalBc inc;
  };
  const auto config_for = [&](unsigned threads) {
    IncrementalBcConfig config;
    config.threads = threads;
    return config;
  };
  std::vector<Lane> lanes;
  lanes.push_back({"frontier/1t", IncrementalBc(base, config_for(1))});
  lanes.push_back({"frontier/4t", IncrementalBc(base, config_for(4))});

  Rng rng(20260808);
  std::uint64_t total_clean = 0;
  std::uint64_t total_dirty = 0;
  for (int round = 0; round < 8; ++round) {
    // Current chords = head edges beyond the base cycle; only these are
    // deletion candidates.
    std::set<std::pair<NodeId, NodeId>> cycle_edges;
    for (const Edge& e : base.edges()) {
      cycle_edges.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
    }
    std::vector<std::pair<NodeId, NodeId>> chords;
    for (const Edge& e : vg.head().edges()) {
      const auto key = std::make_pair(std::min(e.u, e.v), std::max(e.u, e.v));
      if (cycle_edges.count(key) == 0) {
        chords.push_back(key);
      }
    }
    std::vector<EdgeOp> batch;
    const std::uint64_t ops = 1 + rng.next_below(3);
    for (std::uint64_t k = 0; k < ops; ++k) {
      const std::uint64_t dice = rng.next_below(4);
      if (dice == 0 && !chords.empty()) {
        // Delete a live chord (base cycle stays intact -> connected).
        const auto& c = chords[rng.next_below(chords.size())];
        batch.push_back({EdgeOpKind::kRemove, c.first, c.second});
      } else if (dice == 1) {
        // No-op delete of an edge that may not exist.
        const NodeId u = static_cast<NodeId>(rng.next_below(n));
        const NodeId v = static_cast<NodeId>((u + 2 + rng.next_below(n - 3)) % n);
        batch.push_back({EdgeOpKind::kRemove, u, v});
      } else {
        // Insert a chord; duplicates (in-batch or vs the head) are fair
        // game — canonicalization must drop them.
        const NodeId u = static_cast<NodeId>(rng.next_below(n));
        const NodeId v = static_cast<NodeId>((u + 2 + rng.next_below(n - 3)) % n);
        batch.push_back({EdgeOpKind::kInsert, u, v});
        if (rng.next_below(3) == 0) {
          batch.push_back({EdgeOpKind::kInsert, v, u});  // duplicate
        }
      }
    }
    vg.apply(batch);
    const std::vector<GraphDeltaOp>& delta = vg.delta(vg.version());

    const IncrementalBc fresh(vg.head(), IncrementalBcConfig{});
    for (Lane& lane : lanes) {
      const auto stats = lane.inc.apply(vg.head(), delta);
      total_clean += stats.clean_sources;
      total_dirty += stats.dirty_sources;
      ASSERT_EQ(stats.clean_sources + stats.dirty_sources,
                lane.inc.sources().size());
      SCOPED_TRACE(std::string(lane.name) + " @v" +
                   std::to_string(vg.version()));
      expect_scores_identical(lane.inc.scores(), fresh.scores());
    }
  }
  // The sequence must have exercised both paths of the classifier, or
  // the matrix proved nothing about incrementality.
  EXPECT_GT(total_clean, 0u);
  EXPECT_GT(total_dirty, 0u);
}

// ------------------------------------------------- daemon MUTATE plane

/// An in-process daemon on an ephemeral loopback port, drained on exit.
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonConfig config) : daemon_(std::move(config)) {
    daemon_.start();
    daemon_.serve_async();
  }
  ~DaemonHarness() {
    daemon_.request_drain();
    daemon_.wait();
  }

  void connect(Client& client) { client.connect("127.0.0.1", daemon_.port()); }

 private:
  Daemon daemon_;
};

std::string karate_text() {
  std::ifstream in(std::string(CONGESTBC_DATA_DIR) + "/karate.txt",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing data/karate.txt";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ResultBlock decode_block(const ResultReply& reply) {
  BitReader reader(reply.block_bytes.data(),
                   static_cast<std::size_t>(reply.block_bits));
  return decode_result_block(reader);
}

SubmitRequest stream_submit(const std::string& ns, std::uint64_t version,
                            bool incremental = false) {
  SubmitRequest request;
  request.source = GraphSource::kInline;
  request.stream_ns = ns;
  request.stream_version = version;
  request.incremental = incremental;
  return request;
}

TEST(StreamDaemon, MutateCreateApplyConflictInvalidateAndServe) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);
  const std::string karate = karate_text();

  // Creation: base graph at version 0, ride-along op applied as v1.
  MutateRequest create;
  create.ns = "live";
  create.base_graph = karate;
  create.ops.push_back({1, 0, 9});
  const MutateReply created = client.mutate(create);
  ASSERT_EQ(created.outcome, MutateOutcome::kCreated) << created.detail;
  EXPECT_EQ(created.version, 1u);
  EXPECT_EQ(created.applied, 1u);

  // Local twin of the namespace, for every identity check below.
  VersionedGraph twin(read_edge_list_text(karate));
  twin.apply({{EdgeOpKind::kInsert, 0, 9}});
  EXPECT_EQ(created.fingerprint, twin.fingerprint());

  // Re-creating an existing namespace is rejected, not overwritten.
  EXPECT_EQ(client.mutate(create).outcome, MutateOutcome::kRejected);
  // Unknown namespace without a base graph: nothing to mutate.
  MutateRequest unknown;
  unknown.ns = "ghost";
  unknown.ops.push_back({1, 0, 2});
  EXPECT_EQ(client.mutate(unknown).outcome, MutateOutcome::kRejected);
  // Submitting against an unknown namespace is a semantic rejection.
  const SubmitReply ghost = client.submit(stream_submit("ghost", 0));
  EXPECT_EQ(ghost.disposition, SubmitDisposition::kRejected);

  // A stream-addressed submit resolves to the SAME fingerprint as the
  // equivalent inline submit — stream addressing changes how the graph
  // is named, never what result identity it has.
  const SubmitReply at_head = client.submit(stream_submit("live", 0));
  ASSERT_NE(at_head.job_id, 0u) << at_head.detail;
  const ResultReply head_result = client.wait_result(at_head.job_id);
  ASSERT_TRUE(head_result.ready);
  SubmitRequest inline_same;
  inline_same.source = GraphSource::kInline;
  inline_same.graph = write_edge_list_text(twin.head());
  const SubmitReply inline_reply = client.submit(inline_same);
  EXPECT_EQ(inline_reply.fingerprint, at_head.fingerprint);
  EXPECT_EQ(inline_reply.disposition, SubmitDisposition::kCacheHit);

  // Version conflict: stale base reports the actual head to rebase on.
  MutateRequest stale;
  stale.ns = "live";
  stale.base_version = 0;
  stale.ops.push_back({1, 2, 8});
  const MutateReply conflict = client.mutate(stale);
  EXPECT_EQ(conflict.outcome, MutateOutcome::kVersionConflict);
  EXPECT_EQ(conflict.version, 1u);
  EXPECT_EQ(conflict.fingerprint, twin.fingerprint());

  // Correct base applies, and invalidation is surgical: exactly the
  // entries this namespace produced, counted by the new STATS counter.
  const std::uint64_t invalidated_before = client.stats().cache_invalidations;
  MutateRequest apply;
  apply.ns = "live";
  apply.base_version = 1;
  apply.ops.push_back({1, 3, 9});
  apply.ops.push_back({1, 2, 8});  // already a karate edge: dropped
  apply.ops.push_back({2, 0, 9});
  const MutateReply applied = client.mutate(apply);
  ASSERT_EQ(applied.outcome, MutateOutcome::kApplied) << applied.detail;
  EXPECT_EQ(applied.applied, 2u);
  EXPECT_EQ(applied.dropped, 1u);
  twin.apply({{EdgeOpKind::kInsert, 3, 9},
              {EdgeOpKind::kInsert, 2, 8},
              {EdgeOpKind::kRemove, 0, 9}});
  EXPECT_EQ(applied.version, 2u);
  EXPECT_EQ(applied.fingerprint, twin.fingerprint());
  EXPECT_GT(client.stats().cache_invalidations, invalidated_before);
  EXPECT_GE(client.stats().mutations_applied, 3u);
  EXPECT_EQ(client.stats().graph_version, 2u);

  // Serving the new head must produce the bits of a direct local run on
  // the materialized graph; the superseded v1 version stays addressable.
  const SubmitReply new_head = client.submit(stream_submit("live", 2));
  ASSERT_NE(new_head.job_id, 0u);
  EXPECT_NE(new_head.fingerprint, at_head.fingerprint);
  const ResultBlock block = decode_block(client.wait_result(new_head.job_id));
  const RunOutcome local =
      run_bc_with_watchdog(twin.head(), DistributedBcOptions{});
  ASSERT_EQ(local.status, RunStatus::kComplete);
  expect_bit_equal(block.betweenness, local.result.betweenness, "betweenness");
  expect_bit_equal(block.stress, local.result.stress, "stress");
  EXPECT_EQ(block.eccentricities, local.result.eccentricities);
  const SubmitReply old_version = client.submit(stream_submit("live", 1));
  EXPECT_EQ(old_version.fingerprint, at_head.fingerprint);

  // Incremental serving: tagged fingerprint family, bits identical to a
  // from-scratch decomposed build at the same version.
  const SubmitReply inc_reply = client.submit(stream_submit("live", 0, true));
  ASSERT_NE(inc_reply.job_id, 0u) << inc_reply.detail;
  EXPECT_NE(inc_reply.fingerprint, new_head.fingerprint);
  const ResultBlock inc_block =
      decode_block(client.wait_result(inc_reply.job_id));
  const IncrementalBc scratch(twin.head(), IncrementalBcConfig{});
  expect_bit_equal(inc_block.betweenness, scratch.scores().betweenness,
                   "incremental betweenness");
  expect_bit_equal(inc_block.closeness, scratch.scores().closeness,
                   "incremental closeness");
  expect_bit_equal(inc_block.stress, scratch.scores().stress,
                   "incremental stress");
  EXPECT_EQ(inc_block.eccentricities, scratch.scores().eccentricities);
  EXPECT_GE(client.stats().dirty_sources_rerun, 34u);  // the full build

  // Incremental without a namespace is semantically invalid.
  SubmitRequest bare;
  bare.source = GraphSource::kInline;
  bare.graph = karate;
  bare.incremental = true;
  EXPECT_EQ(client.submit(bare).disposition, SubmitDisposition::kRejected);
}

// The warm path: a second incremental submit checks the namespace's
// maintainer out, advances it over every delta committed since its
// version, and checks it back in.  Only the dirty sources re-run, the
// job is never spooled, and the block equals a from-scratch build.
TEST(StreamDaemon, WarmMaintainerServesPendingDeltasBitIdentically) {
  TempDir spool("warm_maintainer");
  DaemonConfig config;
  config.spool_dir = spool.str();
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);
  const std::string karate = karate_text();
  VersionedGraph twin(read_edge_list_text(karate));
  const NodeId n = twin.head().num_nodes();

  MutateRequest create;
  create.ns = "warm";
  create.base_graph = karate;
  ASSERT_EQ(client.mutate(create).outcome, MutateOutcome::kCreated);
  const SubmitReply cold = client.submit(stream_submit("warm", 0, true));
  ASSERT_NE(cold.job_id, 0u) << cold.detail;
  ASSERT_TRUE(client.wait_result(cold.job_id).ready);
  EXPECT_EQ(client.status(cold.job_id).detail,
            "incremental@v0: full build (34 sources)");
  std::vector<std::vector<std::uint32_t>> v0_dist;
  for (NodeId s = 0; s < n; ++s) {
    v0_dist.push_back(bfs_distances(twin.head(), s));
  }

  // Two batches, classified together against the v0 distances.
  for (const auto& [base, u, v] :
       {std::tuple{0u, 4u, 5u}, std::tuple{1u, 8u, 9u}}) {
    MutateRequest m;
    m.ns = "warm";
    m.base_version = base;
    m.ops.push_back({1, u, v});
    ASSERT_EQ(client.mutate(m).outcome, MutateOutcome::kApplied);
    twin.apply({{EdgeOpKind::kInsert, u, v}});
  }
  std::vector<GraphDeltaOp> pending = twin.delta(1);
  pending.insert(pending.end(), twin.delta(2).begin(), twin.delta(2).end());
  std::uint64_t dirty = 0;
  for (NodeId s = 0; s < n; ++s) {
    if (!IncrementalBc::source_is_clean(v0_dist[s], pending)) {
      ++dirty;
    }
  }
  ASSERT_GT(dirty, 0u);
  ASSERT_LT(dirty, n);

  const std::uint64_t rerun_before = client.stats().dirty_sources_rerun;
  const SubmitReply warm = client.submit(stream_submit("warm", 0, true));
  ASSERT_EQ(warm.disposition, SubmitDisposition::kQueued) << warm.detail;
  const ResultReply result = client.wait_result(warm.job_id);
  ASSERT_TRUE(result.ready);
  EXPECT_EQ(client.status(warm.job_id).detail,
            "incremental@v2: " + std::to_string(dirty) + " dirty / " +
                std::to_string(n - dirty) + " clean");
  EXPECT_EQ(client.stats().dirty_sources_rerun, rerun_before + dirty);
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(spool.str()) / "jobs", ec)) {
    EXPECT_NE(entry.path().filename().string().rfind("job-", 0), 0u)
        << "spooled: " << entry.path();
  }

  const ResultBlock block = decode_block(result);
  const IncrementalBc scratch(twin.head(), IncrementalBcConfig{});
  expect_bit_equal(block.betweenness, scratch.scores().betweenness,
                   "betweenness");
  expect_bit_equal(block.closeness, scratch.scores().closeness, "closeness");
  expect_bit_equal(block.graph_centrality, scratch.scores().graph_centrality,
                   "graph_centrality");
  expect_bit_equal(block.stress, scratch.scores().stress, "stress");
  EXPECT_EQ(block.eccentricities, scratch.scores().eccentricities);
  EXPECT_EQ(block.diameter, scratch.scores().diameter);
}

#ifdef CONGESTBCD_PATH
struct SpawnedDaemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// fork/execs the real congestbcd binary and parses "LISTENING <port>".
SpawnedDaemon spawn_daemon(const std::string& spool) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) {
    return {};
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(CONGESTBCD_PATH, "congestbcd", "--port", "0", "--workers", "1",
            "--spool", spool.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);
  SpawnedDaemon daemon;
  daemon.pid = pid;
  FILE* out = ::fdopen(out_pipe[0], "r");
  char line[256];
  while (out != nullptr && std::fgets(line, sizeof line, out) != nullptr) {
    unsigned port = 0;
    if (std::sscanf(line, "LISTENING %u", &port) == 1) {
      daemon.port = static_cast<std::uint16_t>(port);
      break;
    }
  }
  // Leak `out` deliberately: closing it would close the child's stdout
  // reader while the daemon still writes its drain message.
  return daemon;
}

// The crash drill: every acknowledged MUTATE must survive a SIGKILL —
// the journal commit marker is written before the reply, so a restarted
// daemon replays the namespace to the exact pre-crash version and
// fingerprint, and keeps accepting mutations from there.
TEST(StreamDaemon, SigkillRestartReplaysMutationsToExactVersion) {
  TempDir spool("sigkill_replay");
  const std::string karate = karate_text();
  VersionedGraph twin(read_edge_list_text(karate));

  const SpawnedDaemon first = spawn_daemon(spool.str());
  ASSERT_GT(first.pid, 0);
  ASSERT_NE(first.port, 0) << "daemon never announced LISTENING";
  {
    Client client;
    client.connect("127.0.0.1", first.port);
    MutateRequest create;
    create.ns = "crashy";
    create.base_graph = karate;
    ASSERT_EQ(client.mutate(create).outcome, MutateOutcome::kCreated);

    // Three acknowledged batches: insert, net-empty no-op, delete+insert.
    MutateRequest m1;
    m1.ns = "crashy";
    m1.base_version = 0;
    m1.ops.push_back({1, 0, 9});
    ASSERT_EQ(client.mutate(m1).outcome, MutateOutcome::kApplied);
    twin.apply({{EdgeOpKind::kInsert, 0, 9}});

    MutateRequest m2;
    m2.ns = "crashy";
    m2.base_version = 1;
    m2.ops.push_back({1, 9, 0});  // duplicate of the live edge: no-op
    ASSERT_EQ(client.mutate(m2).outcome, MutateOutcome::kApplied);
    twin.apply({{EdgeOpKind::kInsert, 9, 0}});

    MutateRequest m3;
    m3.ns = "crashy";
    m3.base_version = 2;
    m3.ops.push_back({2, 0, 9});
    m3.ops.push_back({1, 4, 9});
    const MutateReply acked = client.mutate(m3);
    ASSERT_EQ(acked.outcome, MutateOutcome::kApplied);
    twin.apply({{EdgeOpKind::kRemove, 0, 9}, {EdgeOpKind::kInsert, 4, 9}});
    ASSERT_EQ(acked.version, 3u);
    ASSERT_EQ(acked.fingerprint, twin.fingerprint());
  }

  ASSERT_EQ(::kill(first.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first.pid, &status, 0), first.pid);

  const SpawnedDaemon second = spawn_daemon(spool.str());
  ASSERT_GT(second.pid, 0);
  ASSERT_NE(second.port, 0);
  Client client;
  client.connect("127.0.0.1", second.port);

  // The replayed head: a stale-base MUTATE reports the exact pre-crash
  // version AND fingerprint — the whole chain was reconstructed.
  MutateRequest probe;
  probe.ns = "crashy";
  probe.base_version = 99;
  probe.ops.push_back({1, 1, 3});
  const MutateReply head = client.mutate(probe);
  ASSERT_EQ(head.outcome, MutateOutcome::kVersionConflict);
  EXPECT_EQ(head.version, 3u);
  EXPECT_EQ(head.fingerprint, twin.fingerprint());

  // The chain keeps extending across the crash boundary.
  probe.base_version = 3;
  const MutateReply extended = client.mutate(probe);
  ASSERT_EQ(extended.outcome, MutateOutcome::kApplied) << extended.detail;
  twin.apply({{EdgeOpKind::kInsert, 1, 3}});
  EXPECT_EQ(extended.version, 4u);
  EXPECT_EQ(extended.fingerprint, twin.fingerprint());

  // And the replayed graph serves the right bits.
  const SubmitReply reply = client.submit(stream_submit("crashy", 0));
  ASSERT_NE(reply.job_id, 0u) << reply.detail;
  const ResultBlock block = decode_block(client.wait_result(reply.job_id));
  const RunOutcome local =
      run_bc_with_watchdog(twin.head(), DistributedBcOptions{});
  ASSERT_EQ(local.status, RunStatus::kComplete);
  expect_bit_equal(block.betweenness, local.result.betweenness, "betweenness");
  EXPECT_EQ(block.eccentricities, local.result.eccentricities);

  EXPECT_TRUE(client.shutdown().draining);
  ASSERT_EQ(::waitpid(second.pid, &status, 0), second.pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}
#endif  // CONGESTBCD_PATH

}  // namespace
}  // namespace congestbc
