// Checkpoint/restore subsystem (src/snapshot) tests.
//
// The contract under test (DESIGN.md §9): a run resumed from a snapshot
// is indistinguishable from the uninterrupted run — bit-identical
// centralities, metrics, and trace streams — for any thread count,
// either engine, fault-free or under a mixed fault plan.  Malformed
// snapshot input must be rejected with SnapshotError, never UB.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "algo/bfs_tree.hpp"
#include "common/rng.hpp"
#include "congest/network.hpp"
#include "congest/reliable.hpp"
#include "congest/trace.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "gtest/gtest.h"
#include "snapshot/checkpoint.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshottable.hpp"

namespace congestbc {
namespace {

namespace fs = std::filesystem;

Graph load_data(const std::string& name) {
  const std::string path = std::string(CONGESTBC_DATA_DIR) + "/" + name;
  std::ifstream file(path);
  if (!file.good()) {
    throw std::runtime_error("cannot open " + path);
  }
  return read_edge_list(file);
}

/// Unique scratch directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("congestbc_snapshot_test_" + tag + "_" +
               std::to_string(static_cast<unsigned long>(::getpid())))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// The mixed adversity plan of the bit-identity matrix: hash-drawn drops,
/// duplicates, and delays plus a transient node crash and a transient
/// link outage.  Runs under the reliable transport, which also puts the
/// ReliableProgram ARQ state under snapshot test.
FaultPlan mixed_plan(const Graph& g) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_probability = 0.02;
  plan.duplicate_probability = 0.02;
  plan.delay_probability = 0.05;
  plan.node_faults.push_back(NodeFault{5, {20, 60}});
  // Down node 0's first incident link for a window; taken from the graph
  // so the plan validates on any test topology.
  plan.link_faults.push_back(LinkFault{{0, g.neighbors(0)[0]}, {30, 80}});
  return plan;
}

struct Variant {
  const char* name;
  bool faults;
  unsigned threads;
  bool legacy;
};

DistributedBcOptions make_options(const Graph& g, const Variant& v) {
  DistributedBcOptions options;
  options.threads = v.threads;
  options.legacy_engine = v.legacy;
  if (v.faults) {
    options.faults = mixed_plan(g);
    options.reliable_transport = true;
  }
  return options;
}

/// Runs to completion with a recording trace.
DistributedBcResult run_full(const Graph& g, const Variant& v,
                             MessageTrace& trace) {
  DistributedBcOptions options = make_options(g, v);
  options.trace = &trace;
  return run_distributed_bc(g, options);
}

/// Runs with halt_at_round, saves the suspension snapshot to `file`.
DistributedBcResult run_halted(const Graph& g, const Variant& v,
                               std::uint64_t halt_round,
                               const std::string& file, MessageTrace& trace) {
  DistributedBcOptions options = make_options(g, v);
  options.trace = &trace;
  options.halt_at_round = halt_round;
  BcRun run(g, options);
  run.run();
  EXPECT_TRUE(run.suspended());
  std::ofstream out(file, std::ios::binary);
  run.save_snapshot(out);
  return run.harvest();
}

/// Resumes from `file` and runs to completion.
DistributedBcResult run_resumed(const Graph& g, const Variant& v,
                                const std::string& file,
                                MessageTrace& trace) {
  DistributedBcOptions options = make_options(g, v);
  options.trace = &trace;
  options.resume_from = file;
  return run_distributed_bc(g, options);
}

void expect_identical_outputs(const DistributedBcResult& a,
                              const DistributedBcResult& b) {
  EXPECT_EQ(a.betweenness, b.betweenness);
  EXPECT_EQ(a.closeness, b.closeness);
  EXPECT_EQ(a.graph_centrality, b.graph_centrality);
  EXPECT_EQ(a.stress, b.stress);
  EXPECT_EQ(a.eccentricities, b.eccentricities);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics, b.metrics);
}

/// The tentpole assertion: halt at `halt_round`, save, resume in a fresh
/// network, and require outputs, metrics, and the trace stream to equal
/// the uninterrupted run exactly (full trace == halted prefix + resumed
/// suffix).
void check_boundary(const Graph& g, const Variant& v,
                    const DistributedBcResult& full,
                    const MessageTrace& full_trace, std::uint64_t halt_round,
                    const std::string& file) {
  SCOPED_TRACE(std::string(v.name) + " halt@" + std::to_string(halt_round));
  MessageTrace halted_trace;
  const DistributedBcResult halted =
      run_halted(g, v, halt_round, file, halted_trace);
  EXPECT_TRUE(halted.suspended);
  EXPECT_EQ(halted.rounds, halt_round);

  MessageTrace resumed_trace;
  const DistributedBcResult resumed = run_resumed(g, v, file, resumed_trace);
  EXPECT_FALSE(resumed.suspended);
  ASSERT_TRUE(resumed.resumed_from_round.has_value());
  EXPECT_EQ(*resumed.resumed_from_round, halt_round);
  expect_identical_outputs(full, resumed);

  std::vector<TraceEvent> stitched = halted_trace.events();
  stitched.insert(stitched.end(), resumed_trace.events().begin(),
                  resumed_trace.events().end());
  EXPECT_EQ(full_trace.events(), stitched);
  std::vector<FaultEvent> stitched_faults = halted_trace.fault_events();
  stitched_faults.insert(stitched_faults.end(),
                         resumed_trace.fault_events().begin(),
                         resumed_trace.fault_events().end());
  EXPECT_EQ(full_trace.fault_events(), stitched_faults);
}

void run_matrix(const std::string& graph_name, const Variant& v) {
  const Graph g = load_data(graph_name);
  TempDir dir(graph_name + "_" + v.name);
  MessageTrace full_trace;
  const DistributedBcResult full = run_full(g, v, full_trace);
  ASSERT_GE(full.rounds, 6u);
  if (v.faults) {
    // The plan must actually have injected something, or the matrix is
    // testing less than it claims.
    EXPECT_GT(full.metrics.dropped_messages + full.metrics.delayed_messages +
                  full.metrics.duplicated_messages,
              0u);
  }
  const std::uint64_t halts[] = {1, full.rounds / 3, 2 * full.rounds / 3};
  for (const std::uint64_t halt : halts) {
    check_boundary(g, v, full, full_trace, halt,
                   (dir.path() / ("snap-" + std::to_string(halt) + ".cbcsnap"))
                       .string());
  }
}

// ------------------------------------------------------------- container

TEST(SnapshotContainer, RoundTripPreservesBits) {
  BitWriter payload;
  payload.write(0b1011, 4);
  payload.write_varuint(123456789);
  payload.write_bool(true);
  std::stringstream stream;
  write_snapshot_container(stream, payload);
  const SnapshotPayload parsed = read_snapshot_container(stream);
  EXPECT_EQ(parsed.bits, payload.bit_size());
  BitReader r = parsed.reader();
  EXPECT_EQ(r.read(4), 0b1011u);
  EXPECT_EQ(r.read_varuint(), 123456789u);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotContainer, FieldHelpersRoundTrip) {
  BitWriter w;
  snap::put_u64(w, 0);
  snap::put_u64(w, ~0ull);
  snap::put_i64(w, -1);
  snap::put_i64(w, std::numeric_limits<std::int64_t>::min());
  snap::put_i64(w, std::numeric_limits<std::int64_t>::max());
  snap::put_bool(w, true);
  snap::put_double(w, -0.0);
  snap::put_double(w, 231.07142857142858);
  snap::put_long_double(w, 1.5L);
  snap::put_long_double(w, 0.0L);
  snap::put_long_double(w, -3.0e30L);
  const std::vector<std::uint8_t> blob{0xAB, 0xCD, 0x0F};
  snap::put_bits(w, blob.data(), 20);

  BitReader r(w.data(), w.bit_size());
  EXPECT_EQ(snap::get_u64(r), 0u);
  EXPECT_EQ(snap::get_u64(r), ~0ull);
  EXPECT_EQ(snap::get_i64(r), -1);
  EXPECT_EQ(snap::get_i64(r), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(snap::get_i64(r), std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(snap::get_bool(r));
  const double negzero = snap::get_double(r);
  EXPECT_EQ(negzero, 0.0);
  EXPECT_TRUE(std::signbit(negzero));
  EXPECT_EQ(snap::get_double(r), 231.07142857142858);
  EXPECT_EQ(snap::get_long_double(r), 1.5L);
  EXPECT_EQ(snap::get_long_double(r), 0.0L);
  EXPECT_EQ(snap::get_long_double(r), -3.0e30L);
  std::vector<std::uint8_t> got;
  EXPECT_EQ(snap::get_bits(r, got), 20u);
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 0xAB);
  EXPECT_EQ(got[1], 0xCD);
  EXPECT_EQ(got[2], 0x0F);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotContainer, RejectsGarbageAndTruncation) {
  BitWriter payload;
  payload.write_varuint(42);
  payload.write_varuint(1234567);
  std::stringstream stream;
  write_snapshot_container(stream, payload);
  const std::string bytes = stream.str();

  // Empty stream.
  {
    std::stringstream empty;
    EXPECT_THROW(read_snapshot_container(empty), SnapshotError);
  }
  // Truncation at every prefix length.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream cut(bytes.substr(0, len));
    EXPECT_THROW(read_snapshot_container(cut), SnapshotError)
        << "truncated to " << len << " bytes";
  }
  // Every single-byte corruption is caught (magic, version, lengths, or
  // the payload hash).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5A);
    std::stringstream bad(mutated);
    EXPECT_THROW(read_snapshot_container(bad), SnapshotError)
        << "corrupt byte " << i;
  }
}

// ------------------------------------------------------ checkpoint files

TEST(CheckpointFiles, NamePadsRoundForLexicographicOrder) {
  EXPECT_EQ(checkpoint_file_name(42), "ckpt-000000000042.cbcsnap");
  EXPECT_LT(checkpoint_file_name(999), checkpoint_file_name(1000));
}

TEST(CheckpointFiles, WriteListLatestAndPrune) {
  TempDir dir("ckpt_files");
  BitWriter payload;
  payload.write_varuint(1);
  for (const std::uint64_t round : {10u, 20u, 30u, 40u}) {
    const std::string path =
        write_checkpoint_file(dir.str(), round, payload, /*keep_last=*/2);
    EXPECT_TRUE(fs::exists(path));
  }
  const auto listed = list_checkpoints(dir.str());
  ASSERT_EQ(listed.size(), 2u);  // pruned to the newest two
  EXPECT_NE(listed[0].find("ckpt-000000000030"), std::string::npos);
  EXPECT_NE(listed[1].find("ckpt-000000000040"), std::string::npos);
  const auto latest = latest_checkpoint(dir.str());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, listed[1]);
  // No temp files left behind by the atomic write-rename.
  for (const auto& entry : fs::directory_iterator(dir.str())) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_TRUE(list_checkpoints(dir.str() + "/missing").empty());
  EXPECT_FALSE(latest_checkpoint(dir.str() + "/missing").has_value());
}

// ------------------------------------------- bit-identity, fault matrix

TEST(SnapshotResume, BitIdenticalKarateFaultFree) {
  run_matrix("karate.txt", Variant{"seq", false, 1, false});
}

TEST(SnapshotResume, BitIdenticalKarateFaultFreeAllThreads) {
  run_matrix("karate.txt", Variant{"par", false, 0, false});
}

TEST(SnapshotResume, BitIdenticalKarateMixedFaults) {
  run_matrix("karate.txt", Variant{"faults_seq", true, 1, false});
}

TEST(SnapshotResume, BitIdenticalKarateMixedFaultsAllThreads) {
  run_matrix("karate.txt", Variant{"faults_par", true, 0, false});
}

TEST(SnapshotResume, BitIdenticalLesmisFaultFree) {
  run_matrix("lesmis.txt", Variant{"seq", false, 1, false});
}

TEST(SnapshotResume, BitIdenticalLesmisMixedFaultsAllThreads) {
  run_matrix("lesmis.txt", Variant{"faults_par", true, 0, false});
}

TEST(SnapshotResume, BitIdenticalLegacyEngine) {
  run_matrix("karate.txt", Variant{"legacy", false, 1, true});
}

TEST(SnapshotResume, BitIdenticalLegacyEngineMixedFaults) {
  run_matrix("karate.txt", Variant{"legacy_faults", true, 1, true});
}

/// The snapshot format is engine-independent: a snapshot written by the
/// frontier engine resumes under the legacy engine (and vice versa) with
/// identical results.
TEST(SnapshotResume, CrossEngineResume) {
  const Graph g = load_data("karate.txt");
  TempDir dir("cross_engine");
  const Variant engine{"engine", false, 1, false};
  const Variant legacy{"legacy", false, 1, true};
  MessageTrace full_trace;
  const DistributedBcResult full = run_full(g, engine, full_trace);
  const std::uint64_t halt = full.rounds / 2;

  const std::string from_engine = (dir.path() / "engine.cbcsnap").string();
  MessageTrace t1;
  run_halted(g, engine, halt, from_engine, t1);
  MessageTrace t2;
  expect_identical_outputs(full, run_resumed(g, legacy, from_engine, t2));

  const std::string from_legacy = (dir.path() / "legacy.cbcsnap").string();
  MessageTrace t3;
  run_halted(g, legacy, halt, from_legacy, t3);
  MessageTrace t4;
  expect_identical_outputs(full, run_resumed(g, engine, from_legacy, t4));
}

/// Pins the PayloadArena corner: a message hit by a delay fault in round
/// r sits in the parking buffer (an *owning* copy of arena bytes) at the
/// round-(r+1) boundary.  Halting exactly there forces the snapshot to
/// carry the parked payload and the resumed run to re-deliver it.
TEST(SnapshotResume, DelayedMessageParkedAcrossBoundary) {
  const Graph g = load_data("karate.txt");
  TempDir dir("delay_boundary");
  const Variant v{"delay", true, 1, false};
  MessageTrace full_trace;
  const DistributedBcResult full = run_full(g, v, full_trace);
  ASSERT_GT(full.metrics.delayed_messages, 0u);
  std::uint64_t delay_round = 0;
  bool found = false;
  for (const FaultEvent& event : full_trace.fault_events()) {
    if (event.kind == FaultKind::kDelay && event.round + 1 < full.rounds) {
      delay_round = event.round;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "plan injected no usable delay fault";
  check_boundary(g, v, full, full_trace, delay_round + 1,
                 (dir.path() / "parked.cbcsnap").string());
}

// ------------------------------------------------- validation & rejects

TEST(SnapshotResume, RejectsForeignSnapshot) {
  const Graph karate = load_data("karate.txt");
  const Graph lesmis = load_data("lesmis.txt");
  TempDir dir("rejects");
  const std::string file = (dir.path() / "karate.cbcsnap").string();
  MessageTrace trace;
  run_halted(karate, Variant{"seq", false, 1, false}, 20, file, trace);

  const auto load_into = [&](const Graph& g, NetworkConfig config) {
    Network net(g, config);
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in.good());
    net.load_snapshot(in);
  };
  const std::uint64_t budget = congest_budget_bits(karate.num_nodes());

  // Wrong graph.
  EXPECT_THROW(load_into(lesmis, NetworkConfig{budget}), SnapshotError);
  // Wrong CONGEST budget.
  EXPECT_THROW(load_into(karate, NetworkConfig{budget + 1}), SnapshotError);
  // Wrong fault plan.
  {
    NetworkConfig config{budget};
    const FaultPlan plan = FaultPlan::uniform_drop(3, 0.1);
    config.faults = &plan;
    Network net(karate, config);
    std::ifstream in(file, std::ios::binary);
    EXPECT_THROW(net.load_snapshot(in), SnapshotError);
  }
  // Matching config is accepted.
  {
    Network net(karate, NetworkConfig{budget});
    std::ifstream in(file, std::ios::binary);
    net.load_snapshot(in);
  }
  // Missing file through the pipeline options.
  {
    DistributedBcOptions options;
    options.resume_from = (dir.path() / "nope.cbcsnap").string();
    EXPECT_THROW(run_distributed_bc(karate, options), SnapshotError);
  }
}

TEST(SnapshotResume, RejectsRowsOfAnotherSourceSet) {
  // The source set is common knowledge, so an L_v row for a node outside
  // it can only come from another run's snapshot: resume must refuse it.
  const Graph g = load_data("karate.txt");
  TempDir dir("sourceset");
  const std::string file = (dir.path() / "exact.cbcsnap").string();
  MessageTrace trace;
  const DistributedBcResult halted =
      run_halted(g, Variant{"seq", false, 1, false}, 150, file, trace);
  std::vector<bool> mask(g.num_nodes(), false);
  for (const NodeId s : {0u, 1u, 2u, 3u}) {
    mask[s] = true;
  }
  // Counting has begun: a node outside the mask has sent its own wave,
  // so the snapshot holds rows for a non-source.
  bool outsider_started = false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    outsider_started |= !mask[v] && halted.bfs_start_rounds[v] != 0;
  }
  ASSERT_TRUE(outsider_started);

  DistributedBcOptions options;
  options.sources = mask;
  options.resume_from = file;
  options.max_rounds = 2000;  // the uninterrupted exact run needs 294
  EXPECT_THROW(run_distributed_bc(g, options), SnapshotError);
}

TEST(SnapshotResume, RejectsResumeUnderAnotherSourceMask) {
  // Halted at round 60 of a 4-source run, before any other node's wave:
  // every L_v row lies inside both masks below, so only the per-node
  // source flags tell the runs apart.
  const Graph g = load_data("karate.txt");
  TempDir dir("sourcemask");
  const std::string file = (dir.path() / "four.cbcsnap").string();
  const auto mask_of = [&g](std::initializer_list<NodeId> sources) {
    std::vector<bool> mask(g.num_nodes(), false);
    for (const NodeId s : sources) {
      mask[s] = true;
    }
    return mask;
  };
  DistributedBcOptions options;
  options.sources = mask_of({0, 1, 2, 3});
  options.halt_at_round = 60;
  BcRun run(g, options);
  run.run();
  ASSERT_TRUE(run.suspended());
  {
    std::ofstream out(file, std::ios::binary);
    run.save_snapshot(out);
  }

  DistributedBcOptions same;
  same.sources = mask_of({0, 1, 2, 3});
  same.resume_from = file;
  EXPECT_TRUE(run_distributed_bc(g, same).resumed_from_round.has_value());

  // The superset would finish with node 33's wave missing (it passed the
  // DFS token on as a non-source); the subset would drop node 3's.
  for (const std::vector<bool>& mask :
       {mask_of({0, 1, 2, 3, 33}), mask_of({0, 1, 2})}) {
    DistributedBcOptions resume;
    resume.sources = mask;
    resume.resume_from = file;
    EXPECT_THROW(run_distributed_bc(g, resume), SnapshotError);
  }
}

/// Structural fuzz past the container hash: re-hash a mutated payload so
/// it reaches the section parsers, which must reject or accept cleanly —
/// never crash (the ASan/TSan jobs run this test too).
TEST(SnapshotResume, MutatedPayloadNeverCrashes) {
  const Graph g = load_data("karate.txt");
  TempDir dir("fuzz");
  const std::string file = (dir.path() / "seed.cbcsnap").string();
  MessageTrace trace;
  run_halted(g, Variant{"seq", false, 1, false}, 25, file, trace);
  std::ifstream in(file, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  // Container header: 8 magic + 4 version + 8 bits + 8 bytes + 8 hash.
  const std::size_t header = 36;
  const std::size_t payload_size = bytes.size() - header;
  ASSERT_GT(payload_size, 0u);

  Rng rng(99);
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const std::size_t pos =
        header + static_cast<std::size_t>(rng.next_below(payload_size));
    mutated[pos] = static_cast<char>(rng.next_u64() & 0xFF);
    // Recompute the container hash over the mutated payload so the
    // corruption reaches the field parsers.
    const std::uint64_t hash = fnv1a(
        reinterpret_cast<const std::uint8_t*>(mutated.data()) + header,
        payload_size);
    for (int b = 0; b < 8; ++b) {
      mutated[28 + static_cast<std::size_t>(b)] =
          static_cast<char>((hash >> (8 * b)) & 0xFF);
    }
    std::stringstream stream(mutated);
    Network net(g, NetworkConfig{congest_budget_bits(g.num_nodes())});
    try {
      net.load_snapshot(stream);
    } catch (const SnapshotError&) {
      ++rejected;  // the only permitted failure mode
    }
  }
  // Most random mutations must be caught by validation (a few may yield
  // a different-but-well-formed snapshot, which is fine).
  EXPECT_GT(rejected, 0);
}

TEST(SnapshotResume, SaveWithoutSuspensionThrows) {
  const Graph g = load_data("karate.txt");
  DistributedBcOptions options;
  BcRun run(g, options);
  run.run();
  EXPECT_FALSE(run.suspended());
  std::stringstream out;
  EXPECT_THROW(run.save_snapshot(out), SnapshotError);
}

TEST(SnapshotResume, WatchdogReportsSuspended) {
  const Graph g = load_data("karate.txt");
  DistributedBcOptions options;
  options.halt_at_round = 15;
  const RunOutcome outcome = run_bc_with_watchdog(g, options);
  EXPECT_EQ(outcome.status, RunStatus::kSuspended);
  EXPECT_FALSE(outcome.complete());
  EXPECT_TRUE(outcome.result.suspended);
  EXPECT_NE(outcome.summary().find("suspended"), std::string::npos);
}

// ------------------------------------------------------------- goldens
//
// The payload bits of three snapshots of gen::figure1_example (the
// paper's worked example, 5 nodes), pinned as hex in
// tests/goldens/snapshot_v1.hex.  The resume matrices and the field
// helper round trip would pass under any symmetric change to the
// encoding; these pin the encoding itself:
//   * exact_counting:    halted mid-counting — L_v rows with preds, the
//                        DFS-token and own-wave cursors, child reports;
//   * exact_aggregation: halted after every node learned the epoch, so
//                        each holds its Algorithm-3 send schedule;
//   * reliable_delay:    reliable transport under a delay plan, halted
//                        one round after a delay, so a parked message
//                        and non-empty stored/unacked ARQ state cross
//                        the boundary.
// Each golden must also load: every program blob the engine section
// yields re-saves to itself through a fresh program, and the run resumed
// from it and halted one round later equals the uninterrupted run halted
// there, byte for byte.
//
// Regenerating after an intentional layout change (which must also bump
// kSnapshotFormatVersion):
//   CONGESTBC_UPDATE_GOLDENS=1 ./build/tests/snapshot_test

std::string hex_of(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<std::uint8_t>(c);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(CONGESTBC_GOLDEN_DIR) + "/" + name;
  if (std::getenv("CONGESTBC_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  ASSERT_FALSE(expected.str().empty()) << "missing golden " << path;
  EXPECT_EQ(actual, expected.str())
      << "snapshot bits drifted from " << path
      << "; an intentional change must bump kSnapshotFormatVersion and "
         "regenerate with CONGESTBC_UPDATE_GOLDENS=1";
}

/// Holds one program blob verbatim: load_state keeps every bit it is
/// given, save_state writes them back.  Lets a test read the blobs out
/// of an engine section through the engine's own parser.
class BlobProgram final : public NodeProgram, public Snapshottable {
 public:
  void on_round(NodeContext&) override {}
  bool done() const override { return true; }
  void save_state(BitWriter& w) const override {
    w.append(blob_.data(), blob_.bit_size());
  }
  void load_state(BitReader& r) override {
    blob_.clear();
    while (r.remaining() > 0) {
      const unsigned chunk =
          r.remaining() >= 64 ? 64u : static_cast<unsigned>(r.remaining());
      blob_.write(r.read(chunk), chunk);
    }
  }
  const BitWriter& blob() const { return blob_; }

 private:
  BitWriter blob_;
};

struct GoldenSnapshot {
  const char* name;
  bool reliable;
  std::uint64_t halt;
};

/// Exact runs are fault-free; the reliable run delays 10% of messages.
DistributedBcOptions golden_options(bool reliable) {
  DistributedBcOptions options;
  if (reliable) {
    options.reliable_transport = true;
    options.faults.seed = 7;
    options.faults.delay_probability = 0.1;
  }
  return options;
}

std::string snapshot_bytes(BcRun& run) {
  EXPECT_TRUE(run.suspended());
  std::ostringstream out;
  run.save_snapshot(out);
  return out.str();
}

std::string halted_snapshot(const Graph& g, bool reliable,
                            std::uint64_t halt) {
  DistributedBcOptions options = golden_options(reliable);
  options.halt_at_round = halt;
  BcRun run(g, options);
  run.run();
  return snapshot_bytes(run);
}

/// The program blobs of `snapshot`, split out by Network::load_snapshot
/// and handed to BlobPrograms by the resumed run.
std::vector<BitWriter> program_blobs(const Graph& g, bool reliable,
                                     const std::string& snapshot) {
  const DistributedBcOptions options = golden_options(reliable);
  const std::uint64_t inner = congest_budget_bits(g.num_nodes());
  NetworkConfig config{reliable ? reliable_budget_bits(inner,
                                                       options.max_rounds)
                                : inner};
  config.faults = options.faults.empty() ? nullptr : &options.faults;
  Network net(g, config);
  std::istringstream in(snapshot);
  net.load_snapshot(in);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    programs.push_back(std::make_unique<BlobProgram>());
  }
  net.run(programs);
  std::vector<BitWriter> blobs;
  for (const auto& program : programs) {
    blobs.push_back(static_cast<const BlobProgram&>(*program).blob());
  }
  return blobs;
}

/// Loads `blob` into `program`, which must consume it exactly and save
/// the same bits back.
void expect_resaves_to_itself(Snapshottable& program, const BitWriter& blob,
                              const std::string& what) {
  BitReader r(blob.data(), blob.bit_size());
  program.load_state(r);
  EXPECT_EQ(r.remaining(), 0u) << what;
  BitWriter again;
  program.save_state(again);
  EXPECT_EQ(again.bit_size(), blob.bit_size()) << what;
  EXPECT_EQ(again.bytes(), blob.bytes()) << what;
}

TEST(SnapshotGolden, PayloadBitsMatchTheV1Goldens) {
  const Graph g = gen::figure1_example();
  ASSERT_EQ(g.num_nodes(), 5u);
  const GoldenSnapshot goldens[] = {
      {"exact_counting", false, 20},
      {"exact_aggregation", false, 45},
      {"reliable_delay", true, 17},
  };
  std::string text;
  for (const GoldenSnapshot& golden : goldens) {
    SCOPED_TRACE(golden.name);
    const std::string snapshot =
        halted_snapshot(g, golden.reliable, golden.halt);
    text += std::string(golden.name) + " " + hex_of(snapshot) + "\n";

    // Each program blob re-saves to itself through a fresh program.
    DistributedBcOptions fresh_options = golden_options(golden.reliable);
    BcRun fresh(g, fresh_options);
    const std::vector<BitWriter> blobs =
        program_blobs(g, golden.reliable, snapshot);
    ASSERT_EQ(blobs.size(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::string node = "node " + std::to_string(v);
      BitWriter inner = blobs[v];
      if (golden.reliable) {
        ReliableProgram transport(std::make_unique<BlobProgram>());
        expect_resaves_to_itself(transport, blobs[v], node + " transport");
        inner = static_cast<const BlobProgram&>(transport.inner()).blob();
      }
      expect_resaves_to_itself(*fresh.views()[v], inner, node + " program");
    }

    // The engine section loads exactly: resumed and halted one round
    // later, the run saves what the uninterrupted run saves there.
    const std::string path =
        (fs::temp_directory_path() /
         ("congestbc_snapshot_golden_" + std::string(golden.name) + "_" +
          std::to_string(static_cast<unsigned long>(::getpid())) +
          ".cbcsnap"))
            .string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << snapshot;
    }
    DistributedBcOptions resume = golden_options(golden.reliable);
    resume.resume_from = path;
    resume.halt_at_round = golden.halt + 1;
    BcRun resumed(g, resume);
    resumed.run();
    fs::remove(path);
    EXPECT_EQ(snapshot_bytes(resumed),
              halted_snapshot(g, golden.reliable, golden.halt + 1));
  }

  // Each golden shows the state it was chosen for.
  {
    DistributedBcOptions counting = golden_options(false);
    counting.halt_at_round = 20;
    BcRun run(g, counting);
    run.run();
    bool preds = false;
    for (const BcProgram* program : run.views()) {
      for (const SourceEntry& entry : program->table()) {
        preds |= !entry.preds.empty();
      }
      EXPECT_EQ(program->outputs().aggregation_epoch, 0u);
    }
    EXPECT_TRUE(preds);
  }
  {
    DistributedBcOptions aggregation = golden_options(false);
    aggregation.halt_at_round = 45;
    BcRun run(g, aggregation);
    run.run();
    bool unfinished = false;
    for (const BcProgram* program : run.views()) {
      EXPECT_NE(program->outputs().aggregation_epoch, 0u);
      unfinished |= program->outputs().finish_round == 0;
    }
    EXPECT_TRUE(unfinished);
  }
  {
    MessageTrace trace;
    DistributedBcOptions delayed = golden_options(true);
    delayed.trace = &trace;
    delayed.halt_at_round = 17;
    BcRun run(g, delayed);
    run.run();
    bool delay_before_halt = false;
    for (const FaultEvent& event : trace.fault_events()) {
      delay_before_halt |= event.kind == FaultKind::kDelay && event.round == 16;
    }
    EXPECT_TRUE(delay_before_halt);
  }
  expect_matches_golden("snapshot_v1.hex", text);
}

// ---------------------------------------------------- checked narrowing
//
// A varuint wider than its field is rejected with SnapshotError instead
// of truncated: a hash-valid checkpoint or MIGRATE snapshot with parent =
// 2^32 + 1 used to resume with parent 1.  Every field still loads its
// maximum.  The blobs are built field by field with the snap:: helpers.

constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();

/// A TreeBuilder blob; `f` holds its 32-bit fields in layout order: dist,
/// parent, the one child, the one child report's count and depth, and
/// the subtree count and depth.
void put_tree(BitWriter& w, const std::vector<std::uint64_t>& f) {
  snap::put_bool(w, true);   // started
  snap::put_bool(w, true);   // has_dist
  snap::put_u64(w, f[0]);    // dist
  snap::put_u64(w, f[1]);    // parent
  snap::put_u64(w, 5);       // wave_round
  snap::put_bool(w, true);   // children_final
  snap::put_u64(w, 1);       // one child
  snap::put_u64(w, f[2]);
  snap::put_u64(w, 1);       // one child report
  snap::put_u64(w, f[3]);
  snap::put_u64(w, f[4]);
  snap::put_bool(w, true);   // subtree_reported
  snap::put_bool(w, false);  // tree_complete
  snap::put_u64(w, f[5]);    // subtree_count
  snap::put_u64(w, f[6]);    // subtree_depth
}

void put_soft(BitWriter& w) {
  snap::put_u64(w, 0x80);  // mantissa
  snap::put_i64(w, -3);    // exponent
}

/// A BcProgram blob for node 0 of an exact run (a source) with one L_v
/// row; `f` holds its 32-bit fields in layout order: the row's dist and
/// one predecessor, the depth estimate, the eccentricity reports and
/// maximum, the diameter, and the output eccentricity and diameter.
BitWriter bc_blob(const std::vector<std::uint64_t>& f) {
  BitWriter w;
  snap::put_bool(w, true);  // source flag
  put_tree(w, {1, 0, 2, 1, 1, 1, 1});
  snap::put_u64(w, 1);      // one row
  snap::put_u64(w, 0);      //   source
  snap::put_u64(w, 7);      //   t_start
  snap::put_u64(w, f[0]);   //   dist
  put_soft(w);              //   sigma
  snap::put_u64(w, 1);      //   one predecessor
  snap::put_u64(w, f[1]);
  put_soft(w);              //   psi
  put_soft(w);              //   lambda
  snap::put_u64(w, 0);      //   agg_send_round
  snap::put_bool(w, true);  // dfs_visited
  snap::put_u64(w, f[2]);   // depth_estimate
  snap::put_u64(w, 0);      // next_child
  snap::put_bool(w, false);  // no pending token round
  snap::put_bool(w, false);  // no own-wave round
  snap::put_u64(w, 3);      // my_bfs_round
  snap::put_u64(w, f[3]);   // ecc_reports
  snap::put_u64(w, f[4]);   // ecc_max
  snap::put_bool(w, false);  // ecc_sent
  snap::put_bool(w, false);  // phase_down_seen
  snap::put_u64(w, f[5]);   // diameter
  snap::put_u64(w, 0);      // epoch
  snap::put_u64(w, 0);      // empty aggregation schedule
  snap::put_u64(w, 0);      // agg_cursor
  snap::put_u64(w, 0);      // finalize_round
  snap::put_double(w, 0.0);
  snap::put_double(w, 0.0);
  snap::put_double(w, 0.0);
  snap::put_long_double(w, 0.0L);
  snap::put_u64(w, f[6]);   // output eccentricity
  snap::put_u64(w, 0);      // sum_distances
  snap::put_u64(w, f[7]);   // output diameter
  snap::put_u64(w, 0);      // aggregation_epoch
  snap::put_u64(w, 0);      // finish_round
  snap::put_bool(w, false);  // finished
  return w;
}

/// True when `program` accepts `blob` and consumes all of it; false on
/// SnapshotError.
bool loads(Snapshottable& program, const BitWriter& blob) {
  BitReader r(blob.data(), blob.bit_size());
  try {
    program.load_state(r);
  } catch (const SnapshotError&) {
    return false;
  }
  return r.remaining() == 0;
}

/// Each field at its maximum loads; one past it is rejected.
template <class Load>
void expect_checked_fields(std::size_t num_fields, const Load& load) {
  for (std::size_t i = 0; i < num_fields; ++i) {
    SCOPED_TRACE("field " + std::to_string(i));
    std::vector<std::uint64_t> fields(num_fields, kMax32);
    EXPECT_TRUE(load(fields));
    fields[i] = kMax32 + 2;  // 2^32 + 1: would truncate to 1
    EXPECT_FALSE(load(fields));
  }
}

TEST(SnapshotNarrowing, TreeFieldsWiderThanTheirTypeAreRejected) {
  const WireFormat fmt = WireFormat::for_graph(5, SoftFloatFormat::for_graph(5));
  expect_checked_fields(7, [&fmt](const std::vector<std::uint64_t>& f) {
    BfsTreeProgram program(1, 0, fmt);
    BitWriter blob;
    put_tree(blob, f);
    return loads(program, blob);
  });
}

TEST(SnapshotNarrowing, BcProgramFieldsWiderThanTheirTypeAreRejected) {
  const Graph g = gen::figure1_example();
  expect_checked_fields(8, [&g](const std::vector<std::uint64_t>& f) {
    BcRun fresh(g, DistributedBcOptions{});
    return loads(*fresh.views()[0], bc_blob(f));
  });
}

TEST(SnapshotNarrowing, ReliablePeerIdWiderThanItsTypeIsRejected) {
  const WireFormat fmt = WireFormat::for_graph(5, SoftFloatFormat::for_graph(5));
  expect_checked_fields(1, [&fmt](const std::vector<std::uint64_t>& f) {
    ReliableProgram program(std::make_unique<BfsTreeProgram>(1, 0, fmt));
    BitWriter inner;
    put_tree(inner, {1, 0, 2, 1, 1, 1, 1});
    BitWriter blob;
    snap::put_bool(blob, true);   // initialized
    snap::put_bool(blob, false);  // quiet
    snap::put_u64(blob, 4);       // executed
    snap::put_u64(blob, 0);       // retransmissions
    snap::put_u64(blob, 1);       // one peer
    snap::put_u64(blob, f[0]);    //   id
    snap::put_u64(blob, 2);       //   known_prefix
    snap::put_u64(blob, 2);       //   peer_produced
    snap::put_bool(blob, false);  //   peer_quiet
    snap::put_u64(blob, 0);       //   nothing stored
    snap::put_u64(blob, 0);       //   nothing unacked
    snap::put_u64(blob, 1);       //   acked
    snap::put_bool(blob, false);  //   polled_needy
    snap::put_bits(blob, inner.data(), inner.bit_size());
    return loads(program, blob);
  });
}

// ------------------------------------------------- periodic checkpoints

/// Checkpoint policy on the checked-in 2000-node Barabási–Albert graph
/// (data/ba_2000.txt, generated by `congestbc_cli --generate ba --n 2000
/// --seed 1 --dump-graph`): checkpoints land every N rounds, pruning
/// keeps the newest K on disk, and resuming from the newest checkpoint
/// reproduces the uninterrupted run exactly.
TEST(SnapshotResume, PeriodicCheckpointsOnBa2000) {
  const Graph g = load_data("ba_2000.txt");
  ASSERT_EQ(g.num_nodes(), 2000u);
  TempDir dir("ba2000");

  DistributedBcOptions options;
  // Three sampled sources keep the runtime test-sized; the token still
  // walks all 2000 nodes, so the run is long enough for many boundaries.
  std::vector<bool> sources(g.num_nodes(), false);
  sources[0] = sources[700] = sources[1500] = true;
  options.sources = sources;
  options.threads = 0;
  const DistributedBcResult full = run_distributed_bc(g, options);
  ASSERT_GT(full.rounds, 3000u);

  DistributedBcOptions ckpt_options = options;
  ckpt_options.checkpoint_every = 1024;
  ckpt_options.checkpoint_dir = dir.str();
  ckpt_options.checkpoint_keep_last = 2;
  const DistributedBcResult with_ckpts =
      run_distributed_bc(g, ckpt_options);
  expect_identical_outputs(full, with_ckpts);
  EXPECT_GE(with_ckpts.checkpoints.size(), 3u);  // paths as written
  const auto on_disk = list_checkpoints(dir.str());
  ASSERT_EQ(on_disk.size(), 2u);  // pruned to keep_last

  DistributedBcOptions resume_options = options;
  resume_options.resume_from = on_disk.back();
  const DistributedBcResult resumed =
      run_distributed_bc(g, resume_options);
  ASSERT_TRUE(resumed.resumed_from_round.has_value());
  expect_identical_outputs(full, resumed);
}

// --------------------------------------------------------- CLI e2e kill

int run_cli(const std::string& args, const std::string& stdout_file) {
  const std::string cmd = std::string(CONGESTBC_CLI_PATH) + " " + args +
                          " > " + stdout_file + " 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::string> result_lines(const std::string& file) {
  std::ifstream in(file);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    // Keep the result table and the outcome line; drop lineage lines
    // (present only on the resumed run) and checkpoint paths.
    if (line.rfind("resumed from round", 0) == 0 ||
        line.rfind("checkpoint:", 0) == 0) {
      continue;
    }
    lines.push_back(line);
  }
  return lines;
}

TEST(SnapshotCli, KillAndResumeEndToEnd) {
  TempDir dir("cli");
  const std::string karate = std::string(CONGESTBC_DATA_DIR) + "/karate.txt";
  const std::string full_out = (dir.path() / "full.txt").string();
  const std::string halted_out = (dir.path() / "halted.txt").string();
  const std::string resumed_out = (dir.path() / "resumed.txt").string();
  const std::string ckpt_dir = (dir.path() / "ckpts").string();

  // Uninterrupted reference through the same (watchdogged) code path: a
  // halt round beyond the run length never fires.
  ASSERT_EQ(run_cli(karate + " --all --halt-at-round 99999999", full_out), 0);
  // "Kill": suspend at round 40; exit code 3 marks a resumable stop.
  ASSERT_EQ(run_cli(karate + " --all --halt-at-round 40 --checkpoint-dir " +
                        ckpt_dir,
                    halted_out),
            3);
  const auto latest = latest_checkpoint(ckpt_dir);
  ASSERT_TRUE(latest.has_value());
  // Resume from the written snapshot; the report must match the
  // uninterrupted run line for line.
  ASSERT_EQ(run_cli(karate + " --all --resume " + *latest, resumed_out), 0);
  EXPECT_EQ(result_lines(full_out), result_lines(resumed_out));
}

}  // namespace
}  // namespace congestbc
