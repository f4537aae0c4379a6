// Chaos-hardening tests for the serving path (ctest label: chaos).
//
// Three layers, matching the robustness contract:
//   * SpoolJournal: the admit/terminal lifecycle log survives kill -9 —
//     torn tails truncate away, corrupt records end replay at the last
//     intact prefix, and net admit counts distinguish live work from the
//     leftovers of finished work.
//   * ChaosProxy + RetryingClient: under every seeded plan of socket
//     adversity (corruption, stalls, torn frames, RSTs, partial writes)
//     the self-healing client converges on the byte-identical result a
//     clean run produces, or a typed error within its deadline — never a
//     hang, never a duplicated execution.
//   * Crash-safe daemon state: startup quarantines corrupt spool/cache/
//     checkpoint files instead of trusting or dying on them, stale .req
//     files of journal-retired jobs are removed (not re-run), and client
//     deadlines are enforced at admission, in the queue, and mid-run.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "common/assert.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "gtest/gtest.h"
#include "service/chaos.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"
#include "snapshot/snapshot.hpp"

namespace congestbc::service {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("congestbc_chaos_test_" + tag + "_" +
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

class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonConfig config) : daemon_(std::move(config)) {
    daemon_.start();
    daemon_.serve_async();
  }
  ~DaemonHarness() { stop(); }

  void stop() {
    if (!stopped_) {
      daemon_.request_drain();
      daemon_.wait();
      stopped_ = true;
    }
  }

  Daemon& daemon() { return daemon_; }

  void connect(Client& client) { client.connect("127.0.0.1", daemon_.port()); }

 private:
  Daemon daemon_;
  bool stopped_ = false;
};

std::string data_file(const std::string& name) {
  std::ifstream in(std::string(CONGESTBC_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing data file " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SubmitRequest inline_submit(const std::string& text) {
  SubmitRequest submit;
  submit.source = GraphSource::kInline;
  submit.graph = text;
  return submit;
}

/// Bit-exact comparison of a served block against a direct local run —
/// the daemon (and every chaos layer in front of it) adds serving, not
/// numerics.
void expect_matches_local_run(const ResultReply& reply, const Graph& graph,
                              const DistributedBcOptions& options) {
  ASSERT_TRUE(reply.ready) << reply.detail;
  BitReader reader(reply.block_bytes.data(),
                   static_cast<std::size_t>(reply.block_bits));
  const ResultBlock block = decode_result_block(reader);
  const RunOutcome fresh = run_bc_with_watchdog(graph, options);
  ASSERT_EQ(fresh.status, RunStatus::kComplete) << fresh.detail;
  EXPECT_EQ(block.run_status, static_cast<std::uint8_t>(RunStatus::kComplete));
  EXPECT_EQ(block.rounds, fresh.result.rounds);
  EXPECT_EQ(block.diameter, fresh.result.diameter);
  EXPECT_EQ(block.total_bits, fresh.result.metrics.total_bits);
  ASSERT_EQ(block.betweenness.size(), fresh.result.betweenness.size());
  for (std::size_t v = 0; v < block.betweenness.size(); ++v) {
    EXPECT_EQ(block.betweenness[v], fresh.result.betweenness[v]) << v;
  }
  EXPECT_EQ(block.eccentricities, fresh.result.eccentricities);
}

// ------------------------------------------------------ spool journal

TEST(SpoolJournal, FreshFileRecoversEmpty) {
  TempDir dir("journal_fresh");
  SpoolJournal journal((dir.path() / "journal.log").string());
  const SpoolJournal::Recovery recovery = journal.open_and_recover();
  EXPECT_TRUE(recovery.live.empty());
  EXPECT_TRUE(recovery.retired.empty());
  EXPECT_EQ(recovery.records, 0u);
  EXPECT_EQ(recovery.torn_bytes, 0u);
}

TEST(SpoolJournal, NetCountsSeparateLiveFromRetired) {
  TempDir dir("journal_net");
  const std::string path = (dir.path() / "journal.log").string();
  {
    SpoolJournal journal(path);
    journal.open_and_recover();
    journal.append(SpoolJournal::Record::kAdmit, 0xAAAA);
    journal.append(SpoolJournal::Record::kAdmit, 0xBBBB);
    journal.append(SpoolJournal::Record::kTerminal, 0xBBBB);
  }
  SpoolJournal journal(path);
  const SpoolJournal::Recovery recovery = journal.open_and_recover();
  ASSERT_EQ(recovery.live.size(), 1u);
  EXPECT_EQ(recovery.live[0], 0xAAAAu);
  ASSERT_EQ(recovery.retired.size(), 1u);
  EXPECT_EQ(recovery.retired[0], 0xBBBBu);
  EXPECT_EQ(recovery.records, 3u);
}

TEST(SpoolJournal, AdmitTerminalAdmitCycleIsLiveAgain) {
  TempDir dir("journal_cycle");
  const std::string path = (dir.path() / "journal.log").string();
  {
    SpoolJournal journal(path);
    journal.open_and_recover();
    journal.append(SpoolJournal::Record::kAdmit, 7);
    journal.append(SpoolJournal::Record::kTerminal, 7);
    journal.append(SpoolJournal::Record::kAdmit, 7);
  }
  SpoolJournal journal(path);
  const SpoolJournal::Recovery recovery = journal.open_and_recover();
  ASSERT_EQ(recovery.live.size(), 1u);
  EXPECT_EQ(recovery.live[0], 7u);
  EXPECT_TRUE(recovery.retired.empty());
}

TEST(SpoolJournal, TornTailIsTruncatedAndFileStaysAppendable) {
  TempDir dir("journal_torn");
  const std::string path = (dir.path() / "journal.log").string();
  {
    SpoolJournal journal(path);
    journal.open_and_recover();
    journal.append(SpoolJournal::Record::kAdmit, 1);
    journal.append(SpoolJournal::Record::kAdmit, 2);
  }
  {
    // The half record a kill -9 mid-append can leave behind.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x01garbage", 7);
  }
  {
    SpoolJournal journal(path);
    const SpoolJournal::Recovery recovery = journal.open_and_recover();
    EXPECT_EQ(recovery.records, 2u);
    EXPECT_EQ(recovery.torn_bytes, 7u);
    EXPECT_EQ(recovery.live.size(), 2u);
    journal.append(SpoolJournal::Record::kTerminal, 1);
  }
  SpoolJournal journal(path);
  const SpoolJournal::Recovery recovery = journal.open_and_recover();
  EXPECT_EQ(recovery.records, 3u);
  EXPECT_EQ(recovery.torn_bytes, 0u);
  ASSERT_EQ(recovery.live.size(), 1u);
  EXPECT_EQ(recovery.live[0], 2u);
}

TEST(SpoolJournal, CorruptRecordEndsReplayAtLastIntactPrefix) {
  TempDir dir("journal_corrupt");
  const std::string path = (dir.path() / "journal.log").string();
  {
    SpoolJournal journal(path);
    journal.open_and_recover();
    journal.append(SpoolJournal::Record::kAdmit, 1);
    journal.append(SpoolJournal::Record::kAdmit, 2);
    journal.append(SpoolJournal::Record::kAdmit, 3);
  }
  {
    // Flip one byte inside the second record: its FNV guard must catch it
    // and replay must stop there (everything after is untrustworthy).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(17 + 5);
    f.put('\x5A');
  }
  SpoolJournal journal(path);
  const SpoolJournal::Recovery recovery = journal.open_and_recover();
  EXPECT_EQ(recovery.records, 1u);
  ASSERT_EQ(recovery.live.size(), 1u);
  EXPECT_EQ(recovery.live[0], 1u);
}

TEST(SpoolJournal, CompactEmptyDropsHistory) {
  TempDir dir("journal_compact");
  const std::string path = (dir.path() / "journal.log").string();
  SpoolJournal journal(path);
  journal.open_and_recover();
  journal.append(SpoolJournal::Record::kAdmit, 11);
  journal.append(SpoolJournal::Record::kTerminal, 11);
  journal.compact({});
  journal.append(SpoolJournal::Record::kAdmit, 22);
  journal.close();

  SpoolJournal reopened(path);
  const SpoolJournal::Recovery recovery = reopened.open_and_recover();
  EXPECT_EQ(recovery.records, 1u);
  ASSERT_EQ(recovery.live.size(), 1u);
  EXPECT_EQ(recovery.live[0], 22u);
}

// --------------------------------------------------------- chaos plan

TEST(ChaosPlanSpec, ParsesEveryKeyAndDescribes) {
  const ChaosPlan plan = ChaosPlan::parse(
      "seed=9,corrupt=0.1,stall=0.2,cut=0.05,rst=0.01,stall-ms=7,"
      "partial=64,grace=3");
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.corrupt_probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.stall_probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.cut_probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.rst_probability, 0.01);
  EXPECT_EQ(plan.stall_ms, 7u);
  EXPECT_EQ(plan.partial_cap, 64u);
  EXPECT_EQ(plan.grace_chunks, 3u);
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.describe().empty());
  EXPECT_TRUE(ChaosPlan{}.empty());
}

TEST(ChaosPlanSpec, RejectsGarbage) {
  EXPECT_THROW(ChaosPlan::parse("corrupt=1.5"), PreconditionError);
  EXPECT_THROW(ChaosPlan::parse("corrupt=0.6,stall=0.6"), PreconditionError);
  EXPECT_THROW(ChaosPlan::parse("nosuchkey=1"), PreconditionError);
  EXPECT_THROW(ChaosPlan::parse("corrupt"), PreconditionError);
}

TEST(ChaosProxyRelay, EmptyPlanIsAFaithfulRelay) {
  DaemonHarness harness(DaemonConfig{});
  ChaosProxy proxy(ChaosPlan{}, "127.0.0.1", harness.daemon().port());
  proxy.start();

  const std::string karate = data_file("karate.txt");
  Client via_proxy;
  via_proxy.connect("127.0.0.1", proxy.port());
  const SubmitReply admitted = via_proxy.submit(inline_submit(karate));
  ASSERT_NE(admitted.job_id, 0u) << admitted.detail;
  const ResultReply reply = via_proxy.wait_result(admitted.job_id);
  expect_matches_local_run(reply, read_edge_list_text(karate),
                           DistributedBcOptions{});
  proxy.stop();
  EXPECT_GE(proxy.stats().connections.load(), 1u);
  EXPECT_EQ(proxy.stats().corrupted.load(), 0u);
  EXPECT_EQ(proxy.stats().cut.load(), 0u);
}

// ------------------------------------------- the self-healing matrix

RetryPolicy chaos_policy(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 100;
  policy.jitter_seed = seed;
  policy.overall_deadline_ms = 60'000;
  policy.attempt_timeout_ms = 10'000;
  policy.poll_ms = 5;
  return policy;
}

// Every seeded plan of moderate adversity must converge on the
// byte-identical result of a clean local run — the acceptance criterion
// of the chaos matrix.  Plans are chosen so each primary fault kind
// (corruption, stalls, torn frames, partial writes, mixtures) fires.
TEST(ChaosMatrix, SeededPlansConvergeToByteIdenticalResults) {
  const std::string karate = data_file("karate.txt");
  const Graph graph = read_edge_list_text(karate);
  const std::vector<std::string> specs = {
      "seed=1,corrupt=0.08,grace=1",
      "seed=2,stall=0.3,stall-ms=10",
      "seed=3,cut=0.06,grace=2",
      "seed=4,partial=48",
      "seed=5,corrupt=0.04,stall=0.1,stall-ms=5,cut=0.03,partial=256,grace=2",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    DaemonHarness harness(DaemonConfig{});
    ChaosProxy proxy(ChaosPlan::parse(spec), "127.0.0.1",
                     harness.daemon().port());
    proxy.start();

    RetryingClient client("127.0.0.1", proxy.port(),
                          chaos_policy(proxy.plan().seed));
    const ResultReply reply = client.submit_and_wait(inline_submit(karate));
    expect_matches_local_run(reply, graph, DistributedBcOptions{});
    EXPECT_GE(client.stats().attempts, 1u);
    proxy.stop();
    EXPECT_GT(proxy.stats().chunks.load(), 0u);

    // Exactly one execution happened, however many attempts the healing
    // needed: retries coalesced or hit the cache, they never re-ran.
    Client direct;
    harness.connect(direct);
    const StatsReply stats = direct.stats();
    EXPECT_EQ(stats.jobs_completed, 1u) << "retries must not duplicate work";
    EXPECT_EQ(stats.retried_submits + 1, client.stats().attempts);
  }
}

// A hostile plan may defeat the budget — but the failure must be a typed
// error within the deadline, never a hang, and the daemon must survive.
TEST(ChaosMatrix, HostilePlanYieldsResultOrTypedErrorWithinDeadline) {
  const std::string karate = data_file("karate.txt");
  DaemonHarness harness(DaemonConfig{});
  ChaosProxy proxy(ChaosPlan::parse("seed=11,corrupt=0.45,rst=0.35"),
                   "127.0.0.1", harness.daemon().port());
  proxy.start();

  RetryPolicy policy = chaos_policy(11);
  policy.overall_deadline_ms = 5'000;
  RetryingClient client("127.0.0.1", proxy.port(), policy);

  const auto t0 = std::chrono::steady_clock::now();
  bool typed_outcome = false;
  try {
    const ResultReply reply = client.submit_and_wait(inline_submit(karate));
    typed_outcome = reply.ready;
  } catch (const RetryError&) {
    typed_outcome = true;  // typed failure is an acceptable cell outcome
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_TRUE(typed_outcome);
  EXPECT_LT(elapsed, 30'000) << "retry loop must respect its deadline";
  proxy.stop();

  // The daemon took corrupted frames and RSTs on the chin and serves on.
  Client direct;
  harness.connect(direct);
  const SubmitReply after = direct.submit(inline_submit(karate));
  EXPECT_NE(after.job_id, 0u) << after.detail;
  EXPECT_TRUE(direct.wait_result(after.job_id).ready);
}

// ------------------------------------------------- crash-safe state

/// Writes a spool job file exactly as Daemon::spool_write_job does, for
/// the default-config canonical form of an inline submit of `text`.
std::uint64_t craft_spool_req(const fs::path& spool, const std::string& text) {
  const Graph graph = read_edge_list_text(text);
  DistributedBcOptions options;
  options.halve = true;
  options.max_rounds = 50'000'000;  // DaemonConfig default cap
  options.threads = 1;              // DaemonConfig default_threads
  const std::uint64_t fp = run_fingerprint(graph, options);

  SubmitRequest canonical;
  canonical.source = GraphSource::kInline;
  canonical.graph = write_edge_list_text(graph);
  canonical.max_rounds = options.max_rounds;

  BitWriter payload;
  payload.write_varuint(1);  // kSpoolVersion
  snap::put_u64(payload, fp);
  const BitWriter request = encode_request(make_submit(canonical));
  snap::put_bits(payload, request.data(), request.bit_size());

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp));
  fs::create_directories(spool / "jobs");
  std::ofstream out(spool / "jobs" / ("job-" + std::string(hex) + ".req"),
                    std::ios::binary | std::ios::trunc);
  write_snapshot_container(out, payload);
  return fp;
}

/// Writes a spool job file as a protocol-v6 daemon left it on a drain:
/// the same container as craft_spool_req, but the SUBMIT built field by
/// field in the v6 layout, which carried a legacy_engine flag after
/// `threads` and an engine hint after sample_seed.  Nothing in the file
/// names the protocol version.
std::uint64_t craft_v6_spool_req(const fs::path& spool,
                                 const std::string& text) {
  const Graph graph = read_edge_list_text(text);
  DistributedBcOptions options;
  options.halve = true;
  options.max_rounds = 50'000'000;  // DaemonConfig default cap
  options.threads = 1;              // DaemonConfig default_threads
  const std::uint64_t fp = run_fingerprint(graph, options);

  const auto put_string = [](BitWriter& w, const std::string& str) {
    w.write_varuint(str.size());
    for (const char c : str) {
      w.write(static_cast<std::uint8_t>(c), 8);
    }
  };
  BitWriter request;
  request.write_varuint(static_cast<std::uint64_t>(MsgType::kSubmit));
  request.write_varuint(0);                          // source: kInline
  put_string(request, write_edge_list_text(graph));  // graph
  request.write_bool(true);                          // halve
  request.write_bool(false);                         // reliable
  put_string(request, "");                           // faults
  request.write_varuint(options.max_rounds);         // max_rounds
  request.write_varuint(0);                          // threads
  request.write_bool(false);                         // legacy_engine (v6)
  request.write_varuint(0);                          // deadline_ms
  request.write_varuint(1);                          // attempt
  put_string(request, "");                           // stream_ns
  request.write_varuint(0);                          // stream_version
  request.write_bool(false);                         // incremental
  request.write_varuint(1);                          // backend: paper_exact
  request.write_varuint(0);                          // samples
  request.write_varuint(0);                          // sample_seed
  request.write_varuint(0);                          // engine (v6): frontier

  BitWriter payload;
  payload.write_varuint(1);  // kSpoolVersion
  snap::put_u64(payload, fp);
  snap::put_bits(payload, request.data(), request.bit_size());

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp));
  fs::create_directories(spool / "jobs");
  std::ofstream out(spool / "jobs" / ("job-" + std::string(hex) + ".req"),
                    std::ios::binary | std::ios::trunc);
  write_snapshot_container(out, payload);
  return fp;
}

// kill -9 landing between a job's TERMINAL journal record and its .req
// unlink must not re-run the job: the journal remembers it finished.
TEST(CrashSafety, JournalRetiredStaleReqIsRemovedNotRerun) {
  TempDir spool("retired_req");
  const std::uint64_t fp = craft_spool_req(spool.path(), data_file("karate.txt"));
  {
    SpoolJournal journal((spool.path() / "journal.log").string());
    journal.open_and_recover();
    journal.append(SpoolJournal::Record::kAdmit, fp);
    journal.append(SpoolJournal::Record::kTerminal, fp);
  }

  DaemonConfig config;
  config.spool_dir = spool.str();
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);
  EXPECT_EQ(client.stats().jobs_resumed, 0u)
      << "a journal-retired job must never be re-run";
  EXPECT_FALSE(fs::exists(spool.path() / "jobs" /
                          ("job-" + [&] {
                            char hex[17];
                            std::snprintf(hex, sizeof hex, "%016llx",
                                          static_cast<unsigned long long>(fp));
                            return std::string(hex);
                          }() + ".req")));
}

// The converse: an ADMIT with no TERMINAL is live work, resumed on start.
TEST(CrashSafety, JournalLiveReqIsResumedAndServesCorrectBits) {
  TempDir spool("live_req");
  const std::string karate = data_file("karate.txt");
  const std::uint64_t fp = craft_spool_req(spool.path(), karate);
  {
    SpoolJournal journal((spool.path() / "journal.log").string());
    journal.open_and_recover();
    journal.append(SpoolJournal::Record::kAdmit, fp);
  }

  DaemonConfig config;
  config.spool_dir = spool.str();
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);
  EXPECT_EQ(client.stats().jobs_resumed, 1u);
  // Attaching to the resumed execution (or its cached result) serves the
  // exact bits a clean run produces.
  const SubmitReply attach = client.submit(inline_submit(karate));
  ASSERT_NE(attach.job_id, 0u) << attach.detail;
  expect_matches_local_run(client.wait_result(attach.job_id),
                           read_edge_list_text(karate),
                           DistributedBcOptions{});
}

TEST(CrashSafety, CorruptStateFilesAreQuarantinedNotFatal) {
  TempDir spool("quarantine");
  const std::string karate = data_file("karate.txt");

  // A corrupt cache entry, listed in the index so recovery trusts it.
  fs::create_directories(spool.path() / "cache");
  {
    std::ofstream res(spool.path() /
                          "cache/res-00000000deadbeef.res",
                      std::ios::binary);
    res << "this is not a CBCSNAP1 container";
    std::ofstream index(spool.path() / "cache/index.txt");
    index << "00000000deadbeef\n";
  }
  // A torn spool request.
  fs::create_directories(spool.path() / "jobs");
  {
    std::ofstream req(spool.path() / "jobs/job-00000000cafef00d.req",
                      std::ios::binary);
    req << "CBCSNAP1 but truncated mid-head";
  }
  // A valid live job whose newest checkpoint is garbage: the scan must
  // quarantine the checkpoint and still resume the job from scratch.
  const std::uint64_t fp = craft_spool_req(spool.path(), karate);
  // A live job a protocol-v6 daemon spooled on its drain: an upgraded
  // daemon cannot decode it and must quarantine it, not resume it.
  const std::uint64_t v6_fp = craft_v6_spool_req(
      spool.path(), write_edge_list_text(gen::cycle(12)));
  ASSERT_NE(v6_fp, fp);
  {
    SpoolJournal journal((spool.path() / "journal.log").string());
    journal.open_and_recover();
    journal.append(SpoolJournal::Record::kAdmit, fp);
    journal.append(SpoolJournal::Record::kAdmit, v6_fp);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(fp));
  fs::create_directories(spool.path() / "ckpt" / hex);
  {
    std::ofstream ckpt(spool.path() / "ckpt" / hex /
                           "ckpt-000000000005.cbcsnap",
                       std::ios::binary);
    ckpt << "not a checkpoint";
  }

  DaemonConfig config;
  config.spool_dir = spool.str();
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);
  const StatsReply stats = client.stats();
  EXPECT_GE(stats.quarantined_files, 4u)
      << "res + torn req + v6 req + checkpoint must all be quarantined";
  EXPECT_EQ(stats.jobs_resumed, 1u) << "only the valid job may resume";
  EXPECT_TRUE(fs::exists(spool.path() / "quarantine"));
  char v6_hex[17];
  std::snprintf(v6_hex, sizeof v6_hex, "%016llx",
                static_cast<unsigned long long>(v6_fp));
  EXPECT_FALSE(fs::exists(spool.path() / "jobs" /
                          ("job-" + std::string(v6_hex) + ".req")))
      << "the v6 request must leave the job directory";

  // The quarantined names are preserved for postmortems.
  std::size_t quarantined = 0;
  for (const auto& entry :
       fs::directory_iterator(spool.path() / "quarantine")) {
    (void)entry;
    ++quarantined;
  }
  EXPECT_GE(quarantined, 4u);

  // And the daemon serves normally on top of it all.
  const SubmitReply attach = client.submit(inline_submit(karate));
  ASSERT_NE(attach.job_id, 0u) << attach.detail;
  expect_matches_local_run(client.wait_result(attach.job_id),
                           read_edge_list_text(karate),
                           DistributedBcOptions{});
}

// ------------------------------------------------------ spool goldens
//
// The bytes of one spooled request (jobs/job-*.req) and one persisted
// result (cache/res-*.res), both of gen::figure1_example, pinned as hex
// in tests/goldens/spool_v1.hex.  A restarted daemon must read both: it
// resumes the request and serves its exact bits, and it answers the
// result's submit from its cache with the same block.
//
// Regenerating after an intentional layout change (which must also bump
// the spool version):
//   CONGESTBC_UPDATE_GOLDENS=1 ./build/tests/chaos_test

std::string fingerprint_name(const std::string& prefix, std::uint64_t fp,
                             const std::string& suffix) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp));
  return prefix + hex + suffix;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

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
      << "spool bytes drifted from " << path
      << "; an intentional change must bump the spool version and "
         "regenerate with CONGESTBC_UPDATE_GOLDENS=1";
}

TEST(SpoolGolden, RequestAndResultPayloadsMatchTheV1Goldens) {
  const std::string figure1 = write_edge_list_text(gen::figure1_example());
  SubmitRequest queued = inline_submit(figure1);
  queued.halve = false;

  TempDir spool("spool_golden");
  std::string res;
  std::string req;
  std::uint64_t req_fingerprint = 0;
  ResultReply served;
  {
    DaemonConfig config;
    config.workers = 1;
    config.spool_dir = spool.str();
    DaemonHarness harness(config);
    Client client;
    harness.connect(client);
    // .res: a finished job's persisted result.
    const SubmitReply done = client.submit(inline_submit(figure1));
    ASSERT_NE(done.job_id, 0u) << done.detail;
    served = client.wait_result(done.job_id);
    ASSERT_TRUE(served.ready) << served.detail;
    res = file_bytes(spool.path() / "cache" /
                     fingerprint_name("res-", done.fingerprint, ".res"));
    // .req: a job still queued behind a long one (an exact solve of a
    // 1500-cycle, seconds of work) when the daemon drains.
    const SubmitReply blocker = client.submit(
        inline_submit(write_edge_list_text(gen::cycle(1500))));
    ASSERT_NE(blocker.job_id, 0u) << blocker.detail;
    const SubmitReply waiting = client.submit(queued);
    ASSERT_EQ(waiting.disposition, SubmitDisposition::kQueued)
        << waiting.detail;
    harness.stop();
    req_fingerprint = waiting.fingerprint;
    req = file_bytes(spool.path() / "jobs" /
                     fingerprint_name("job-", req_fingerprint, ".req"));
  }
  ASSERT_FALSE(req.empty());
  ASSERT_FALSE(res.empty());

  // The request loads: a daemon started on it resumes the job and
  // serves the exact bits of a local run.
  {
    TempDir restart("spool_golden_req");
    write_bytes(restart.path() / "jobs" /
                    fingerprint_name("job-", req_fingerprint, ".req"),
                req);
    DaemonConfig config;
    config.spool_dir = restart.str();
    DaemonHarness harness(config);
    Client client;
    harness.connect(client);
    EXPECT_EQ(client.stats().jobs_resumed, 1u);
    const SubmitReply attach = client.submit(queued);
    ASSERT_NE(attach.job_id, 0u) << attach.detail;
    DistributedBcOptions options;
    options.halve = false;
    expect_matches_local_run(client.wait_result(attach.job_id),
                             gen::figure1_example(), options);
  }
  // The result loads: a daemon started on it answers the submit from its
  // cache with the same block.
  {
    TempDir restart("spool_golden_res");
    write_bytes(restart.path() / "cache" /
                    fingerprint_name("res-", served.fingerprint, ".res"),
                res);
    DaemonConfig config;
    config.spool_dir = restart.str();
    DaemonHarness harness(config);
    Client client;
    harness.connect(client);
    const SubmitReply hit = client.submit(inline_submit(figure1));
    EXPECT_EQ(hit.disposition, SubmitDisposition::kCacheHit) << hit.detail;
    const ResultReply cached = client.wait_result(hit.job_id);
    ASSERT_TRUE(cached.ready);
    EXPECT_EQ(cached.block_bits, served.block_bits);
    EXPECT_EQ(cached.block_bytes, served.block_bytes);
  }
  expect_matches_golden("spool_v1.hex",
                        "req " + hex_of(req) + "\nres " + hex_of(res) + "\n");
}

// A persisted result whose run status lies outside RunStatus is damaged
// and quarantined: the status used to be narrowed to a byte, so 256
// loaded as 0 = complete and was served.  kError, the last status, still
// loads.
TEST(SpoolNarrowing, ResultRunStatusOutsideRunStatusIsQuarantined) {
  const std::string figure1 = write_edge_list_text(gen::figure1_example());
  TempDir spool("status_source");
  std::string res;
  std::uint64_t fp = 0;
  {
    DaemonConfig config;
    config.spool_dir = spool.str();
    DaemonHarness harness(config);
    Client client;
    harness.connect(client);
    const SubmitReply done = client.submit(inline_submit(figure1));
    ASSERT_NE(done.job_id, 0u) << done.detail;
    ASSERT_TRUE(client.wait_result(done.job_id).ready);
    fp = done.fingerprint;
    res = file_bytes(spool.path() / "cache" /
                     fingerprint_name("res-", fp, ".res"));
  }
  // The same file with another run status, rewritten field by field.
  const auto with_status = [&res](std::uint64_t status) {
    std::istringstream in(res);
    const SnapshotPayload payload = read_snapshot_container(in);
    BitReader r = payload.reader();
    BitWriter out;
    snap::put_u64(out, snap::get_u64(r));  // spool version
    snap::put_u64(out, snap::get_u64(r));  // fingerprint
    (void)snap::get_u64(r);
    snap::put_u64(out, status);
    std::vector<std::uint8_t> block;
    const std::uint64_t bits = snap::get_bits(r, block);
    snap::put_bits(out, block.data(), bits);
    std::ostringstream file;
    write_snapshot_container(file, out);
    return file.str();
  };
  for (const std::uint64_t status :
       {static_cast<std::uint64_t>(RunStatus::kError), std::uint64_t{256}}) {
    SCOPED_TRACE(status);
    TempDir restart("status_" + std::to_string(status));
    write_bytes(restart.path() / "cache" /
                    fingerprint_name("res-", fp, ".res"),
                with_status(status));
    DaemonConfig config;
    config.spool_dir = restart.str();
    DaemonHarness harness(config);
    Client client;
    harness.connect(client);
    const StatsReply stats = client.stats();
    const bool in_range = status <= static_cast<std::uint64_t>(RunStatus::kError);
    EXPECT_EQ(stats.cache_entries, in_range ? 1u : 0u);
    EXPECT_EQ(stats.quarantined_files, in_range ? 0u : 1u);
  }
}

// ---------------------------------------------------------- deadlines

TEST(Deadlines, AdmissionRejectsUnmeetableDeadline) {
  DaemonConfig config;
  config.workers = 1;
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  // Seed the latency estimate with one real execution (tens of ms).
  const std::string slow = write_edge_list_text(gen::cycle(400));
  const SubmitReply seed = client.submit(inline_submit(slow));
  ASSERT_NE(seed.job_id, 0u);
  ASSERT_TRUE(client.wait_result(seed.job_id).ready);

  // A 1 ms budget cannot cover a p50-sized run: typed kDeadline, counted.
  SubmitRequest hurried = inline_submit(data_file("karate.txt"));
  hurried.deadline_ms = 1;
  const SubmitReply rejected = client.submit(hurried);
  EXPECT_EQ(rejected.disposition, SubmitDisposition::kDeadline)
      << rejected.detail;
  EXPECT_EQ(client.stats().deadline_rejections, 1u);

  // The same submit without a deadline is admitted fine.
  const SubmitReply relaxed = client.submit(inline_submit(data_file("karate.txt")));
  EXPECT_NE(relaxed.job_id, 0u) << relaxed.detail;
}

TEST(Deadlines, QueuedJobFailsWhenClientBudgetExpires) {
  DaemonConfig config;
  config.workers = 1;
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  // Occupy the only worker with a long run.
  const SubmitReply blocker =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(1500))));
  ASSERT_NE(blocker.job_id, 0u);

  SubmitRequest hurried = inline_submit(data_file("karate.txt"));
  hurried.deadline_ms = 120;
  const SubmitReply queued = client.submit(hurried);
  ASSERT_EQ(queued.disposition, SubmitDisposition::kQueued) << queued.detail;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  StatusReply status;
  while (std::chrono::steady_clock::now() < deadline) {
    status = client.status(queued.job_id);
    if (status.state == JobState::kFailed) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.detail.find("deadline"), std::string::npos)
      << status.detail;
  EXPECT_GE(client.stats().deadline_expired, 1u);
  (void)client.cancel(blocker.job_id);
}

TEST(Deadlines, RunningJobIsHaltedWhenDeadlineExpires) {
  DaemonConfig config;
  config.workers = 1;
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  SubmitRequest hurried = inline_submit(write_edge_list_text(gen::cycle(1500)));
  hurried.deadline_ms = 150;  // far less than the run needs
  const SubmitReply admitted = client.submit(hurried);
  ASSERT_NE(admitted.job_id, 0u) << admitted.detail;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  StatusReply status;
  while (std::chrono::steady_clock::now() < deadline) {
    status = client.status(admitted.job_id);
    if (status.state == JobState::kFailed) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.detail.find("deadline"), std::string::npos)
      << status.detail;
  EXPECT_GE(client.stats().deadline_expired, 1u);
}

TEST(Deadlines, RetryingClientTreatsDeadlineRejectionAsFinal) {
  DaemonConfig config;
  config.workers = 1;
  DaemonHarness harness(config);

  // Seed the latency estimate with a slow run so the daemon's admission
  // estimate dwarfs the client budget below.
  {
    Client client;
    harness.connect(client);
    const SubmitReply seed =
        client.submit(inline_submit(write_edge_list_text(gen::cycle(1500))));
    ASSERT_NE(seed.job_id, 0u);
    ASSERT_TRUE(client.wait_result(seed.job_id, 20, 120'000).ready);
  }

  RetryPolicy policy = chaos_policy(1);
  // Enough budget to connect and submit once, far below the seeded p50:
  // the daemon must answer kDeadline and the client must not retry.
  policy.overall_deadline_ms = 100;
  RetryingClient client("127.0.0.1", harness.daemon().port(), policy);
  try {
    client.submit_and_wait(inline_submit(data_file("karate.txt")));
    FAIL() << "an unmeetable deadline must not succeed";
  } catch (const RetryError& e) {
    EXPECT_FALSE(e.retryable_cause()) << e.what();
  }
  EXPECT_LE(client.stats().attempts, 1u) << "kDeadline must not be retried";
}

// ----------------------------------------------- process-level kill -9

#ifdef CONGESTBCD_PATH
struct SpawnedDaemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// SIGKILLs a spawned daemon if the test bails before reaping it — a
/// leaked daemon holds the test's stderr pipe open and hangs ctest.
struct DaemonReaper {
  pid_t pid = -1;
  explicit DaemonReaper(pid_t p) : pid(p) {}
  ~DaemonReaper() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
  void release() { pid = -1; }
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

void wait_until_running(Client& client, std::uint64_t job_id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (client.status(job_id).state == JobState::kRunning) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "job " << job_id << " never started running";
}

// The harshest cell of the matrix: SIGKILL mid-job (no drain, no
// checkpoint flush, no warning), restart on the same spool, and the
// restarted daemon must pick the job up and serve the byte-identical
// result — no lost work, no duplicate execution.
TEST(CrashSafety, Kill9MidJobThenRestartServesIdenticalResult) {
  TempDir spool("kill9_resume");
  const Graph graph = gen::cycle(1000);
  const std::string text = write_edge_list_text(graph);

  const SpawnedDaemon first = spawn_daemon(spool.str());
  ASSERT_GT(first.pid, 0);
  DaemonReaper reap_first(first.pid);
  ASSERT_NE(first.port, 0) << "daemon never announced LISTENING";
  {
    Client client;
    client.connect("127.0.0.1", first.port);
    const SubmitReply reply = client.submit(inline_submit(text));
    ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
    wait_until_running(client, reply.job_id);
  }
  ASSERT_EQ(::kill(first.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first.pid, &status, 0), first.pid);
  reap_first.release();
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  const SpawnedDaemon second = spawn_daemon(spool.str());
  ASSERT_GT(second.pid, 0);
  DaemonReaper reap_second(second.pid);
  ASSERT_NE(second.port, 0);
  Client client;
  client.connect("127.0.0.1", second.port);
  EXPECT_GE(client.stats().jobs_resumed, 1u)
      << "the killed job must survive into the restart";
  const SubmitReply attach = client.submit(inline_submit(text));
  ASSERT_TRUE(attach.disposition == SubmitDisposition::kCoalesced ||
              attach.disposition == SubmitDisposition::kCacheHit)
      << to_string(attach.disposition) << " " << attach.detail;
  const ResultReply resumed = client.wait_result(attach.job_id);
  expect_matches_local_run(resumed, graph, DistributedBcOptions{});

  EXPECT_TRUE(client.shutdown().draining);
  ASSERT_EQ(::waitpid(second.pid, &status, 0), second.pid);
  reap_second.release();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// SIGTERM mid-job *under chaos*: the drain must stay clean even while
// the client-facing sockets are being stalled and torn, and the restart
// must converge on the exact bits.  Both plans here are integrity-
// preserving (stalls + partial writes, no corruption): the cycle(1000)
// RESULT payload spans enough chunks that per-chunk corruption would
// defeat any bounded retry budget by sheer probability — corruption
// recovery is covered on small payloads by the ChaosMatrix suite.
TEST(CrashSafety, SigtermUnderChaosThenRestartConverges) {
  TempDir spool("sigterm_chaos");
  const Graph graph = gen::cycle(1000);
  const std::string text = write_edge_list_text(graph);

  const SpawnedDaemon first = spawn_daemon(spool.str());
  ASSERT_GT(first.pid, 0);
  DaemonReaper reap_first(first.pid);
  ASSERT_NE(first.port, 0);
  {
    // Submit and watch the job start entirely through the chaos relay.
    ChaosProxy proxy(
        ChaosPlan::parse("seed=21,stall=0.2,stall-ms=10,partial=128"),
        "127.0.0.1", first.port);
    proxy.start();
    Client client;
    client.connect("127.0.0.1", proxy.port());
    const SubmitReply reply = client.submit(inline_submit(text));
    ASSERT_NE(reply.job_id, 0u) << reply.detail;
    wait_until_running(client, reply.job_id);
    client.close();
    proxy.stop();
    EXPECT_GT(proxy.stats().stalled.load(), 0u);
  }
  ASSERT_EQ(::kill(first.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first.pid, &status, 0), first.pid);
  reap_first.release();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon did not drain cleanly on SIGTERM under chaos";

  const SpawnedDaemon second = spawn_daemon(spool.str());
  ASSERT_GT(second.pid, 0);
  DaemonReaper reap_second(second.pid);
  ASSERT_NE(second.port, 0);
  ChaosProxy proxy(
      ChaosPlan::parse("seed=22,stall=0.15,stall-ms=10,partial=256"),
      "127.0.0.1", second.port);
  proxy.start();
  RetryingClient client("127.0.0.1", proxy.port(), chaos_policy(22));
  const ResultReply resumed = client.submit_and_wait(inline_submit(text));
  expect_matches_local_run(resumed, graph, DistributedBcOptions{});
  proxy.stop();

  Client direct;
  direct.connect("127.0.0.1", second.port);
  EXPECT_GE(direct.stats().jobs_resumed, 1u);
  EXPECT_TRUE(direct.shutdown().draining);
  ASSERT_EQ(::waitpid(second.pid, &status, 0), second.pid);
  reap_second.release();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}
#endif  // CONGESTBCD_PATH

}  // namespace
}  // namespace congestbc::service
