// End-to-end tests of the BC serving daemon (src/service/daemon.hpp),
// driven through real TCP sockets via the blocking Client.
//
// What is pinned here, per the service contract:
//   * a SUBMIT computes the same bits a direct run_bc_with_watchdog call
//     produces — the daemon adds serving, not numerics;
//   * a cache hit serves the byte-identical encoded block the original
//     execution produced, and the execution hint (threads) shares cache
//     entries because results are bit-identical across it — and the
//     served bytes match the legacy reference engine;
//   * identical concurrent submits coalesce into ONE execution with N
//     correct replies;
//   * admission control: queue-full -> kBusy, draining -> kDraining,
//     semantic garbage -> kRejected, over-budget jobs fail cleanly;
//   * hostile bytes on the socket get a typed ERROR frame and the daemon
//     keeps serving everyone else;
//   * a drain suspends in-flight work into the spool and a restarted
//     daemon resumes it to a bit-identical result — in-process via
//     request_drain() and at process level via real SIGTERM.
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "gtest/gtest.h"
#include "portfolio/backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"

namespace congestbc::service {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("congestbc_service_test_" + tag + "_" +
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

/// An in-process daemon on an ephemeral loopback port, drained on exit.
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

  void connect(Client& client) {
    client.connect("127.0.0.1", daemon_.port());
  }

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

ResultBlock decode_block(const ResultReply& reply) {
  BitReader reader(reply.block_bytes.data(),
                   static_cast<std::size_t>(reply.block_bits));
  return decode_result_block(reader);
}

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint64_t got_bits = 0;
    std::uint64_t want_bits = 0;
    std::memcpy(&got_bits, &got[i], sizeof got_bits);
    std::memcpy(&want_bits, &want[i], sizeof want_bits);
    EXPECT_EQ(got_bits, want_bits) << what << "[" << i << "]";
  }
}

// Long doubles carry padding bytes on x86-64, so memcmp would compare
// garbage; value equality is exact for them (the codec is lossless).
void expect_bit_equal(const std::vector<long double>& got,
                      const std::vector<long double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << "[" << i << "]";
  }
}

/// The block a served result must match, computed by a direct local run.
void expect_matches_local_run(const ResultReply& reply, const Graph& graph,
                              const DistributedBcOptions& options) {
  ASSERT_TRUE(reply.ready);
  const ResultBlock block = decode_block(reply);
  const RunOutcome fresh = run_bc_with_watchdog(graph, options);
  ASSERT_EQ(fresh.status, RunStatus::kComplete) << fresh.detail;
  EXPECT_EQ(block.run_status, static_cast<std::uint8_t>(RunStatus::kComplete));
  EXPECT_EQ(block.rounds, fresh.result.rounds);
  EXPECT_EQ(block.diameter, fresh.result.diameter);
  EXPECT_EQ(block.total_bits, fresh.result.metrics.total_bits);
  expect_bit_equal(block.betweenness, fresh.result.betweenness, "betweenness");
  expect_bit_equal(block.closeness, fresh.result.closeness, "closeness");
  expect_bit_equal(block.graph_centrality, fresh.result.graph_centrality,
                   "graph_centrality");
  expect_bit_equal(block.stress, fresh.result.stress, "stress");
  EXPECT_EQ(block.eccentricities, fresh.result.eccentricities);
}

TEST(ServiceDaemon, SubmitComputesAndMatchesLocalRunBitExactly) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  const std::string karate = data_file("karate.txt");
  const SubmitReply admitted = client.submit(inline_submit(karate));
  ASSERT_EQ(admitted.disposition, SubmitDisposition::kQueued) << admitted.detail;
  ASSERT_NE(admitted.job_id, 0u);
  ASSERT_NE(admitted.fingerprint, 0u);

  const ResultReply reply = client.wait_result(admitted.job_id);
  EXPECT_FALSE(reply.from_cache);
  EXPECT_EQ(reply.fingerprint, admitted.fingerprint);
  expect_matches_local_run(reply, read_edge_list_text(karate),
                           DistributedBcOptions{});

  const StatusReply status = client.status(admitted.job_id);
  EXPECT_EQ(status.state, JobState::kDone);
}

TEST(ServiceDaemon, CacheHitIsBitIdenticalAcrossEnginesAndThreads) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  for (const char* name : {"karate.txt", "lesmis.txt"}) {
    const std::string text = data_file(name);
    const Graph graph = read_edge_list_text(text);

    // One fresh execution (daemon default: threads=1).
    const SubmitReply first = client.submit(inline_submit(text));
    ASSERT_EQ(first.disposition, SubmitDisposition::kQueued) << first.detail;
    const ResultReply fresh = client.wait_result(first.job_id);
    ASSERT_TRUE(fresh.ready);

    // Every threads variant maps to the same fingerprint and is served
    // the byte-identical cached block.
    for (const std::uint32_t threads : {1u, 4u}) {
      SubmitRequest variant = inline_submit(text);
      variant.threads = threads;
      const SubmitReply hit = client.submit(variant);
      EXPECT_EQ(hit.disposition, SubmitDisposition::kCacheHit)
          << name << " threads=" << threads;
      EXPECT_EQ(hit.fingerprint, first.fingerprint);
      const ResultReply cached = client.wait_result(hit.job_id);
      ASSERT_TRUE(cached.ready);
      EXPECT_TRUE(cached.from_cache);
      EXPECT_EQ(cached.block_bits, fresh.block_bits);
      EXPECT_EQ(cached.block_bytes, fresh.block_bytes)
          << name << ": cached bytes differ from the fresh execution";

      // And the cached bytes match what that exact configuration would
      // have computed locally — the claim behind sharing the entry.
      DistributedBcOptions options;
      options.threads = threads;
      expect_matches_local_run(cached, graph, options);
    }

    // The served bytes also match the legacy reference engine.
    DistributedBcOptions legacy;
    legacy.legacy_engine = true;
    expect_matches_local_run(fresh, graph, legacy);
  }

  const StatsReply stats = harness.daemon().stats();
  EXPECT_EQ(stats.jobs_completed, 2u);  // one execution per graph
  EXPECT_EQ(stats.cache_hits, 4u);      // 2 graphs x 2 thread counts
}

TEST(ServiceDaemon, ConcurrentIdenticalSubmitsCoalesceIntoOneExecution) {
  DaemonHarness harness(DaemonConfig{});
  const std::string text = write_edge_list_text(gen::cycle(600));

  constexpr int kClients = 6;
  std::vector<std::vector<std::uint8_t>> blocks(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      harness.connect(client);
      const SubmitReply reply = client.submit(inline_submit(text));
      ASSERT_NE(reply.disposition, SubmitDisposition::kRejected) << reply.detail;
      const ResultReply result = client.wait_result(reply.job_id);
      ASSERT_TRUE(result.ready);
      blocks[static_cast<std::size_t>(i)] = result.block_bytes;
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(blocks[static_cast<std::size_t>(i)], blocks[0])
        << "client " << i << " saw different bytes";
  }
  // Exactly one execution; every other submit shared it, either while it
  // was in flight (coalesced) or after it finished (cache hit) — the
  // split depends on timing, the sum does not.
  const StatsReply stats = harness.daemon().stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.coalesced + stats.cache_hits, kClients - 1u);
}

TEST(ServiceDaemon, QueueLimitZeroAnswersBusy) {
  DaemonConfig config;
  config.queue_limit = 0;  // every fresh submit finds the queue full
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  const SubmitReply reply =
      client.submit(inline_submit(data_file("karate.txt")));
  EXPECT_EQ(reply.disposition, SubmitDisposition::kBusy);
  EXPECT_EQ(reply.job_id, 0u);
  EXPECT_EQ(harness.daemon().stats().busy_rejections, 1u);
}

TEST(ServiceDaemon, DrainingAnswersDraining) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  // Something slow in flight so the drain stays pending while we probe.
  const SubmitReply slow =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(600))));
  ASSERT_EQ(slow.disposition, SubmitDisposition::kQueued);
  const ShutdownReply shutdown = client.shutdown();
  EXPECT_TRUE(shutdown.draining);

  // The running job halts at its next round boundary, so the drain can
  // complete (closing our connection) before this probe lands — both a
  // kDraining reply and a dropped connection honor the contract.
  try {
    const SubmitReply refused =
        client.submit(inline_submit(data_file("karate.txt")));
    EXPECT_EQ(refused.disposition, SubmitDisposition::kDraining);
    EXPECT_GE(harness.daemon().stats().draining_rejections, 1u);
  } catch (const std::exception&) {
    harness.stop();
    EXPECT_TRUE(harness.daemon().draining());
  }
}

TEST(ServiceDaemon, SemanticGarbageIsRejectedWithReason) {
  DaemonConfig config;
  config.graph_root = CONGESTBC_DATA_DIR;
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  const auto rejected = [&](const SubmitRequest& submit) {
    const SubmitReply reply = client.submit(submit);
    EXPECT_EQ(reply.disposition, SubmitDisposition::kRejected);
    EXPECT_EQ(reply.job_id, 0u);
    return reply.detail;
  };

  EXPECT_NE(rejected(inline_submit("4 2\n0 1\n2 3\n")).find("not connected"),
            std::string::npos);
  EXPECT_NE(rejected(inline_submit("this is not a graph")).find("bad graph"),
            std::string::npos);
  EXPECT_NE(rejected(inline_submit("0 0\n")).find("graph"), std::string::npos);
  SubmitRequest bad_faults = inline_submit(data_file("karate.txt"));
  bad_faults.faults = "drop=banana";
  EXPECT_NE(rejected(bad_faults).find("fault"), std::string::npos);

  SubmitRequest escape;
  escape.source = GraphSource::kPath;
  escape.graph = "../ISSUE.md";
  EXPECT_NE(rejected(escape).find("graph-root"), std::string::npos);

  // A path submit that stays inside the root is served.
  SubmitRequest by_path;
  by_path.source = GraphSource::kPath;
  by_path.graph = "karate.txt";
  const SubmitReply ok = client.submit(by_path);
  EXPECT_EQ(ok.disposition, SubmitDisposition::kQueued) << ok.detail;
  EXPECT_TRUE(client.wait_result(ok.job_id).ready);
}

TEST(ServiceDaemon, PathSubmitsDisabledWithoutGraphRoot) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);
  SubmitRequest by_path;
  by_path.source = GraphSource::kPath;
  by_path.graph = "karate.txt";
  const SubmitReply reply = client.submit(by_path);
  EXPECT_EQ(reply.disposition, SubmitDisposition::kRejected);
  EXPECT_NE(reply.detail.find("graph-root"), std::string::npos);
}

TEST(ServiceDaemon, CancelSemantics) {
  DaemonConfig config;
  config.workers = 1;  // so a second submit is reliably still queued
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  EXPECT_EQ(client.cancel(12345).outcome, CancelOutcome::kNotFound);

  const SubmitReply slow =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(600))));
  ASSERT_EQ(slow.disposition, SubmitDisposition::kQueued);
  const SubmitReply queued =
      client.submit(inline_submit(data_file("karate.txt")));
  ASSERT_EQ(queued.disposition, SubmitDisposition::kQueued);

  EXPECT_EQ(client.cancel(queued.job_id).outcome, CancelOutcome::kCancelled);
  const ResultReply cancelled = client.result(queued.job_id);
  EXPECT_FALSE(cancelled.ready);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);

  const ResultReply done = client.wait_result(slow.job_id);
  ASSERT_TRUE(done.ready);
  EXPECT_EQ(client.cancel(slow.job_id).outcome, CancelOutcome::kTooLate);
  EXPECT_EQ(harness.daemon().stats().jobs_cancelled, 1u);
}

TEST(ServiceDaemon, TimeBudgetHaltsAndFailsTheJob) {
  DaemonConfig config;
  config.job_time_budget_ms = 150;  // cycle(1000) needs seconds
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  const SubmitReply reply =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(1000))));
  ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued);
  const ResultReply result = client.wait_result(reply.job_id);
  // Failed jobs still serve their partial harvest, but are never "done".
  ASSERT_TRUE(result.ready);
  const ResultBlock block = decode_block(result);
  EXPECT_NE(block.run_status, static_cast<std::uint8_t>(RunStatus::kComplete));
  EXPECT_EQ(client.status(reply.job_id).state, JobState::kFailed);
  EXPECT_EQ(harness.daemon().stats().jobs_failed, 1u);

  // And a failed run is never cached: resubmitting tries again.
  const SubmitReply retry =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(1000))));
  EXPECT_NE(retry.disposition, SubmitDisposition::kCacheHit);
}

// Hostile bytes over a raw socket: the daemon answers a typed ERROR frame,
// closes that connection, and keeps serving everyone else.
TEST(ServiceDaemon, GarbageBytesGetTypedErrorAndDaemonSurvives) {
  DaemonHarness harness(DaemonConfig{});

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.daemon().port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Not "GET ..." — that prefix now selects the HTTP /metrics path
  // (MetricsEndpointServesConsistentCounters); anything else must still
  // get the typed CBCP ERROR.
  const char garbage[] = "PUT /x HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);

  // Read until the daemon closes the connection; the bytes it sent first
  // must decode as an ERROR reply.
  std::vector<std::uint8_t> received;
  std::uint8_t chunk[256];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    received.insert(received.end(), chunk, chunk + n);
  }
  ::close(fd);
  FrameDecoder decoder;
  decoder.feed(received.data(), received.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value()) << "no ERROR frame before close";
  const Reply reply = decode_reply(*frame);
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code, ProtoError::kBadMagic);
  EXPECT_GE(harness.daemon().stats().protocol_errors, 1u);

  // The daemon is still healthy for well-behaved clients.
  Client client;
  harness.connect(client);
  const SubmitReply ok = client.submit(inline_submit(data_file("karate.txt")));
  ASSERT_EQ(ok.disposition, SubmitDisposition::kQueued) << ok.detail;
  EXPECT_TRUE(client.wait_result(ok.job_id).ready);
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

// Cancelling a RUNNING job is best-effort: the reply says kRequested (the
// halt flag is raised, not yet observed), and the job normally lands
// kCancelled at its next round boundary.
TEST(ServiceDaemon, CancelRunningJobRepliesRequestedThenCancels) {
  DaemonConfig config;
  config.workers = 1;
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  // cycle(800) runs for seconds — plenty of round boundaries to halt at.
  const SubmitReply slow =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(800))));
  ASSERT_EQ(slow.disposition, SubmitDisposition::kQueued) << slow.detail;
  wait_until_running(client, slow.job_id);

  EXPECT_EQ(client.cancel(slow.job_id).outcome, CancelOutcome::kRequested);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  JobState state = client.status(slow.job_id).state;
  while (state == JobState::kRunning &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    state = client.status(slow.job_id).state;
  }
  EXPECT_EQ(state, JobState::kCancelled);
  EXPECT_EQ(harness.daemon().stats().jobs_cancelled, 1u);
}

// Terminal jobs are garbage-collected after the retention TTL: the id
// answers kUnknown, but the cached result survives independently.
TEST(ServiceDaemon, TerminalJobsAreGarbageCollectedAfterRetention) {
  DaemonConfig config;
  config.job_retention_ms = 50;
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  const std::string karate = data_file("karate.txt");
  const SubmitReply reply = client.submit(inline_submit(karate));
  ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
  ASSERT_TRUE(client.wait_result(reply.job_id).ready);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.status(reply.job_id).state != JobState::kUnknown &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(client.status(reply.job_id).state, JobState::kUnknown);
  EXPECT_EQ(client.result(reply.job_id).state, JobState::kUnknown);

  // The result cache is keyed by fingerprint, not job id: still a hit.
  const SubmitReply again = client.submit(inline_submit(karate));
  EXPECT_EQ(again.disposition, SubmitDisposition::kCacheHit);
}

// Write-side backpressure: a client that pipelines a burst of requests
// without reading still gets every reply, in order — frames the daemon
// held back while the session's output backlog was over the limit are
// processed once it drains.
TEST(ServiceDaemon, PipelinedRequestsSurviveOutputBackpressure) {
  DaemonConfig config;
  config.session_out_limit = 64;  // force constant pause/resume
  DaemonHarness harness(config);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.daemon().port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  constexpr std::uint64_t kRequests = 50;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const auto frame =
        frame_bytes(encode_request(make_job_request(MsgType::kStatus, 1000 + i)));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  FrameDecoder decoder;
  std::uint64_t decoded = 0;
  std::uint8_t chunk[512];
  while (decoded < kRequests) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection closed after " << decoded << " replies";
    decoder.feed(chunk, static_cast<std::size_t>(n));
    while (auto frame = decoder.next()) {
      const Reply reply = decode_reply(*frame);
      ASSERT_EQ(reply.type, MsgType::kStatusReply);
      EXPECT_EQ(reply.status.job_id, 1000 + decoded);  // in-order replies
      EXPECT_EQ(reply.status.state, JobState::kUnknown);
      ++decoded;
    }
  }
  ::close(fd);
}

// The drain/resume contract, in-process: a running job is suspended into
// the spool at drain and a restarted daemon resumes it from its
// checkpoint to the same bits an uninterrupted run produces.
TEST(ServiceDaemon, DrainSuspendsAndRestartedDaemonResumesBitIdentically) {
  TempDir spool("drain_resume");
  const Graph graph = gen::cycle(1000);
  const std::string text = write_edge_list_text(graph);

  DaemonConfig config;
  config.spool_dir = spool.str();
  std::uint64_t fingerprint = 0;
  {
    DaemonHarness first(config);
    Client client;
    first.connect(client);
    const SubmitReply reply = client.submit(inline_submit(text));
    ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
    fingerprint = reply.fingerprint;
    wait_until_running(client, reply.job_id);
    client.close();
    first.stop();  // drain: suspend at the next round boundary + checkpoint
    EXPECT_EQ(first.daemon().stats().jobs_suspended, 1u);
  }

  // The suspension checkpoint is on disk under the job's fingerprint.
  EXPECT_TRUE(
      fs::exists(spool.path() / "ckpt" /
                 [&] {
                   char hex[17];
                   std::snprintf(hex, sizeof hex, "%016llx",
                                 static_cast<unsigned long long>(fingerprint));
                   return std::string(hex);
                 }()));

  DaemonHarness second(config);
  EXPECT_EQ(second.daemon().stats().jobs_resumed, 1u);
  Client client;
  second.connect(client);
  // The identical submit attaches to the resumed execution (or to its
  // result, if the resume already finished).
  const SubmitReply attach = client.submit(inline_submit(text));
  ASSERT_TRUE(attach.disposition == SubmitDisposition::kCoalesced ||
              attach.disposition == SubmitDisposition::kCacheHit)
      << to_string(attach.disposition) << " " << attach.detail;
  EXPECT_EQ(attach.fingerprint, fingerprint);
  const ResultReply resumed = client.wait_result(attach.job_id);
  expect_matches_local_run(resumed, graph, DistributedBcOptions{});
}

/// One blocking HTTP exchange against the daemon's listener: sends the
/// request verbatim, reads to close, returns the raw response.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_GT(::send(fd, request.data(), request.size(), 0), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Value of a Prometheus sample line ("name 42") in a scrape body.
double metric_value(const std::string& body, const std::string& name) {
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "metric " << name << " not found in scrape";
  return -1.0;
}

TEST(ServiceDaemon, MetricsEndpointServesConsistentCounters) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  // Mixed workload: two fresh executions, one cache hit, one rejected
  // submit (bad graph), so every counter the consistency check reads is
  // exercised.
  const std::string karate = data_file("karate.txt");
  const SubmitReply first = client.submit(inline_submit(karate));
  ASSERT_EQ(first.disposition, SubmitDisposition::kQueued) << first.detail;
  ASSERT_TRUE(client.wait_result(first.job_id).ready);

  const SubmitReply hit = client.submit(inline_submit(karate));
  EXPECT_EQ(hit.disposition, SubmitDisposition::kCacheHit);

  const SubmitReply second = client.submit(inline_submit(data_file("lesmis.txt")));
  ASSERT_EQ(second.disposition, SubmitDisposition::kQueued) << second.detail;
  ASSERT_TRUE(client.wait_result(second.job_id).ready);

  const SubmitReply rejected = client.submit(inline_submit("not a graph"));
  EXPECT_EQ(rejected.disposition, SubmitDisposition::kRejected);

  // A finished job's STATUS carries its phase timeline.
  const StatusReply status = client.status(first.job_id);
  ASSERT_EQ(status.state, JobState::kDone);
  EXPECT_NE(status.phase_timeline.find("tree_build"), std::string::npos)
      << status.phase_timeline;
  EXPECT_NE(status.phase_timeline.find("counting"), std::string::npos);

  const std::string response = http_exchange(
      harness.daemon().port(), "GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n");
  ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  ASSERT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);

  // Counter consistency over the known workload.
  EXPECT_EQ(metric_value(body, "congestbcd_submits_total"), 4.0);
  EXPECT_EQ(metric_value(body, "congestbcd_cache_hits_total"), 1.0);
  EXPECT_EQ(metric_value(body, "congestbcd_cache_misses_total"), 2.0);
  EXPECT_EQ(metric_value(body, "congestbcd_jobs_completed_total"), 2.0);
  EXPECT_EQ(metric_value(body, "congestbcd_jobs_failed_total"), 0.0);
  EXPECT_EQ(metric_value(body, "congestbcd_jobs_cancelled_total"), 0.0);
  EXPECT_EQ(metric_value(body, "congestbcd_queue_depth"), 0.0);
  EXPECT_EQ(metric_value(body, "congestbcd_running_jobs"), 0.0);
  // Every admitted execution is accounted: completed + failed + cancelled
  // + inflight + cache hits + rejections == submits (the bad-graph submit
  // is the remainder).
  const double accounted =
      metric_value(body, "congestbcd_jobs_completed_total") +
      metric_value(body, "congestbcd_jobs_failed_total") +
      metric_value(body, "congestbcd_jobs_cancelled_total") +
      metric_value(body, "congestbcd_queue_depth") +
      metric_value(body, "congestbcd_running_jobs") +
      metric_value(body, "congestbcd_cache_hits_total");
  EXPECT_EQ(accounted + 1.0, metric_value(body, "congestbcd_submits_total"));
  EXPECT_LE(metric_value(body, "congestbcd_cache_hits_total"),
            metric_value(body, "congestbcd_submits_total"));
  // Latency/round histograms saw exactly the two executions.
  EXPECT_EQ(metric_value(body, "congestbcd_job_latency_ms_count"), 2.0);
  EXPECT_EQ(metric_value(body, "congestbcd_job_rounds_count"), 2.0);
  EXPECT_GT(metric_value(body, "congestbcd_job_rounds_sum"), 0.0);

  // Unknown paths get a 404, and the daemon keeps serving CBCP clients.
  const std::string missing = http_exchange(
      harness.daemon().port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
  const SubmitReply after = client.submit(inline_submit(karate));
  EXPECT_EQ(after.disposition, SubmitDisposition::kCacheHit);
}

// The session edge cases of the shared server loop: an HTTP request
// that outgrows its 8 KiB cap is dropped without a reply, a GET split
// across two sends is answered, and a CBCP SUBMIT trickled one byte at
// a time through the 4-byte protocol sniff decodes and is served.  A
// client on another connection is served throughout.
TEST(ServiceDaemon, SessionSniffHandlesOversizedSplitAndTrickledRequests) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);
  const std::string karate = data_file("karate.txt");

  const auto connect_raw = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(harness.daemon().port());
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    return fd;
  };
  // Reads to close; a read timeout counts as "still open".
  const auto read_to_close = [](int fd, bool& closed) {
    std::string bytes;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        bytes.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
      return bytes;
    }
  };

  {
    // Past the cap with no blank line: closed, nothing written back.
    const int fd = connect_raw();
    const std::string oversized =
        "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(9000, 'a');
    ASSERT_EQ(::send(fd, oversized.data(), oversized.size(), 0),
              static_cast<ssize_t>(oversized.size()));
    bool closed = false;
    EXPECT_EQ(read_to_close(fd, closed), "");
    EXPECT_TRUE(closed) << "an oversized HTTP request kept its connection";
    ::close(fd);
  }
  EXPECT_EQ(client.stats().submits, 0u);

  {
    // The request line arrives in two pieces.
    const int fd = connect_raw();
    const std::string head = "GET /met";
    const std::string tail = "rics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, head.data(), head.size(), 0),
              static_cast<ssize_t>(head.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(::send(fd, tail.data(), tail.size(), 0),
              static_cast<ssize_t>(tail.size()));
    bool closed = false;
    const std::string response = read_to_close(fd, closed);
    EXPECT_TRUE(closed);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("congestbcd_submits_total 0"), std::string::npos);
    ::close(fd);
  }

  std::uint64_t trickled_job = 0;
  std::uint64_t trickled_fp = 0;
  {
    // One byte per send; the first four each wait long enough to reach
    // the sniff on their own.
    const int fd = connect_raw();
    const std::vector<std::uint8_t> frame =
        frame_bytes(encode_request(make_submit(inline_submit(karate))));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      ASSERT_EQ(::send(fd, &frame[i], 1, 0), 1) << "byte " << i;
      if (i < 4) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    FrameDecoder decoder;
    std::optional<FramePayload> payload;
    std::uint8_t chunk[4096];
    while (!payload) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      ASSERT_GT(n, 0) << "no reply to the trickled SUBMIT";
      decoder.feed(chunk, static_cast<std::size_t>(n));
      payload = decoder.next();
    }
    ::close(fd);
    const Reply reply = decode_reply(*payload);
    ASSERT_EQ(reply.type, MsgType::kSubmitReply);
    ASSERT_EQ(reply.submit.disposition, SubmitDisposition::kQueued)
        << reply.submit.detail;
    trickled_job = reply.submit.job_id;
    trickled_fp = reply.submit.fingerprint;
  }
  const ResultReply trickled = client.wait_result(trickled_job);
  expect_matches_local_run(trickled, read_edge_list_text(karate),
                           DistributedBcOptions{});

  // The other connection was served all along, and sees the same job.
  const SubmitReply again = client.submit(inline_submit(karate));
  EXPECT_EQ(again.disposition, SubmitDisposition::kCacheHit);
  EXPECT_EQ(again.fingerprint, trickled_fp);
  EXPECT_EQ(harness.daemon().stats().protocol_errors, 0u);
}

// ---------------------------------------------------------------------
// Portfolio plane (protocol v5): backend selection end-to-end

TEST(ServiceDaemon, AutoBackendRunsPaperExactWhenIdle) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  SubmitRequest submit = inline_submit(data_file("karate.txt"));
  submit.backend = 0;  // auto
  const SubmitReply reply = client.submit(submit);
  ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
  EXPECT_EQ(reply.backend, 1);  // paper_exact: idle server, no downgrade
  EXPECT_FALSE(reply.downgraded);
  ASSERT_TRUE(client.wait_result(reply.job_id).ready);
  EXPECT_EQ(harness.daemon().stats().backend_downgrades, 0u);

  // An idle auto submit and an explicit paper_exact submit are the SAME
  // job: the resolved backend is the cache key, not the requested one.
  SubmitRequest explicit_exact = inline_submit(data_file("karate.txt"));
  explicit_exact.backend = 1;
  const SubmitReply hit = client.submit(explicit_exact);
  EXPECT_EQ(hit.disposition, SubmitDisposition::kCacheHit);
  EXPECT_EQ(hit.fingerprint, reply.fingerprint);
}

TEST(ServiceDaemon, AutoDowngradesToSampledUnderQueuePressure) {
  DaemonConfig config;
  config.workers = 1;     // one slow job pins the only worker...
  config.queue_limit = 2; // ...and one queued job already means pressure
  DaemonHarness harness(config);
  Client client;
  harness.connect(client);

  // Occupy the worker and the queue with slow exact jobs.
  const SubmitReply running =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(600))));
  ASSERT_EQ(running.disposition, SubmitDisposition::kQueued) << running.detail;
  // Only once the worker took it off the queue does the next job make
  // exactly one queued job.
  wait_until_running(client, running.job_id);
  const SubmitReply queued =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(601))));
  ASSERT_EQ(queued.disposition, SubmitDisposition::kQueued) << queued.detail;

  // Now backend=auto must degrade to the sampled approximation, say so
  // in the reply, and count it.
  SubmitRequest submit = inline_submit(data_file("karate.txt"));
  submit.backend = 0;
  submit.samples = 8;
  submit.sample_seed = 3;
  const SubmitReply reply = client.submit(submit);
  ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
  EXPECT_EQ(reply.backend, 4);  // sampled
  EXPECT_TRUE(reply.downgraded);

  // The served bits are the sampled backend's, not a truncated exact run.
  const ResultReply result = client.wait_result(reply.job_id);
  ASSERT_TRUE(result.ready);
  const ResultBlock block = decode_block(result);
  const Graph karate = read_edge_list_text(data_file("karate.txt"));
  portfolio::BackendRequest local;
  local.graph = &karate;
  local.options.backend = BackendId::kSampled;
  local.options.approx_samples = 8;
  local.options.approx_seed = 3;
  const RunOutcome fresh = portfolio::run_portfolio(local);
  ASSERT_EQ(fresh.status, RunStatus::kComplete) << fresh.detail;
  expect_bit_equal(block.betweenness, fresh.result.betweenness,
                   "downgraded betweenness");

  // Visible in STATS and in the Prometheus scrape.
  ASSERT_TRUE(client.wait_result(running.job_id).ready);
  ASSERT_TRUE(client.wait_result(queued.job_id).ready);
  EXPECT_EQ(harness.daemon().stats().backend_downgrades, 1u);
  const std::string response = http_exchange(
      harness.daemon().port(), "GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n");
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);
  EXPECT_EQ(metric_value(body, "congestbcd_backend_downgrades_total"), 1.0);

  // An explicit (non-auto) backend is never overridden, pressure or not.
  SubmitRequest pinned = inline_submit(data_file("lesmis.txt"));
  pinned.backend = 1;
  const SubmitReply pinned_reply = client.submit(pinned);
  ASSERT_EQ(pinned_reply.disposition, SubmitDisposition::kQueued)
      << pinned_reply.detail;
  EXPECT_EQ(pinned_reply.backend, 1);
  EXPECT_FALSE(pinned_reply.downgraded);
  ASSERT_TRUE(client.wait_result(pinned_reply.job_id).ready);
  EXPECT_EQ(harness.daemon().stats().backend_downgrades, 1u);
}

TEST(ServiceDaemon, SampledSubmitKeysItsOwnCacheEntry) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  SubmitRequest exact = inline_submit(data_file("karate.txt"));
  const SubmitReply exact_reply = client.submit(exact);
  ASSERT_EQ(exact_reply.disposition, SubmitDisposition::kQueued)
      << exact_reply.detail;

  SubmitRequest sampled = inline_submit(data_file("karate.txt"));
  sampled.backend = 4;
  sampled.samples = 8;
  sampled.sample_seed = 1;
  const SubmitReply sampled_reply = client.submit(sampled);
  ASSERT_NE(sampled_reply.disposition, SubmitDisposition::kRejected)
      << sampled_reply.detail;
  EXPECT_NE(sampled_reply.fingerprint, exact_reply.fingerprint);
  EXPECT_EQ(sampled_reply.backend, 4);
  EXPECT_FALSE(sampled_reply.downgraded);  // requested, not downgraded

  // A different seed is a different job; the same seed coalesces/hits.
  SubmitRequest other_seed = sampled;
  other_seed.sample_seed = 2;
  const SubmitReply other_reply = client.submit(other_seed);
  EXPECT_NE(other_reply.fingerprint, sampled_reply.fingerprint);
  SubmitRequest replay = sampled;
  const SubmitReply replay_reply = client.submit(replay);
  EXPECT_EQ(replay_reply.fingerprint, sampled_reply.fingerprint);

  for (const std::uint64_t id :
       {exact_reply.job_id, sampled_reply.job_id, other_reply.job_id}) {
    ASSERT_TRUE(client.wait_result(id).ready);
  }
}

TEST(ServiceDaemon, DirectedSubmitServesTheDirectedBackend) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  // Directed 6-cycle: every node carries (n-1)(n-2)/2 = 10 ordered-pair
  // betweenness under the directed convention.
  std::vector<Arc> arcs;
  for (NodeId v = 0; v < 6; ++v) {
    arcs.push_back({v, static_cast<NodeId>((v + 1) % 6)});
  }
  const Digraph cycle(6, std::move(arcs));
  SubmitRequest submit = inline_submit(write_directed_edge_list_text(cycle));
  submit.backend = 3;
  const SubmitReply reply = client.submit(submit);
  ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
  EXPECT_EQ(reply.backend, 3);

  const ResultReply result = client.wait_result(reply.job_id);
  ASSERT_TRUE(result.ready);
  const ResultBlock block = decode_block(result);
  portfolio::BackendRequest local;
  local.digraph = &cycle;
  local.options.backend = BackendId::kDirected;
  const RunOutcome fresh = portfolio::run_portfolio(local);
  ASSERT_EQ(fresh.status, RunStatus::kComplete) << fresh.detail;
  expect_bit_equal(block.betweenness, fresh.result.betweenness,
                   "directed betweenness");
  for (const double bc : block.betweenness) {
    EXPECT_DOUBLE_EQ(bc, 10.0);
  }

  // The directed job must not collide with the undirected support's
  // cache entry — orientation is part of the fingerprint.
  const SubmitReply undirected =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(6))));
  ASSERT_EQ(undirected.disposition, SubmitDisposition::kQueued)
      << undirected.detail;
  EXPECT_NE(undirected.fingerprint, reply.fingerprint);
  ASSERT_TRUE(client.wait_result(undirected.job_id).ready);

  // Semantic garbage on the directed plane gets typed rejections.
  SubmitRequest disconnected = inline_submit("4 2\n0 1\n2 3\n");
  disconnected.backend = 3;
  const SubmitReply rejected = client.submit(disconnected);
  EXPECT_EQ(rejected.disposition, SubmitDisposition::kRejected);
  EXPECT_NE(rejected.detail.find("connected"), std::string::npos)
      << rejected.detail;

  // An out-of-range backend id draws a typed ERROR frame, after which
  // the daemon drops the offending connection (hostile-payload policy)
  // — probe on a throwaway client so this session keeps serving.
  Client hostile;
  harness.connect(hostile);
  SubmitRequest unknown = inline_submit(data_file("karate.txt"));
  unknown.backend = 200;
  EXPECT_THROW(hostile.submit(unknown), std::exception);

  SubmitRequest faulty_cfp = inline_submit(data_file("karate.txt"));
  faulty_cfp.backend = 2;
  faulty_cfp.faults = "drop=0.1,seed=7";
  const SubmitReply faulty_reply = client.submit(faulty_cfp);
  EXPECT_EQ(faulty_reply.disposition, SubmitDisposition::kRejected);
}

TEST(ServiceDaemon, CfpSubmitMatchesLocalCfpRun) {
  DaemonHarness harness(DaemonConfig{});
  Client client;
  harness.connect(client);

  SubmitRequest submit = inline_submit(data_file("karate.txt"));
  submit.backend = 2;
  const SubmitReply reply = client.submit(submit);
  ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
  EXPECT_EQ(reply.backend, 2);

  const ResultReply result = client.wait_result(reply.job_id);
  ASSERT_TRUE(result.ready);
  const ResultBlock block = decode_block(result);
  const Graph karate = read_edge_list_text(data_file("karate.txt"));
  portfolio::BackendRequest local;
  local.graph = &karate;
  local.options.backend = BackendId::kCfp;
  const RunOutcome fresh = portfolio::run_portfolio(local);
  ASSERT_EQ(fresh.status, RunStatus::kComplete) << fresh.detail;
  expect_bit_equal(block.betweenness, fresh.result.betweenness,
                   "cfp betweenness");
  EXPECT_EQ(block.rounds, fresh.result.rounds);
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

// The acceptance drill with a real process and a real SIGTERM: kill the
// daemon mid-job, restart it on the same spool, get the same bits.
TEST(ServiceDaemon, SigtermDrainThenRestartResumesAcrossProcesses) {
  TempDir spool("sigterm_resume");
  const Graph graph = gen::cycle(1000);
  const std::string text = write_edge_list_text(graph);

  const SpawnedDaemon first = spawn_daemon(spool.str());
  ASSERT_GT(first.pid, 0);
  ASSERT_NE(first.port, 0) << "daemon never announced LISTENING";
  {
    Client client;
    client.connect("127.0.0.1", first.port);
    const SubmitReply reply = client.submit(inline_submit(text));
    ASSERT_EQ(reply.disposition, SubmitDisposition::kQueued) << reply.detail;
    wait_until_running(client, reply.job_id);
  }
  ASSERT_EQ(::kill(first.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first.pid, &status, 0), first.pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon did not drain cleanly on SIGTERM";

  const SpawnedDaemon second = spawn_daemon(spool.str());
  ASSERT_GT(second.pid, 0);
  ASSERT_NE(second.port, 0);
  Client client;
  client.connect("127.0.0.1", second.port);
  EXPECT_GE(client.stats().jobs_resumed, 1u);
  const SubmitReply attach = client.submit(inline_submit(text));
  ASSERT_TRUE(attach.disposition == SubmitDisposition::kCoalesced ||
              attach.disposition == SubmitDisposition::kCacheHit)
      << to_string(attach.disposition) << " " << attach.detail;
  const ResultReply resumed = client.wait_result(attach.job_id);
  expect_matches_local_run(resumed, graph, DistributedBcOptions{});

  EXPECT_TRUE(client.shutdown().draining);
  ASSERT_EQ(::waitpid(second.pid, &status, 0), second.pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}
#endif  // CONGESTBCD_PATH

}  // namespace
}  // namespace congestbc::service
