// The cluster test matrix (DESIGN.md §16): the fingerprint-routed
// multi-daemon tier, proven end to end against in-process workers.
//
// What is pinned here, per the cluster contract:
//   * the consistent-hash ring is deterministic across insertion orders,
//     removing a worker reassigns only that worker's keys, and the
//     failover preference lists distinct workers owner-first;
//   * a router in front of three workers serves the byte-identical
//     blocks a single daemon serves — routing adds placement, not
//     numerics — and identical resubmits stay cache hits;
//   * after a rebalance, the cross-worker LOOKUP probe serves cached
//     blocks byte-identically from whichever worker still holds them;
//   * the opt-in router result cache answers repeats with the worker's
//     bytes and evicts its least recently used entry;
//   * the migration matrix: a job caught mid-run on worker A by a drain
//     resumes on worker B bit-identically to a local legacy-engine run,
//     for every {paper_exact, cfp, sampled} backend;
//   * membership: health checks evict a dead worker from the ring, a
//     JOIN heals the eviction, and jobs stranded on a lost worker answer
//     kQueued through the migration grace window before failing typed;
//   * hostile bytes on a router session draw a typed ERROR frame and the
//     router keeps serving everyone else;
//   * the PR-6 seeded chaos matrix replayed through a router→worker hop
//     (chaosproxy on the worker link): every plan converges on the
//     byte-identical result with exactly one execution on the worker.
#include <sys/socket.h>
#include <sys/types.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "gtest/gtest.h"
#include "portfolio/backend.hpp"
#include "service/chaos.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"

namespace congestbc::cluster {
namespace {

using namespace congestbc::service;  // NOLINT: test reads like service_test

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("congestbc_cluster_test_" + tag + "_" +
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
  expect_bit_equal(block.betweenness, fresh.result.betweenness, "betweenness");
  expect_bit_equal(block.closeness, fresh.result.closeness, "closeness");
  expect_bit_equal(block.stress, fresh.result.stress, "stress");
  EXPECT_EQ(block.eccentricities, fresh.result.eccentricities);
}

/// An in-process router on an ephemeral loopback port, drained on exit.
class RouterHarness {
 public:
  explicit RouterHarness(RouterConfig config) : router_(std::move(config)) {
    router_.start();
    router_.serve_async();
  }
  ~RouterHarness() { stop(); }

  void stop() {
    if (!stopped_) {
      router_.request_drain();
      router_.wait();
      stopped_ = true;
    }
  }

  Router& router() { return router_; }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(router_.port());
  }
  void connect(Client& client) { client.connect("127.0.0.1", router_.port()); }

 private:
  Router router_;
  bool stopped_ = false;
};

/// An in-process worker daemon; stop() runs the full drain (which, with
/// join_router configured, MIGRATEs its jobs through the router).
class WorkerHarness {
 public:
  explicit WorkerHarness(DaemonConfig config) : daemon_(std::move(config)) {
    daemon_.start();
    daemon_.serve_async();
  }
  ~WorkerHarness() { stop(); }

  void stop() {
    if (!stopped_) {
      daemon_.request_drain();
      daemon_.wait();
      stopped_ = true;
    }
  }

  Daemon& daemon() { return daemon_; }

 private:
  Daemon daemon_;
  bool stopped_ = false;
};

/// A worker wired to JOIN the router tier with a fast heartbeat.
DaemonConfig worker_config(const std::string& router_address,
                           const std::string& spool = "") {
  DaemonConfig config;
  config.workers = 1;
  config.join_router = router_address;
  config.join_every_ms = 50;
  config.spool_dir = spool;
  return config;
}

bool wait_until(const std::function<bool()>& done, int timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// Well-spread 64-bit fingerprints for ring unit tests.
std::uint64_t spread(std::uint64_t i) { return i * 0x9e3779b97f4a7c15ULL; }

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

// ------------------------------------------------------- ring units

TEST(ClusterRing, OwnerIsDeterministicAcrossInsertionOrders) {
  const std::vector<std::string> ids = {"10.0.0.1:7001", "10.0.0.2:7002",
                                        "10.0.0.3:7003", "10.0.0.4:7004"};
  HashRing forward(64);
  HashRing reverse(64);
  for (const std::string& id : ids) {
    EXPECT_TRUE(forward.add(id));
  }
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    EXPECT_TRUE(reverse.add(*it));
  }
  EXPECT_EQ(forward.size(), ids.size());
  EXPECT_EQ(forward.workers(), reverse.workers());
  for (std::uint64_t i = 1; i <= 2048; ++i) {
    EXPECT_EQ(forward.owner(spread(i)), reverse.owner(spread(i))) << i;
  }
  // Adding a present worker is a no-op, not a reshuffle.
  EXPECT_FALSE(forward.add(ids[0]));
  for (std::uint64_t i = 1; i <= 256; ++i) {
    EXPECT_EQ(forward.owner(spread(i)), reverse.owner(spread(i)));
  }
}

TEST(ClusterRing, RemovingAWorkerOnlyReassignsItsOwnKeys) {
  HashRing ring(64);
  const std::string a = "10.0.0.1:7001";
  const std::string b = "10.0.0.2:7002";
  const std::string c = "10.0.0.3:7003";
  ring.add(a);
  ring.add(b);
  ring.add(c);

  constexpr std::uint64_t kKeys = 4096;
  std::map<std::uint64_t, std::string> before;
  std::uint64_t owned_by_c = 0;
  for (std::uint64_t i = 1; i <= kKeys; ++i) {
    before[spread(i)] = ring.owner(spread(i));
    owned_by_c += before[spread(i)] == c ? 1u : 0u;
  }
  // With 64 vnodes each of three workers owns a substantial share.
  EXPECT_GT(owned_by_c, kKeys / 8);
  EXPECT_LT(owned_by_c, kKeys * 5 / 8);

  EXPECT_TRUE(ring.remove(c));
  EXPECT_FALSE(ring.contains(c));
  for (const auto& [fp, owner] : before) {
    const std::string now = ring.owner(fp);
    if (owner == c) {
      EXPECT_NE(now, c);  // the orphaned arcs land on survivors
    } else {
      EXPECT_EQ(now, owner) << "a surviving worker's key moved";
    }
  }
  EXPECT_FALSE(ring.remove(c));  // already gone
}

TEST(ClusterRing, PreferenceListsDistinctWorkersOwnerFirstAndHonorsExclude) {
  HashRing ring(64);
  const std::vector<std::string> ids = {"w1:1", "w2:2", "w3:3"};
  for (const std::string& id : ids) {
    ring.add(id);
  }
  for (std::uint64_t i = 1; i <= 64; ++i) {
    const std::uint64_t fp = spread(i);
    const std::vector<std::string> order = ring.preference(fp, 3);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], ring.owner(fp));
    EXPECT_NE(order[0], order[1]);
    EXPECT_NE(order[1], order[2]);
    EXPECT_NE(order[0], order[2]);

    // A migration must never route back to its draining origin.
    const std::vector<std::string> pruned = ring.preference(fp, 3, order[0]);
    ASSERT_EQ(pruned.size(), 2u);
    EXPECT_NE(pruned[0], order[0]);
    EXPECT_NE(pruned[1], order[0]);
  }

  HashRing empty(64);
  EXPECT_EQ(empty.owner(42), "");
  EXPECT_TRUE(empty.preference(42, 3).empty());
}

// ---------------------------------------------- router e2e, 3 workers

TEST(ClusterRouter, RoutesAcrossThreeWorkersAndServesBitIdenticalResults) {
  RouterConfig rc;
  rc.health_every_ms = 100;
  RouterHarness router(rc);
  WorkerHarness a(worker_config(router.address()));
  WorkerHarness b(worker_config(router.address()));
  WorkerHarness c(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 3; }))
      << "workers never completed their JOINs";

  Client client;
  router.connect(client);
  const std::string karate = data_file("karate.txt");
  const SubmitReply admitted = client.submit(inline_submit(karate));
  ASSERT_EQ(admitted.disposition, SubmitDisposition::kQueued)
      << admitted.detail;
  ASSERT_NE(admitted.job_id, 0u);
  const ResultReply reply = client.wait_result(admitted.job_id);
  expect_matches_local_run(reply, read_edge_list_text(karate),
                           DistributedBcOptions{});
  EXPECT_EQ(client.status(admitted.job_id).state, JobState::kDone);

  // An identical resubmit is a cache hit with the byte-identical block,
  // because the ring sends it to the same home worker.
  const SubmitReply again = client.submit(inline_submit(karate));
  EXPECT_EQ(again.disposition, SubmitDisposition::kCacheHit) << again.detail;
  const ResultReply cached = client.wait_result(again.job_id);
  ASSERT_TRUE(cached.ready);
  EXPECT_EQ(cached.block_bits, reply.block_bits);
  EXPECT_EQ(cached.block_bytes, reply.block_bytes)
      << "cached bytes differ from the fresh execution";

  // Distinct jobs spread over the tier and every one is served.
  unsigned distinct = 0;
  for (unsigned n = 16; n < 28; ++n, ++distinct) {
    const SubmitReply job =
        client.submit(inline_submit(write_edge_list_text(gen::cycle(n))));
    ASSERT_NE(job.disposition, SubmitDisposition::kRejected) << job.detail;
    ASSERT_TRUE(client.wait_result(job.job_id).ready) << "cycle(" << n << ")";
  }

  // STATS through the router is the cluster aggregate.
  const StatsReply aggregate = client.stats();
  EXPECT_GE(aggregate.submits, distinct + 2u);
  EXPECT_EQ(aggregate.workers, 3u);  // one pool thread per worker

  const RouterStats rs = router.router().stats();
  EXPECT_GE(rs.joins, 3u);
  EXPECT_EQ(rs.workers_active, 3u);
  EXPECT_GE(rs.submits_routed, distinct + 2u);

  // With 13 distinct fingerprints the ring essentially never maps them
  // all onto one worker ((1/3)^12 against it).
  const int busy = (a.daemon().stats().submits > 0 ? 1 : 0) +
                   (b.daemon().stats().submits > 0 ? 1 : 0) +
                   (c.daemon().stats().submits > 0 ? 1 : 0);
  EXPECT_GE(busy, 2) << "routing sent every job to a single worker";
}

// ------------------------------------------- cross-worker cache hits

TEST(ClusterRouter, CrossWorkerLookupServesByteIdenticalCachedBlocks) {
  RouterConfig rc;
  rc.health_every_ms = 100;
  RouterHarness router(rc);
  auto a = std::make_unique<WorkerHarness>(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 1; }));

  Client client;
  router.connect(client);
  struct Entry {
    std::string text;
    std::vector<std::uint8_t> bytes;
    std::uint64_t bits = 0;
  };
  std::vector<Entry> entries;
  for (unsigned n = 16; n < 32; ++n) {
    Entry entry;
    entry.text = write_edge_list_text(gen::cycle(n));
    const SubmitReply admitted = client.submit(inline_submit(entry.text));
    ASSERT_EQ(admitted.disposition, SubmitDisposition::kQueued)
        << admitted.detail;
    const ResultReply reply = client.wait_result(admitted.job_id);
    ASSERT_TRUE(reply.ready);
    entry.bytes = reply.block_bytes;
    entry.bits = reply.block_bits;
    entries.push_back(std::move(entry));
  }

  // Two fresh (cold-cache) workers join: ~2/3 of the keys remap away
  // from the worker that computed them.
  WorkerHarness b(worker_config(router.address()));
  WorkerHarness c(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 3; }));

  // Every resubmit is still a cache hit — locally when the key stayed
  // home, via the cross-worker LOOKUP when it remapped — and the bytes
  // are identical either way.
  for (const Entry& entry : entries) {
    const SubmitReply hit = client.submit(inline_submit(entry.text));
    EXPECT_EQ(hit.disposition, SubmitDisposition::kCacheHit) << hit.detail;
    const ResultReply replay = client.wait_result(hit.job_id);
    ASSERT_TRUE(replay.ready);
    EXPECT_EQ(replay.block_bits, entry.bits);
    EXPECT_EQ(replay.block_bytes, entry.bytes)
        << "replayed bytes differ from the original execution";
  }
  // With 16 keys over 3 workers, some remapped ((1/3)^16 against it),
  // so the cross-worker path demonstrably fired...
  EXPECT_GE(router.router().stats().cross_worker_hits, 1u);
  // ...and the original worker answered those probes from its cache.
  EXPECT_GE(a->daemon().stats().lookups_served, 1u);
}

// ------------------------------------------------ router result cache

TEST(ClusterRouter, ResultCacheServesWorkerBytesAndEvictsLeastRecentlyUsed) {
  RouterConfig rc;
  rc.health_every_ms = 100;
  rc.result_cache_entries = 2;
  RouterHarness router(rc);
  WorkerHarness worker(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 1; }));

  Client client;
  router.connect(client);
  const auto hits = [&] { return router.router().stats().result_cache_hits; };
  // Runs a never-seen graph on the worker; polling its RESULT through
  // the router puts the block into the router's cache.
  const auto fresh = [&](const std::string& text) {
    const SubmitReply admitted = client.submit(inline_submit(text));
    EXPECT_EQ(admitted.disposition, SubmitDisposition::kQueued)
        << admitted.detail;
    return client.wait_result(admitted.job_id);
  };
  // Submits `text` again; true when the router answered it itself.
  const auto router_hit = [&](const std::string& text,
                              const ResultReply& original) {
    const std::uint64_t before = hits();
    const SubmitReply again = client.submit(inline_submit(text));
    EXPECT_EQ(again.disposition, SubmitDisposition::kCacheHit) << again.detail;
    const ResultReply replay = client.wait_result(again.job_id);
    EXPECT_TRUE(replay.ready);
    EXPECT_EQ(replay.block_bits, original.block_bits);
    EXPECT_EQ(replay.block_bytes, original.block_bytes)
        << "cached bytes differ from the worker's";
    return hits() == before + 1;
  };

  const std::string a = write_edge_list_text(gen::cycle(16));
  const std::string b = write_edge_list_text(gen::cycle(17));
  const std::string c = write_edge_list_text(gen::cycle(18));
  const ResultReply ra = fresh(a);
  ASSERT_TRUE(ra.ready);
  expect_matches_local_run(ra, gen::cycle(16), DistributedBcOptions{});
  EXPECT_TRUE(router_hit(a, ra)) << "a repeated submit must be a router hit";
  const ResultReply rb = fresh(b);
  EXPECT_TRUE(router_hit(a, ra));  // a is now more recently used than b
  const ResultReply rc_reply = fresh(c);  // a third entry evicts b, not a
  EXPECT_TRUE(router_hit(a, ra)) << "the most recently used entry was evicted";
  EXPECT_TRUE(router_hit(c, rc_reply));
  EXPECT_FALSE(router_hit(b, rb))
      << "the least recently used entry survived a third insert";
  EXPECT_EQ(hits(), 4u);
  // Router hits never reach the worker: it ran each graph once and saw
  // one more submit, b's after its eviction.
  const StatsReply w = worker.daemon().stats();
  EXPECT_EQ(w.jobs_completed, 3u);
  EXPECT_EQ(w.submits, 4u);
}

// A router cache hit answers with the identity the worker reported for
// the block: SUBMIT, STATUS and RESULT carry its fingerprint and
// resolved backend.  A backend=auto submit, which a worker resolves by
// its own load, never enters the router cache.
TEST(ClusterRouter, ResultCacheHitsCarryTheWorkersIdentityAndSkipAuto) {
  RouterConfig rc;
  rc.health_every_ms = 100;
  rc.result_cache_entries = 8;
  RouterHarness router(rc);
  WorkerHarness worker(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 1; }));

  Client client;
  router.connect(client);
  const auto hits = [&] { return router.router().stats().result_cache_hits; };

  SubmitRequest exact = inline_submit(write_edge_list_text(gen::cycle(16)));
  exact.backend = static_cast<std::uint8_t>(BackendId::kPaperExact);
  const SubmitReply first = client.submit(exact);
  ASSERT_EQ(first.disposition, SubmitDisposition::kQueued) << first.detail;
  ASSERT_NE(first.fingerprint, 0u);
  EXPECT_EQ(first.backend, 1u);
  ASSERT_TRUE(client.wait_result(first.job_id).ready);

  const SubmitReply again = client.submit(exact);
  EXPECT_EQ(again.disposition, SubmitDisposition::kCacheHit) << again.detail;
  EXPECT_EQ(hits(), 1u) << "a repeated paper_exact submit must be a hit";
  EXPECT_EQ(again.fingerprint, first.fingerprint);
  EXPECT_EQ(again.backend, 1u);
  EXPECT_FALSE(again.downgraded);
  const StatusReply status = client.status(again.job_id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.fingerprint, first.fingerprint);
  const ResultReply result = client.result(again.job_id);
  ASSERT_TRUE(result.ready);
  EXPECT_EQ(result.fingerprint, first.fingerprint);

  SubmitRequest automatic = inline_submit(write_edge_list_text(gen::cycle(17)));
  automatic.backend = static_cast<std::uint8_t>(BackendId::kAuto);
  for (int i = 0; i < 3; ++i) {
    const SubmitReply reply = client.submit(automatic);
    ASSERT_NE(reply.job_id, 0u) << reply.detail;
    EXPECT_NE(reply.backend, 0u) << "the worker resolves auto";
    EXPECT_TRUE(client.wait_result(reply.job_id).ready);
  }
  EXPECT_EQ(hits(), 1u) << "an auto submit was answered from the router cache";
}

// ------------------------------------------------ the migration matrix

// A job caught mid-run on worker A by a SIGTERM-style drain resumes on
// worker B and finishes bit-identically to an uninterrupted local run
// (the legacy reference engine for the simulator backends) — for every
// backend the matrix names.  (cfp is not checkpointable: its transplant
// re-runs from scratch or ships the finished result; either way the
// bits must not change.)
TEST(ClusterMigration, DrainedJobsResumeOnSurvivorBitIdenticallyAcrossMatrix) {
  const Graph graph = gen::cycle(300);
  const std::string text = write_edge_list_text(graph);

  // Per-backend local references, computed once.
  DistributedBcOptions legacy;
  legacy.legacy_engine = true;
  const RunOutcome ref_exact = run_bc_with_watchdog(graph, legacy);
  ASSERT_EQ(ref_exact.status, RunStatus::kComplete) << ref_exact.detail;
  portfolio::BackendRequest cfp_request;
  cfp_request.graph = &graph;
  cfp_request.options.backend = BackendId::kCfp;
  const RunOutcome ref_cfp = portfolio::run_portfolio(cfp_request);
  ASSERT_EQ(ref_cfp.status, RunStatus::kComplete) << ref_cfp.detail;
  portfolio::BackendRequest sampled_request;
  sampled_request.graph = &graph;
  sampled_request.options = legacy;
  sampled_request.options.backend = BackendId::kSampled;
  sampled_request.options.approx_samples = 8;
  sampled_request.options.approx_seed = 1;
  const RunOutcome ref_sampled = portfolio::run_portfolio(sampled_request);
  ASSERT_EQ(ref_sampled.status, RunStatus::kComplete) << ref_sampled.detail;

  constexpr std::uint8_t kBackends[] = {1, 2, 4};  // exact/cfp/sampled
  for (const std::uint8_t backend : kBackends) {
    SCOPED_TRACE("backend=" + std::to_string(backend));
    TempDir spool("migrate_b" + std::to_string(backend));
    RouterConfig rc;
    rc.health_every_ms = 100;
    rc.migration_grace_ms = 30'000;
    RouterHarness router(rc);
    DaemonConfig config_a =
        worker_config(router.address(), (spool.path() / "a").string());
    DaemonConfig config_b =
        worker_config(router.address(), (spool.path() / "b").string());
    config_a.checkpoint_every = 8;
    config_b.checkpoint_every = 8;
    WorkerHarness a(config_a);
    WorkerHarness b(config_b);
    ASSERT_TRUE(wait_until(
        [&] { return router.router().stats().workers_active == 2; }));

    Client client;
    router.connect(client);
    SubmitRequest submit = inline_submit(text);
    submit.backend = backend;
    if (backend == 4) {
      submit.samples = 8;
      submit.sample_seed = 1;
    }
    const SubmitReply admitted = client.submit(submit);
    ASSERT_EQ(admitted.disposition, SubmitDisposition::kQueued)
        << admitted.detail;

    // Let the job leave the queue (running, or done for fast backends)
    // so the drain catches real mid-flight state, then kill its home.
    ASSERT_TRUE(wait_until([&] {
      return client.status(admitted.job_id).state != JobState::kQueued;
    }, 60'000));
    const bool home_is_a = a.daemon().stats().submits > 0;
    WorkerHarness& home = home_is_a ? a : b;
    WorkerHarness& survivor = home_is_a ? b : a;
    home.stop();  // drain: suspend, checkpoint, MIGRATE via the router

    EXPECT_GE(home.daemon().stats().migrated_out, 1u)
        << "the drain shipped nothing";
    ASSERT_TRUE(wait_until(
        [&] { return survivor.daemon().stats().migrated_in >= 1; }, 10'000))
        << "the survivor never admitted the transplant";

    const ResultReply reply = client.wait_result(admitted.job_id, 20,
                                                 120'000);
    ASSERT_TRUE(reply.ready) << reply.detail;
    const ResultBlock block = decode_block(reply);
    const RunOutcome& ref = backend == 1   ? ref_exact
                            : backend == 2 ? ref_cfp
                                           : ref_sampled;
    EXPECT_EQ(block.rounds, ref.result.rounds);
    expect_bit_equal(block.betweenness, ref.result.betweenness,
                     "betweenness");
    expect_bit_equal(block.stress, ref.result.stress, "stress");
  }
}

// --------------------------------------------- membership and grace

TEST(ClusterMembership, HealthChecksEvictDeadWorkersAndJoinHealsTheRing) {
  // The first worker is seeded statically and never JOINs, so when it
  // dies nothing LEAVEs: the router must notice by probing.
  DaemonConfig standalone;
  standalone.workers = 1;
  auto first = std::make_unique<WorkerHarness>(standalone);
  const std::uint16_t first_port = first->daemon().port();

  RouterConfig rc;
  rc.workers = {"127.0.0.1:" + std::to_string(first_port)};
  rc.health_every_ms = 50;
  rc.health_timeout_ms = 100;
  rc.eviction_threshold = 2;
  RouterHarness router(rc);
  EXPECT_EQ(router.router().stats().workers_active, 1u);

  WorkerHarness b(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 2; }));

  first->stop();  // dies without LEAVE
  ASSERT_TRUE(wait_until([&] {
    const RouterStats s = router.router().stats();
    return s.evictions >= 1 && s.workers_active == 1;
  })) << "health checks never evicted the dead worker";

  // The shrunken tier still serves.
  Client client;
  router.connect(client);
  const SubmitReply reply = client.submit(inline_submit(data_file("karate.txt")));
  ASSERT_NE(reply.disposition, SubmitDisposition::kRejected) << reply.detail;
  ASSERT_TRUE(client.wait_result(reply.job_id).ready);

  // Reincarnate the worker on its old port: its JOIN carries the same
  // ring identity and must heal the eviction, not create a stranger.
  DaemonConfig revived_config = worker_config(router.address());
  revived_config.port = first_port;
  first.reset();
  WorkerHarness revived(revived_config);
  ASSERT_TRUE(wait_until([&] {
    const RouterStats s = router.router().stats();
    return s.rejoins >= 1 && s.workers_active == 2;
  })) << "the JOIN never healed the eviction";
}

TEST(ClusterMembership, JobsOnALostWorkerAnswerQueuedThroughGraceThenFail) {
  DaemonConfig standalone;  // no spool, no join: death loses the job
  standalone.workers = 1;
  WorkerHarness victim(standalone);

  RouterConfig rc;
  rc.workers = {"127.0.0.1:" + std::to_string(victim.daemon().port())};
  rc.health_every_ms = 0;  // only the client's own polls probe the link
  rc.migration_grace_ms = 1500;
  RouterHarness router(rc);

  Client client;
  router.connect(client);
  const SubmitReply admitted =
      client.submit(inline_submit(write_edge_list_text(gen::cycle(600))));
  ASSERT_EQ(admitted.disposition, SubmitDisposition::kQueued)
      << admitted.detail;
  ASSERT_TRUE(wait_until([&] {
    return client.status(admitted.job_id).state == JobState::kRunning;
  }, 60'000));

  victim.stop();  // abandons the halted job: no spool, nowhere to migrate

  // Within the grace window the router keeps the client polling — this
  // is exactly what a drain handover looks like from the outside.
  const StatusReply during = client.status(admitted.job_id);
  EXPECT_EQ(during.state, JobState::kQueued) << during.detail;
  EXPECT_NE(during.detail.find("migration"), std::string::npos)
      << during.detail;

  // No MIGRATE ever arrives; once the grace lapses the verdict is a
  // typed failure telling the client to resubmit.
  ASSERT_TRUE(wait_until([&] {
    return client.status(admitted.job_id).state == JobState::kFailed;
  }, 10'000));
  const StatusReply after = client.status(admitted.job_id);
  EXPECT_NE(after.detail.find("resubmit"), std::string::npos) << after.detail;
  EXPECT_GE(router.router().stats().link_failures, 1u);
}

// ------------------------------------------------- hostile sessions

TEST(ClusterRouter, HostileBytesDrawATypedErrorAndTheRouterKeepsServing) {
  RouterConfig rc;
  RouterHarness router(rc);
  WorkerHarness worker(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 1; }));

  Client good;
  router.connect(good);
  EXPECT_EQ(good.stats().workers, 1u);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(router.router().port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // Not "GET ..." — that prefix selects the HTTP /metrics path
  // (MetricsEndpointServesRouterCounters); anything else is CBCP.
  const char garbage[] = "PUT /x HTTP/1.1\r\n\r\n";  // not CBCP
  ASSERT_GT(::send(fd, garbage, sizeof garbage - 1, 0), 0);

  // The router answers a typed ERROR frame, then closes the session.
  std::size_t total = 0;
  char buffer[256];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0) {
    total += static_cast<std::size_t>(n);
  }
  ::close(fd);
  EXPECT_GT(total, 0u) << "hostile bytes were dropped without a typed answer";
  EXPECT_GE(router.router().stats().protocol_errors, 1u);

  // Everyone else keeps being served on their existing sessions.
  EXPECT_EQ(good.stats().workers, 1u);
  const SubmitReply reply = good.submit(inline_submit(data_file("karate.txt")));
  ASSERT_NE(reply.disposition, SubmitDisposition::kRejected) << reply.detail;
  ASSERT_TRUE(good.wait_result(reply.job_id).ready);
}

/// One blocking HTTP exchange against a listener: sends the request
/// verbatim, reads to close, returns the raw response.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  EXPECT_GT(::send(fd, request.data(), request.size(), 0), 0);
  std::string response;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
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

// The router's port answers GET /metrics with its own counters, the
// same values Router::stats() reads in-process.
TEST(ClusterRouter, MetricsEndpointServesRouterCounters) {
  RouterConfig rc;
  rc.health_every_ms = 0;  // no probes: the counters hold still
  RouterHarness router(rc);
  WorkerHarness worker(worker_config(router.address()));
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().workers_active == 1; }));

  Client client;
  router.connect(client);
  const std::string karate = data_file("karate.txt");
  const SubmitReply admitted = client.submit(inline_submit(karate));
  ASSERT_EQ(admitted.disposition, SubmitDisposition::kQueued)
      << admitted.detail;
  ASSERT_TRUE(client.wait_result(admitted.job_id).ready);
  // One protocol error (an ERROR frame, then close), so that counter
  // reads nonzero too.
  EXPECT_FALSE(
      http_exchange(router.router().port(), "PUT /x HTTP/1.1\r\n\r\n").empty());
  ASSERT_TRUE(wait_until(
      [&] { return router.router().stats().protocol_errors == 1; }));

  const std::string response = http_exchange(
      router.router().port(), "GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n");
  ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  ASSERT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);
  const RouterStats s = router.router().stats();
  const auto counter = [&](const std::string& field) {
    return metric_value(body, "congestbc_router_" + field + "_total");
  };
  EXPECT_EQ(counter("submits_routed"), static_cast<double>(s.submits_routed));
  EXPECT_EQ(counter("spillovers"), static_cast<double>(s.spillovers));
  EXPECT_EQ(counter("cross_worker_hits"),
            static_cast<double>(s.cross_worker_hits));
  EXPECT_EQ(counter("migrations_forwarded"),
            static_cast<double>(s.migrations_forwarded));
  EXPECT_EQ(counter("migrations_failed"),
            static_cast<double>(s.migrations_failed));
  EXPECT_EQ(counter("joins"), static_cast<double>(s.joins));
  EXPECT_EQ(counter("leaves"), static_cast<double>(s.leaves));
  EXPECT_EQ(counter("evictions"), static_cast<double>(s.evictions));
  EXPECT_EQ(counter("rejoins"), static_cast<double>(s.rejoins));
  EXPECT_EQ(counter("link_failures"), static_cast<double>(s.link_failures));
  EXPECT_EQ(counter("protocol_errors"),
            static_cast<double>(s.protocol_errors));
  EXPECT_EQ(counter("result_cache_hits"),
            static_cast<double>(s.result_cache_hits));
  EXPECT_EQ(metric_value(body, "congestbc_router_workers_active"),
            static_cast<double>(s.workers_active));
  EXPECT_EQ(metric_value(body, "congestbc_router_jobs_tracked"),
            static_cast<double>(s.jobs_tracked));
  EXPECT_EQ(s.submits_routed, 1u);
  EXPECT_EQ(s.joins, 1u);
  EXPECT_EQ(s.protocol_errors, 1u);
  EXPECT_EQ(s.workers_active, 1u);
  EXPECT_EQ(s.jobs_tracked, 1u);

  // Unknown paths get a 404, and CBCP clients keep being served.
  EXPECT_NE(http_exchange(router.router().port(), "GET /nope HTTP/1.0\r\n\r\n")
                .find("404 Not Found"),
            std::string::npos);
  const SubmitReply again = client.submit(inline_submit(karate));
  EXPECT_EQ(again.disposition, SubmitDisposition::kCacheHit) << again.detail;
  ASSERT_TRUE(client.wait_result(again.job_id).ready);
}

// --------------------------------------------- chaos under the tier

// The PR-6 seeded chaos matrix, replayed with the adversity moved onto
// the router→worker link: the self-healing client converges on the
// byte-identical result through however many healed attempts, and the
// worker executes exactly once (retries coalesce or hit the cache).
TEST(ClusterChaos, SeededWorkerLinkChaosKeepsSingleExecutionAndIdenticalBytes) {
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
    DaemonConfig config;
    config.workers = 1;
    WorkerHarness worker(config);  // standalone; the router dials the proxy
    ChaosProxy proxy(ChaosPlan::parse(spec), "127.0.0.1",
                     worker.daemon().port());
    proxy.start();

    RouterConfig rc;
    rc.workers = {"127.0.0.1:" + std::to_string(proxy.port())};
    rc.health_every_ms = 0;        // keep the seeded schedule undisturbed
    rc.eviction_threshold = 1000;  // adversity must not shrink the ring
    rc.worker_timeout_ms = 5000;
    rc.migration_grace_ms = 60'000;  // flaky link ≠ lost job
    RouterHarness router(rc);

    RetryingClient client("127.0.0.1", router.router().port(),
                          chaos_policy(proxy.plan().seed));
    const ResultReply reply = client.submit_and_wait(inline_submit(karate));
    expect_matches_local_run(reply, graph, DistributedBcOptions{});
    EXPECT_GE(client.stats().attempts, 1u);
    proxy.stop();
    EXPECT_GT(proxy.stats().chunks.load(), 0u);

    // Exactly one execution behind the router, however much healing the
    // link needed: the worker's coalescing and cache absorbed the rest.
    EXPECT_EQ(worker.daemon().stats().jobs_completed, 1u)
        << "retries through the router must not duplicate work";
  }
}

}  // namespace
}  // namespace congestbc::cluster
