// The cluster front-end (DESIGN.md §16): one congestbc_router speaks
// CBCP v6 to clients and the same protocol over worker links to N
// congestbcd workers.  It runs the daemon's TCP loop
// (service/frame_server.hpp), so its port also answers `GET /metrics`
// with the router's own counters.
//
//   clients ──CBCP──▶ FrameServer io thread ──CBCP──▶ worker daemons
//                       │ consistent-hash ring (cluster/ring.hpp)
//                       │ job table: router id ⇄ (worker, remote id)
//                       │ health checks, eviction, rejoin
//                       └ migration forwarding (drain transplants)
//
// Routing: every SUBMIT hashes its result-determining fields into a
// route fingerprint (graph text, backend, approximation params, fault
// plan, …; stream-addressed work hashes its namespace so MUTATE and
// stream submits colocate).  The ring maps that hash to a home worker,
// so identical submits always meet on the same daemon — its result
// cache and in-flight coalescing stay exactly as hot as in the
// single-daemon deployment.  A draining home hands over to its ring
// successor; a busy home spills over the preference order.
//
// Cross-worker cache: when the home *queues* a fresh execution, the
// router first probes the other workers by authoritative fingerprint
// (LOOKUP).  A hit cancels the queued job and serves the cached bytes —
// byte-identical, because workers cache encoded blocks.
//
// Membership: workers JOIN (idempotent heartbeat) and LEAVE; the router
// also health-checks links round-robin and evicts a worker after N
// consecutive failures.  A later JOIN heals the eviction.
//
// Migration: a draining worker MIGRATEs its suspended jobs here; the
// router forwards each transplant to the fingerprint's ring successor
// (excluding the origin) and repoints its job table, so clients polling
// a router job id never notice the job changed hosts.
//
// The router holds no result state of its own beyond blocks it decided
// to serve (cross-worker hits, post-eviction lookups): workers stay the
// single source of truth for execution and caching.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/ring.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/frame_server.hpp"
#include "service/protocol.hpp"

namespace congestbc::cluster {

struct RouterConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is Router::port() after start().
  std::uint16_t port = 0;
  /// Static seed list of worker "host:port" addresses; workers may also
  /// (or instead) JOIN dynamically.
  std::vector<std::string> workers;
  /// Health-check cadence; each tick probes one active worker
  /// round-robin with a short STATS call.  0 disables probing (JOIN
  /// heartbeats and per-call failures still drive membership).
  std::uint64_t health_every_ms = 500;
  /// Consecutive failed probes/calls before a worker is evicted from
  /// the ring.  A JOIN from the worker heals the eviction.
  unsigned eviction_threshold = 3;
  /// Per-call budget on worker links (submits, migrations, results).
  int worker_timeout_ms = 30000;
  /// Budget on health probes — short, so a dead worker cannot stall the
  /// io thread for a full link timeout.
  int health_timeout_ms = 250;
  /// Probe other workers' caches (LOOKUP) before letting a fresh
  /// execution proceed on the home worker.
  bool cross_worker_lookup = true;
  /// How long a job on an unreachable worker keeps answering kQueued
  /// ("migration may be pending") before the router declares it lost.
  /// A draining worker closes its sessions before it MIGRATEs, so polls
  /// racing the handover must not fail the job; a worker that actually
  /// died fails its jobs once this window lapses.
  std::uint64_t migration_grace_ms = 10000;
  /// Virtual points per worker on the ring.
  unsigned ring_vnodes = 64;
  /// Router-held result blocks keyed by routing fingerprint (least
  /// recently used evicted beyond this many entries).  0 disables the
  /// cache.  With it
  /// on, a submit or poll whose (non-stream) work already produced a
  /// block through this router is answered from router memory without a
  /// worker round trip — what keeps thousands of concurrent pollers
  /// from serializing on the worker links.  Off by default so tests of
  /// the worker-side cache paths see every probe.
  std::size_t result_cache_entries = 0;
};

/// Router-plane counters, readable while serving (Router::stats()) and
/// scraped as `congestbc_router_<field>_total` from GET /metrics
/// (workers_active and jobs_tracked are gauges, without the suffix).
struct RouterStats {
  std::uint64_t submits_routed = 0;
  std::uint64_t spillovers = 0;       ///< home busy/draining, successor took it
  std::uint64_t cross_worker_hits = 0;
  std::uint64_t migrations_forwarded = 0;
  std::uint64_t migrations_failed = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejoins = 0;          ///< JOINs that healed an eviction
  std::uint64_t link_failures = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t workers_active = 0;
  std::uint64_t jobs_tracked = 0;
  /// Submits answered straight from the router's own result cache.
  std::uint64_t result_cache_hits = 0;
};

class Router final : public service::FrameServer {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  /// Binds + listens and seeds the ring with the static worker list.
  /// Throws std::runtime_error on socket failure.
  void start();

  RouterStats stats() const;

 private:
  enum class LinkState : std::uint8_t { kActive, kDraining, kEvicted, kLeft };

  struct WorkerLink {
    std::string id;    ///< ring identity, canonically "host:port"
    std::string host;  ///< dial-back address
    std::uint16_t port = 0;
    LinkState state = LinkState::kActive;
    unsigned consecutive_failures = 0;
    /// When the link first started failing (epoch = healthy); anchors
    /// the migration grace window for jobs stranded on this worker.
    std::chrono::steady_clock::time_point lost_since{};
    /// Persistent connection, lazily opened, reconnected once per call.
    service::Client client;
  };

  /// One client-visible job: where it actually runs, under which remote
  /// id, plus the block the router decided to serve itself (cross-worker
  /// hit, post-eviction lookup, migrated result held during handover).
  struct RoutedJob {
    std::string worker_id;
    std::uint64_t remote_id = 0;
    std::uint64_t fingerprint = 0;
    /// The backend the worker resolved the job to (SubmitReply::backend).
    std::uint8_t backend = 0;
    /// Routing fingerprint of the submit that created this job; keys the
    /// router result cache (0 when unknown, e.g. migrated-in jobs).
    std::uint64_t route_fp = 0;
    /// Non-stream work of a named backend (not auto), whose block may
    /// enter the router result cache.
    bool cacheable = false;
    /// Router-held result; when set, STATUS/RESULT are answered locally.
    std::shared_ptr<const service::CachedResult> held;
    bool terminal = false;  ///< retention GC eligibility
  };

  // --- request handling (io thread) ---
  service::Reply dispatch(const service::Request& request) override;
  /// GET /metrics → RouterStats as Prometheus text.
  std::optional<std::string> http_get(const std::string& path) override;
  void count_protocol_error() override;
  service::SubmitReply route_submit(const service::SubmitRequest& request);
  service::MutateReply route_mutate(const service::MutateRequest& request);
  service::StatusReply route_status(std::uint64_t router_job_id);
  service::ResultReply route_result(std::uint64_t router_job_id);
  service::CancelReply route_cancel(std::uint64_t router_job_id);
  service::StatsReply aggregate_stats();
  service::JoinReply handle_join(const service::JoinRequest& request);
  service::LeaveReply handle_leave(const service::LeaveRequest& request);
  service::MigrateReply forward_migrate(const service::MigrateRequest& request);
  service::LookupReply cluster_lookup(std::uint64_t fingerprint);

  // --- worker links ---
  WorkerLink* link(const std::string& worker_id);
  /// One call over a link: lazy connect, one reconnect on socket error.
  /// Socket failures count toward eviction and rethrow; a typed ERROR
  /// reply from the worker rethrows as its ProtocolError untouched.
  service::Reply link_call(WorkerLink& worker, const service::Request& request,
                           int timeout_ms);
  void note_link_failure(WorkerLink& worker);
  void evict_locked(WorkerLink& worker);
  /// The per-tick hook: probes one active worker every health_every_ms.
  void tick() override;
  /// True while a stranded job should keep answering kQueued: the worker
  /// has not cleanly LEFT and its link went dark less than
  /// migration_grace_ms ago (or is merely flapping).
  bool within_migration_grace(const WorkerLink* worker) const;

  /// Active workers in ring preference order for `route_fp`.
  std::vector<WorkerLink*> candidates(std::uint64_t route_fp,
                                      const std::string& exclude = "");

  /// Registers a routed job and returns the router-visible id.
  std::uint64_t track_job(const std::string& worker_id,
                          std::uint64_t remote_id, std::uint64_t fingerprint);
  void mark_terminal(std::uint64_t router_job_id, RoutedJob& job);
  void gc_jobs();

  // --- router result cache (io thread only) ---
  /// Holds `block` for the job, marks it terminal, and caches the block
  /// under the job's routing fingerprint when the job is cacheable.
  void hold(std::uint64_t router_job_id, RoutedJob& job,
            std::shared_ptr<const service::CachedResult> block);
  /// Holds the cached block of the job's fingerprint, if there is one.
  void adopt_cached_result(std::uint64_t router_job_id, RoutedJob& job);

  RouterConfig config_;

  /// Guards the membership/job/stats state below.  The io thread is the
  /// only mutator; the lock exists so stats() (tests, tooling) can read
  /// while serve() runs.
  mutable std::mutex mutex_;
  HashRing ring_;
  /// All workers ever seen, by id — evicted/left links stay here so a
  /// rejoin keeps its identity and in-flight polls can still try them.
  std::map<std::string, std::unique_ptr<WorkerLink>> workers_;
  std::vector<std::string> health_order_;  ///< round-robin probe cursor
  std::size_t health_cursor_ = 0;
  std::uint64_t next_job_id_ = 1;
  std::unordered_map<std::uint64_t, RoutedJob> jobs_;
  std::deque<std::uint64_t> terminal_order_;
  service::LruResultCache result_cache_;
  RouterStats stats_;

  std::chrono::steady_clock::time_point last_health_;
};

}  // namespace congestbc::cluster
