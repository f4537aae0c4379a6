// The BC serving daemon: a FrameServer (service/frame_server.hpp) that
// turns the one-shot pipeline (core/runner.hpp) into a long-lived
// service.
//
// Architecture (DESIGN.md §10):
//
//   clients ──TCP──▶ FrameServer io thread (poll loop, framing, /metrics)
//                      │ Daemon::dispatch: admission, bounded queue,
//                      │ fingerprint coalescing
//                      ▼
//                    WorkerPool (core/thread_pool.hpp)
//                      │ execute_job: run_portfolio + checkpoint policy,
//                      │ or a stream namespace's incremental maintainer
//                      ▼
//                    LRU result cache (service/cache.hpp)
//
// One io thread owns the sockets; N workers own the runs; a single
// scheduler mutex guards the shared state between them (queue, jobs,
// coalescing map, cache, metrics).  Clients poll RESULT — the daemon
// never pushes — so the io thread never blocks on a slow client or a
// slow job.
//
// Durability: with a spool directory configured, every admitted job is
// persisted (job-<fp>.req) and checkpointed while it runs
// (ckpt/<fp>/ckpt-*.cbcsnap, the PR-3 policy).  SIGTERM triggers a
// graceful drain: stop admitting, raise every running job's cooperative
// halt flag (DistributedBcOptions::halt_request) so it suspends at the
// next round boundary with a checkpoint, flush the cache index, exit.  A
// restarted daemon rescans the spool and resumes each job from its
// latest checkpoint — bit-identical to an uninterrupted run, because the
// checkpoint subsystem guarantees exactly that.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "core/runner.hpp"
#include "core/thread_pool.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "service/cache.hpp"
#include "service/frame_server.hpp"
#include "service/journal.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "stream/incremental_bc.hpp"
#include "stream/versioned_graph.hpp"

namespace congestbc::service {

struct DaemonConfig {
  /// Listen address.  Loopback by default: the daemon trusts its clients
  /// (no auth in protocol v1), so exposing it wider is an explicit choice.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is Daemon::port() after start().
  std::uint16_t port = 0;
  /// Concurrent job executions (WorkerPool size).  0 = hardware threads.
  unsigned workers = 2;
  /// Admission limit on jobs queued but not yet running; submits beyond
  /// it get a typed BUSY reply.
  std::size_t queue_limit = 16;
  /// Result-cache entries (0 disables caching).
  std::size_t cache_capacity = 64;
  /// Durability root (jobs/, ckpt/, cache/ live under it).  Empty = no
  /// persistence: drain abandons in-flight work instead of suspending it.
  std::string spool_dir;
  /// Base directory for GraphSource::kPath submits; empty = path submits
  /// are rejected.  Resolved paths may not escape it.
  std::string graph_root;
  /// Per-job checkpoint cadence while running (rounds); effective only
  /// with a spool_dir.  0 = only the suspension checkpoint at drain.
  std::uint64_t checkpoint_every = 0;
  unsigned checkpoint_keep = 2;
  /// Admission-side cap on a job's round budget; per-request max_rounds
  /// is clamped to it, 0 in the request means "the cap".
  std::uint64_t max_rounds_cap = 50'000'000;
  /// Wall-clock budget per job (ms); over-budget jobs are halted and
  /// failed.  0 = unlimited.
  std::uint64_t job_time_budget_ms = 0;
  /// Simulator lanes per job when the request leaves threads == 0.
  unsigned default_threads = 1;
  /// Periodic JSON metrics dump (service/metrics.hpp to_json); empty
  /// disables.  Always written once more at drain.
  std::string metrics_path;
  std::uint64_t metrics_every_ms = 1000;
  /// How long a terminal job (done/failed/cancelled) stays addressable by
  /// STATUS/RESULT before it is garbage-collected and answers kUnknown.
  /// 0 = no time limit (the retained-job cap still applies).
  std::uint64_t job_retention_ms = 300'000;
  /// Write-side backpressure: once a session has this many un-flushed
  /// reply bytes, the daemon stops reading and processing its requests
  /// until the backlog drains.  Worst-case buffered output per session is
  /// this limit plus one maximal reply frame.
  std::size_t session_out_limit = kDefaultSessionOutLimit;
  /// Cluster membership (v6): "host:port" of a congestbc_router to JOIN.
  /// Empty = standalone daemon.  When set, the daemon announces itself
  /// after binding, re-sends the (idempotent) JOIN every join_every_ms as
  /// the rejoin heartbeat, and at drain time transplants its suspended
  /// jobs and unfetched results to the router (MIGRATE) before LEAVE-ing
  /// the ring.
  std::string join_router;
  /// Address the router should dial this worker back on; defaults to
  /// `host` when empty (useful when the daemon binds 0.0.0.0).
  std::string advertise_host;
  /// Cadence of the periodic re-JOIN heartbeat (0 = announce once).
  std::uint64_t join_every_ms = 1000;
};

class Daemon final : public FrameServer {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  /// Binds + listens, recovers the spool (resumable jobs re-enqueued,
  /// persisted cache entries reloaded in LRU order), starts the workers.
  /// Throws std::runtime_error on socket failure.
  void start();

  /// Current stats snapshot (what a STATS request returns) — for tests
  /// and the periodic dump.
  StatsReply stats();

 private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t fingerprint = 0;
    JobState state = JobState::kQueued;
    SubmitRequest request;  ///< canonical form (what the spool stores)
    Graph graph{0, {}};
    /// Set instead of `graph` for backend=directed jobs (v5 portfolio
    /// plane); the run dispatches through portfolio::run_portfolio.
    std::optional<Digraph> digraph;
    DistributedBcOptions options;  ///< result-determining fields resolved
    std::string detail;
    /// Set in terminal states; shared with the cache on kDone.
    std::shared_ptr<const CachedResult> result;
    bool from_cache = false;
    bool cancel_requested = false;
    bool budget_exceeded = false;
    /// Halted because the client's propagated deadline lapsed mid-run.
    bool deadline_exceeded = false;
    /// Absolute client deadline — the max over every submitter that
    /// coalesced onto this execution; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /// Snapshot path to resume from (spool recovery).
    std::string resume_from;
    /// Cooperative halt flag wired into the run (drain / cancel / budget).
    std::atomic<bool> halt{false};
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point started;
    /// When the job entered a terminal state (GC eligibility clock).
    std::chrono::steady_clock::time_point terminal_at;
    /// Logical phase timeline of the harvested run
    /// (obs::format_phase_timeline); set when the run returns, served in
    /// STATUS replies.
    std::string phase_timeline;
    /// Non-empty: an incremental maintainer job against this stream
    /// namespace at stream_version (v4).  Such jobs are never spooled
    /// (re-requesting one after a restart is cheap and the maintainer
    /// state they need is rebuilt from the stream log anyway) and ignore
    /// cooperative halt — the maintainer runs to completion.
    std::string stream_ns;
    std::uint64_t stream_version = 0;
  };

  /// One live mutable graph (v4 streaming plane).  Guarded by mutex_.
  struct StreamNamespace {
    std::unique_ptr<stream::VersionedGraph> graph;
    /// Run fingerprints of result-cache entries produced through this
    /// namespace since its last mutation.  A MUTATE superseding the head
    /// erases exactly these (targeted invalidation, not a flush).
    std::unordered_set<std::uint64_t> live_cache_fps;
    /// Incremental maintainer, built lazily by the first incremental
    /// submit.  Null while checked out by a worker (see run_maintainer)
    /// — a concurrent incremental job for the same namespace then
    /// cold-starts its own rather than waiting.
    std::unique_ptr<stream::IncrementalBc> maintainer;
    /// The stream version maintainer's summaries describe.
    std::uint64_t maintainer_version = 0;
  };

  // --- request handling (io thread) ---
  Reply dispatch(const Request& request) override;
  /// GET /metrics → Prometheus text of the STATS counters + histograms.
  std::optional<std::string> http_get(const std::string& path) override;
  void count_protocol_error() override;
  SubmitReply handle_submit(const SubmitRequest& request);
  MutateReply handle_mutate(const MutateRequest& request);
  StatusReply handle_status(std::uint64_t job_id);
  ResultReply handle_result(std::uint64_t job_id);
  CancelReply handle_cancel(std::uint64_t job_id);
  ShutdownReply handle_shutdown();
  /// Target side of a drain-time transplant (v6).  Re-validates the
  /// inner canonical submit exactly like spool recovery — recomputed
  /// fingerprint must match the wire claim — before admitting a kResume
  /// (snapshot bytes land in the checkpoint directory so the run resumes
  /// bit-identically) or caching a kResult.
  MigrateReply handle_migrate(const MigrateRequest& request);
  /// Cross-worker result-cache probe by fingerprint (v6).
  LookupReply handle_lookup(const LookupRequest& request);
  StatsReply stats_locked();

  /// Parses + validates a submit into (graph-or-digraph, options,
  /// canonical request); throws ProtocolError(kBadRequest) with the
  /// reason.  `digraph` is engaged (and `graph` left empty) exactly when
  /// the request names the directed backend.
  void parse_submit(const SubmitRequest& request, Graph& graph,
                    std::optional<Digraph>& digraph,
                    DistributedBcOptions& options,
                    SubmitRequest& canonical) const;

  /// Rebuilds a queued job from a canonical submit that comes back from
  /// outside memory — a spooled .req or a MIGRATE transplant — and checks
  /// that it still describes `fingerprint`.  Throws with the reason when
  /// the submit does not parse, leaves backend=auto unresolved, or
  /// fingerprints differently.
  std::shared_ptr<Job> reparse_canonical_submit(const SubmitRequest& submit,
                                                std::uint64_t fingerprint) const;

  /// Resolves a stream-addressed submit (stream_ns set) into an inline
  /// one: materializes the addressed version under mutex_ and rewrites
  /// request.graph with its edge-list text.  Returns the resolved
  /// version.  Throws ProtocolError(kBadRequest) on an unknown
  /// namespace, a version beyond the head, or a non-empty inline graph.
  std::uint64_t resolve_stream_submit(SubmitRequest& request);

  // --- execution (worker threads) ---
  /// Where every job runs and finishes: claim, run step, encode, then
  /// cache/persist, metrics and the terminal (or suspended) state.
  void execute_job(const std::shared_ptr<Job>& job);
  /// Run step of a backend job: portfolio::run_portfolio under the job's
  /// halt flag, checkpointed into the spool when the backend can be.
  RunOutcome run_backend(const Job& job) const;
  /// Run step of an incremental (stream) job: checks the namespace's
  /// maintainer out under mutex_, advances it over the pending deltas (or
  /// cold-starts at the target version), and checks it back in.  Never
  /// halts.  `dirty_sources` is set to the number of sources it re-ran.
  RunOutcome run_maintainer(const Job& job, std::uint64_t& dirty_sources);
  void admit_locked(const std::shared_ptr<Job>& job);
  /// Takes a job off the admission queue if it is still there.
  void dequeue_locked(const std::shared_ptr<Job>& job);
  /// Registers a job that is done on arrival — served from the result
  /// cache or a transplanted block — and returns its id.
  std::uint64_t add_done_job_locked(std::uint64_t fingerprint,
                                    std::shared_ptr<const CachedResult> result);
  /// Stamps the terminal clock and enrolls the job for retention GC.
  void mark_terminal_locked(const std::shared_ptr<Job>& job);
  /// Evicts terminal jobs past the retention TTL or count cap; evicted
  /// ids answer kUnknown afterwards.
  void gc_jobs_locked(std::chrono::steady_clock::time_point now);

  // --- drain / per-tick hooks (io thread) ---
  /// Budget and deadline halts, job GC, metrics dump, JOIN heartbeat.
  void tick() override;
  /// Suspends queued jobs and halts running ones.
  void begin_drain() override;
  /// Done once no job is running.
  bool drain_complete() override;
  /// Stops the pool and flushes the cache index.
  void before_final_flush() override;
  /// Migrates suspended jobs (with join_router) and dumps metrics.
  void after_sessions_closed() override;

  // --- spool persistence ---
  std::string jobs_dir() const;
  std::string ckpt_dir(std::uint64_t fingerprint) const;
  std::string cache_dir() const;
  std::string quarantine_dir() const;
  void spool_write_job(const Job& job) const;
  void spool_remove_job(const Job& job) const;
  /// Journals the terminal transition, then removes the spool entry (a
  /// no-op without a spool and for stream jobs, which are never spooled).
  /// The order is the crash-safety invariant: a kill -9 between the two
  /// leaves a stale .req that recovery recognizes (terminal record) and
  /// removes instead of re-running.
  void retire_job_locked(const Job& job);
  /// Moves a corrupt/truncated spool file (or directory) into
  /// <spool>/quarantine/ and counts it — startup never trusts, deletes,
  /// or dies on bad state.
  void quarantine_path(const std::string& path);
  /// Writes a result-cache entry into the spool, when there is one.
  /// Best-effort: a failed write only costs the entry its warm restart.
  void persist_cache_entry(std::uint64_t fingerprint,
                           const CachedResult& result) const;
  void remove_cache_entry(std::uint64_t fingerprint) const;
  void flush_cache_index_locked() const;
  void recover_spool();
  void dump_metrics();

  // --- streaming plane (v4) ---
  std::string stream_dir(const std::string& ns) const;
  /// Persists one committed stream version (base edge list for version
  /// 0, the canonical batch otherwise) and journals its chained
  /// fingerprint — in that order, so an acknowledged version is always
  /// replayable and a batch file without its record is a torn commit.
  void persist_stream_version(const std::string& ns,
                              const StreamNamespace& state);
  /// Erases the cache entries a mutation superseded (memory + disk) and
  /// counts them.
  void invalidate_stream_cache_locked(StreamNamespace& state);
  /// Rebuilds streams_ from <spool>/stream/ at startup, accepting each
  /// namespace's batch files up to the highest version whose chained
  /// fingerprint the journal acknowledged (a later acknowledged
  /// fingerprint transitively authenticates its whole prefix — it chains
  /// over every earlier delta); trailing files are torn commits and are
  /// removed.  `trust_all` (journal unavailable) accepts every intact
  /// file instead.  Returns the per-namespace head fingerprints to seed
  /// the compacted journal with.
  std::vector<std::uint64_t> recover_streams(
      const std::vector<std::uint64_t>& journaled_mutations, bool trust_all);

  // --- cluster membership (v6) ---
  /// Stable ring identity: "<advertise-or-listen host>:<bound port>".
  std::string worker_id() const;
  /// One best-effort JOIN to config_.join_router (short timeout; a
  /// router that is not up yet is retried by the heartbeat).
  void announce_join();
  /// Drain-time transplant: ships every suspended job (canonical submit
  /// + newest valid checkpoint) and every done job still holding its
  /// request (unfetched result) to the router as MIGRATE frames, then
  /// LEAVEs the ring.  Accepted resumes release their local spool entry
  /// so a restarted daemon cannot re-run work that now lives elsewhere.
  void migrate_suspended_jobs();

  DaemonConfig config_;
  /// Drain observed by the io thread; written under mutex_ because
  /// workers read it.
  bool draining_ = false;

  std::unique_ptr<WorkerPool> pool_;

  /// Scheduler mutex: guards everything below (io thread + workers).
  std::mutex mutex_;
  std::uint64_t next_job_id_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;  // by id
  /// Queued-or-running jobs by fingerprint — the coalescing map.
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> inflight_;
  std::deque<std::shared_ptr<Job>> queue_;  ///< admission order
  /// Terminal job ids oldest-first — the retention GC scan order.
  std::deque<std::uint64_t> terminal_order_;
  /// Live stream namespaces by name (ordered so recovery, iteration,
  /// and the journal seed are deterministic).
  std::map<std::string, StreamNamespace> streams_;
  LruResultCache cache_;
  ServiceMetrics metrics_;
  std::uint64_t running_ = 0;
  /// Spool lifecycle journal (null without a spool dir or when the
  /// journal file is unwritable — then recovery falls back to trusting
  /// the .req files alone).  Appended under mutex_.
  std::unique_ptr<SpoolJournal> journal_;

  std::chrono::steady_clock::time_point last_metrics_dump_;
  std::chrono::steady_clock::time_point last_join_;
};

}  // namespace congestbc::service
