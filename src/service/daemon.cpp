#include "service/daemon.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "congest/fault.hpp"
#include "core/runner.hpp"
#include "obs/phase_profile.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "portfolio/backend.hpp"
#include "service/client.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/fingerprint.hpp"
#include "snapshot/field_walk.hpp"

namespace congestbc::service {

namespace fs = std::filesystem;

namespace {

/// Version of the spool file payloads (job-*.req, res-*.res).
constexpr std::uint64_t kSpoolVersion = 1;

// The spool payloads, each one walk (snapshot/field_walk.hpp) inside a
// CBCSNAP1 container.  A job file holds the job's fingerprint and its
// canonical SUBMIT as an encoded request; a result file repeats the
// fingerprint its name carries, then the run status and the encoded
// result block.

void walk_spooled_job(auto io, auto& fingerprint, auto& request) {
  io.expect(kSpoolVersion, "spool version mismatch");
  io.varuint(fingerprint);
  io.block(request, "request");
}

void walk_spooled_result(auto io, const std::uint64_t& fingerprint,
                         auto& result) {
  io.expect(kSpoolVersion, "spool version mismatch");
  io.expect(fingerprint, "fingerprint mismatch");
  io.bounded(result.run_status, 0,
             static_cast<std::uint8_t>(RunStatus::kError), "run status");
  io.block(result.block_bytes, result.block_bits, "result");
}

void write_spool_file(const fs::path& path, const auto& walk) {
  const BitWriter payload = fields::write_fields(walk);
  write_file_atomic(path.string(), [&payload](std::ostream& out) {
    write_snapshot_container(out, payload);
  });
}

/// Throws SnapshotError on a damaged container or payload.
void read_spool_file(std::istream& in, const auto& walk) {
  const SnapshotPayload container = read_snapshot_container(in);
  BitReader r = container.reader();
  fields::read_fields<fields::SnapshotFail>(r, true, walk);
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return std::string(buf);
}

/// The servable block of an outcome — complete or partial harvest alike.
ResultBlock outcome_to_block(const RunOutcome& outcome) {
  ResultBlock block;
  block.run_status = static_cast<std::uint8_t>(outcome.status);
  block.detail = outcome.detail;
  block.rounds = outcome.result.rounds;
  block.diameter = outcome.result.diameter;
  block.total_bits = outcome.result.metrics.total_bits;
  block.total_physical_messages = outcome.result.metrics.total_physical_messages;
  block.betweenness = outcome.result.betweenness;
  block.closeness = outcome.result.closeness;
  block.graph_centrality = outcome.result.graph_centrality;
  block.stress = outcome.result.stress;
  block.eccentricities = outcome.result.eccentricities;
  return block;
}

/// Cache key of an incremental result: the classic run fingerprint
/// folded with a domain tag.  Incremental scores are bit-identical to a
/// from-scratch *decomposed* recompute, not to a combined engine run
/// over the same graph/options, so the two product families must never
/// share cache entries.
std::uint64_t tagged_incremental_fingerprint(std::uint64_t run_fp) {
  static const std::uint8_t kTag[] = {'i', 'n', 'c', '-', 'b', 'c'};
  return fnv1a_u64(run_fp, fnv1a(kTag, sizeof kTag));
}

/// The newest checkpoint of a directory whose snapshot container
/// verifies, read whole.  A torn or rotten one falls back to the
/// next-oldest; worst case none verifies and the job re-runs from round
/// zero, still bit-identically.
struct ReadableCheckpoint {
  std::string path;  ///< empty when no checkpoint verifies
  std::vector<std::uint8_t> bytes;
  /// The newer checkpoints passed over, newest first.
  std::vector<std::string> unreadable;
};

ReadableCheckpoint newest_readable_checkpoint(const std::string& directory) {
  ReadableCheckpoint found;
  const std::vector<std::string> checkpoints = list_checkpoints(directory);
  for (auto ck = checkpoints.rbegin(); ck != checkpoints.rend(); ++ck) {
    std::ifstream in(*ck, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    try {
      std::istringstream check(bytes);
      (void)read_snapshot_container(check);
    } catch (const std::exception&) {
      found.unreadable.push_back(*ck);
      continue;
    }
    found.path = *ck;
    found.bytes.assign(bytes.begin(), bytes.end());
    break;
  }
  return found;
}

/// Stream namespace names become spool directory names, so they are
/// restricted to a filesystem-safe alphabet.
bool valid_stream_ns(const std::string& ns) {
  if (ns.empty() || ns.size() > 64) {
    return false;
  }
  for (const char c : ns) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

/// Batch file body: one canonical op per line, "i u v" / "d u v".
std::string format_stream_batch(const std::vector<GraphDeltaOp>& delta) {
  std::string text;
  for (const GraphDeltaOp& op : delta) {
    text += op.insert ? 'i' : 'd';
    text += ' ';
    text += std::to_string(op.u);
    text += ' ';
    text += std::to_string(op.v);
    text += '\n';
  }
  return text;
}

/// Parses a batch file back into wire ops (replayed through
/// VersionedGraph::apply, which re-canonicalizes them against the same
/// graph state and therefore reproduces the same delta + fingerprint).
std::vector<stream::EdgeOp> parse_stream_batch(std::istream& in) {
  std::vector<stream::EdgeOp> ops;
  std::string kind;
  unsigned long long u = 0;
  unsigned long long v = 0;
  while (in >> kind >> u >> v) {
    if (kind != "i" && kind != "d") {
      throw std::runtime_error("bad stream batch op kind: " + kind);
    }
    stream::EdgeOp op;
    op.kind = kind == "i" ? stream::EdgeOpKind::kInsert
                          : stream::EdgeOpKind::kRemove;
    op.u = static_cast<NodeId>(u);
    op.v = static_cast<NodeId>(v);
    ops.push_back(op);
  }
  return ops;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : FrameServer(config.session_out_limit),
      config_(std::move(config)),
      cache_(config_.cache_capacity) {}

Daemon::~Daemon() {
  // The serve thread calls this daemon's hooks: join it before any
  // member goes away.
  request_drain();
  wait();
  if (pool_) {
    pool_->stop();
  }
}

void Daemon::start() {
  if (pool_) {
    return;
  }
  // The wake pipe must exist before the pool starts: finished jobs
  // write to it.
  listen_on(config_.host, config_.port);
  pool_ = std::make_unique<WorkerPool>(config_.workers);
  if (!config_.spool_dir.empty()) {
    fs::create_directories(config_.spool_dir);
    recover_spool();
  }
  last_metrics_dump_ = std::chrono::steady_clock::now();
  if (!config_.join_router.empty()) {
    // Best-effort: the router may not be up yet; the heartbeat in
    // tick() keeps retrying (and heals evictions).
    announce_join();
    last_join_ = std::chrono::steady_clock::now();
  }
}

StatsReply Daemon::stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_locked();
}

StatsReply Daemon::stats_locked() {
  StatsReply s = metrics_.snapshot();
  const double uptime_ns = static_cast<double>(s.uptime_ms) * 1e6;
  if (pool_ && uptime_ns > 0.0) {
    s.worker_utilization = std::clamp(
        static_cast<double>(pool_->busy_nanos()) /
            (uptime_ns * static_cast<double>(pool_->threads())),
        0.0, 1.0);
  }
  for (const auto& [ns, state] : streams_) {
    s.graph_version = std::max(s.graph_version, state.graph->version());
  }
  s.queue_depth = queue_.size();
  s.running = running_;
  s.workers = pool_ ? pool_->threads() : 0;
  s.cache_entries = cache_.size();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  return s;
}

// ------------------------------------------------ frame-server hooks

std::optional<std::string> Daemon::http_get(const std::string& path) {
  if (path != "/metrics") {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return prometheus_text(stats_locked(), metrics_.latency_ms_hist,
                         metrics_.job_rounds_hist,
                         metrics_.round_throughput_hist);
}

void Daemon::count_protocol_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++metrics_.counters.protocol_errors;
}

void Daemon::tick() {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (config_.job_time_budget_ms != 0) {
      // Only queued/running jobs live in the coalescing map, so this scan
      // is bounded by queue_limit + workers, not by the job table.
      for (auto& [fp, job] : inflight_) {
        if (job->state != JobState::kRunning || job->budget_exceeded) {
          continue;
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                                  job->started)
                .count();
        if (elapsed >= 0 &&
            static_cast<std::uint64_t>(elapsed) > config_.job_time_budget_ms) {
          job->budget_exceeded = true;
          job->halt.store(true, std::memory_order_relaxed);
        }
      }
    }
    // Client deadlines: a queued job whose submitter's budget ran out
    // fails on the spot (it will never be collected); a running one is
    // asked to halt at its next round boundary and fails in
    // execute_job's completion path.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      const std::shared_ptr<Job> job = it->second;
      if (job->deadline == std::chrono::steady_clock::time_point::max() ||
          now < job->deadline) {
        ++it;
        continue;
      }
      if (job->state == JobState::kQueued) {
        job->state = JobState::kFailed;
        job->detail = "client deadline expired before the job started";
        dequeue_locked(job);
        ++metrics_.counters.jobs_failed;
        ++metrics_.counters.deadline_expired;
        mark_terminal_locked(job);
        retire_job_locked(*job);
        it = inflight_.erase(it);
        continue;
      }
      if (job->state == JobState::kRunning && !job->deadline_exceeded) {
        job->deadline_exceeded = true;
        job->halt.store(true, std::memory_order_relaxed);
      }
      ++it;
    }
    gc_jobs_locked(now);
  }
  if (!config_.metrics_path.empty() && config_.metrics_every_ms != 0) {
    const auto since = std::chrono::duration_cast<std::chrono::milliseconds>(
                           now - last_metrics_dump_)
                           .count();
    if (since >= 0 &&
        static_cast<std::uint64_t>(since) >= config_.metrics_every_ms) {
      dump_metrics();
      last_metrics_dump_ = now;
    }
  }
  if (!config_.join_router.empty() && !draining_ &&
      config_.join_every_ms != 0) {
    const auto since = std::chrono::duration_cast<std::chrono::milliseconds>(
                           now - last_join_)
                           .count();
    if (since >= 0 &&
        static_cast<std::uint64_t>(since) >= config_.join_every_ms) {
      announce_join();
      last_join_ = now;
    }
  }
}

// ------------------------------------------------------------- drain

void Daemon::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  // Queued-but-unstarted jobs: suspend on the spot.  Their spool entries
  // (written at admission) are what a restarted daemon re-enqueues.
  for (const auto& job : queue_) {
    job->state = JobState::kSuspended;
    job->detail = config_.spool_dir.empty()
                      ? "daemon drained before the job started (no spool "
                        "directory; resubmit after restart)"
                      : "daemon drained before the job started; spooled for "
                        "restart";
    ++metrics_.counters.jobs_suspended;
    inflight_.erase(job->fingerprint);
  }
  queue_.clear();
  // Running jobs: cooperative halt — each suspends at its next round
  // boundary, writing the suspension checkpoint when a spool is set.
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) {
      job->halt.store(true, std::memory_order_relaxed);
    }
  }
}

bool Daemon::drain_complete() {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_ == 0;
}

void Daemon::before_final_flush() {
  if (pool_) {
    pool_->stop();
  }
  if (!config_.spool_dir.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    flush_cache_index_locked();
  }
}

// Sessions close BEFORE migration: the router is one of them, and its
// io thread must not sit in a poll this daemon will never answer while
// that same thread is the one that has to forward our MIGRATEs — the
// instant EOF frees it (and tells it to stop routing polls here).
void Daemon::after_sessions_closed() {
  if (!config_.join_router.empty()) {
    // Transplant suspended jobs (and unfetched results) to a surviving
    // worker via the router, then leave the ring — before the final
    // metrics dump so migrated_out makes the last snapshot.
    migrate_suspended_jobs();
  }
  if (!config_.metrics_path.empty()) {
    dump_metrics();
  }
}

// -------------------------------------------- cluster membership (v6)

std::string Daemon::worker_id() const {
  const std::string& host =
      config_.advertise_host.empty() ? config_.host : config_.advertise_host;
  return host + ":" + std::to_string(port());
}

void Daemon::announce_join() {
  std::string host;
  std::uint16_t port = 0;
  if (!split_host_port(config_.join_router, host, port)) {
    return;
  }
  try {
    Client client;
    // Short budget: this runs on the io thread, and a dead router must
    // not stall serving for more than a heartbeat's fraction.
    client.connect(host, port, 250);
    JoinRequest join;
    join.worker_id = worker_id();
    join.host =
        config_.advertise_host.empty() ? config_.host : config_.advertise_host;
    join.port = FrameServer::port();
    (void)client.join(join);
  } catch (const std::exception&) {
    // Best-effort; the next heartbeat retries.
  }
}

void Daemon::migrate_suspended_jobs() {
  std::string host;
  std::uint16_t port = 0;
  if (!split_host_port(config_.join_router, host, port)) {
    return;
  }
  // Assemble the transplants under the lock, do wire I/O outside it.
  // Incremental (stream) jobs never migrate: their tagged fingerprint is
  // not recomputable from a submit alone, and the maintainer state they
  // need is rebuilt from the stream log wherever they re-run.
  std::vector<MigrateRequest> outgoing;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_set<std::uint64_t> seen;
    for (const auto& [id, job] : jobs_) {
      if (!job->stream_ns.empty() || job->request.graph.empty() ||
          !seen.insert(job->fingerprint).second) {
        continue;
      }
      if (job->state == JobState::kSuspended) {
        MigrateRequest m;
        m.kind = MigrateKind::kResume;
        m.fingerprint = job->fingerprint;
        m.origin_job_id = job->id;
        m.origin_worker = worker_id();
        m.submit = job->request;
        if (!config_.spool_dir.empty()) {
          // The newest checkpoint that decodes travels along.
          ReadableCheckpoint ck =
              newest_readable_checkpoint(ckpt_dir(job->fingerprint));
          if (!ck.path.empty()) {
            m.snapshot_round = checkpoint_round_of(ck.path);
            m.snapshot_bytes = std::move(ck.bytes);
          }
        }
        outgoing.push_back(std::move(m));
      } else if (job->state == JobState::kDone && job->result != nullptr) {
        // Unfetched finished work: ship the encoded block so a client
        // polling through the router still gets its bytes after this
        // worker is gone.
        MigrateRequest m;
        m.kind = MigrateKind::kResult;
        m.fingerprint = job->fingerprint;
        m.origin_job_id = job->id;
        m.origin_worker = worker_id();
        m.submit = job->request;
        m.block_bytes = job->result->block_bytes;
        m.block_bits = job->result->block_bits;
        outgoing.push_back(std::move(m));
      }
    }
  }

  std::vector<std::uint64_t> resumed_elsewhere;
  std::uint64_t shipped = 0;
  try {
    Client client;
    client.connect(host, port, 5000);
    for (const MigrateRequest& m : outgoing) {
      try {
        const MigrateReply reply = client.migrate(m);
        if (reply.outcome == MigrateOutcome::kAccepted ||
            reply.outcome == MigrateOutcome::kCoalesced) {
          ++shipped;
          if (m.kind == MigrateKind::kResume) {
            resumed_elsewhere.push_back(m.fingerprint);
          }
        }
      } catch (const std::exception&) {
        // This transplant stays local (spool entry intact); keep going.
      }
    }
    LeaveRequest leave;
    leave.worker_id = worker_id();
    (void)client.leave(leave);
  } catch (const std::exception&) {
    // No router reachable: everything stays in the local spool, exactly
    // as a standalone drain would leave it.
  }

  std::lock_guard<std::mutex> lock(mutex_);
  metrics_.counters.migrated_out += shipped;
  for (const std::uint64_t fp : resumed_elsewhere) {
    // The job now lives on another worker.  Release the local spool
    // entry (journal first, the usual crash-safety order) so a restarted
    // daemon cannot re-run work that migrated — that would be the
    // cluster-level double execution the coalescing map exists to stop.
    for (const auto& [id, job] : jobs_) {
      if (job->fingerprint == fp && job->state == JobState::kSuspended) {
        retire_job_locked(*job);
        break;
      }
    }
  }
}

// -------------------------------------------------- request handling

Reply Daemon::dispatch(const Request& request) {
  Reply reply;
  switch (request.type) {
    case MsgType::kSubmit:
      reply.type = MsgType::kSubmitReply;
      reply.submit = handle_submit(request.submit);
      break;
    case MsgType::kMutate:
      reply.type = MsgType::kMutateReply;
      reply.mutate = handle_mutate(request.mutate);
      break;
    case MsgType::kStatus:
      reply.type = MsgType::kStatusReply;
      reply.status = handle_status(request.job.job_id);
      break;
    case MsgType::kResult:
      reply.type = MsgType::kResultReply;
      reply.result = handle_result(request.job.job_id);
      break;
    case MsgType::kCancel:
      reply.type = MsgType::kCancelReply;
      reply.cancel = handle_cancel(request.job.job_id);
      break;
    case MsgType::kStats:
      reply.type = MsgType::kStatsReply;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        reply.stats = stats_locked();
      }
      break;
    case MsgType::kShutdown:
      reply.type = MsgType::kShutdownReply;
      reply.shutdown = handle_shutdown();
      break;
    case MsgType::kJoin:
      // Workers hold no ring; a JOIN aimed at a worker is a client
      // misconfiguration, answered in-protocol rather than with an error
      // so the sender sees *why* instead of losing the connection.
      reply.type = MsgType::kJoinReply;
      reply.join.accepted = false;
      reply.join.detail = "not a router (point --join at congestbc_router)";
      break;
    case MsgType::kLeave:
      reply.type = MsgType::kLeaveReply;
      reply.leave.removed = false;
      break;
    case MsgType::kMigrate:
      reply.type = MsgType::kMigrateReply;
      reply.migrate = handle_migrate(request.migrate);
      break;
    case MsgType::kLookup:
      reply.type = MsgType::kLookupReply;
      reply.lookup = handle_lookup(request.lookup);
      break;
    default:
      throw ProtocolError(ProtoError::kUnknownType, "unhandled request type");
  }
  return reply;
}

void Daemon::parse_submit(const SubmitRequest& request, Graph& graph,
                          std::optional<Digraph>& digraph,
                          DistributedBcOptions& options,
                          SubmitRequest& canonical) const {
  std::string text;
  if (request.source == GraphSource::kPath) {
    if (config_.graph_root.empty()) {
      throw ProtocolError(ProtoError::kBadRequest,
                          "path submits disabled (daemon has no --graph-root)");
    }
    std::error_code ec;
    const fs::path root = fs::weakly_canonical(config_.graph_root, ec);
    const fs::path resolved =
        fs::weakly_canonical(fs::path(config_.graph_root) / request.graph, ec);
    const std::string root_prefix = root.string() + "/";
    if (ec || (resolved.string() != root.string() &&
               resolved.string().rfind(root_prefix, 0) != 0)) {
      throw ProtocolError(ProtoError::kBadRequest,
                          "graph path escapes --graph-root");
    }
    std::ifstream in(resolved, std::ios::binary);
    if (!in) {
      throw ProtocolError(ProtoError::kBadRequest,
                          "cannot open graph file: " + resolved.string());
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else {
    text = request.graph;
  }
  if (request.backend > static_cast<std::uint8_t>(BackendId::kSampled)) {
    throw ProtocolError(ProtoError::kBadRequest, "unknown backend id");
  }
  const auto backend = static_cast<BackendId>(request.backend);
  if ((backend == BackendId::kCfp || backend == BackendId::kDirected) &&
      (!request.faults.empty() || request.reliable)) {
    // These backends have no fault/transport story (their CBC_EXPECTS
    // would fire mid-run); reject at admission with a typed reason.
    throw ProtocolError(ProtoError::kBadRequest,
                        std::string("backend '") + to_string(backend) +
                            "' does not support fault injection or the "
                            "reliable transport");
  }
  if (backend == BackendId::kDirected) {
    // The directed backend reads orientation: its own edge-list dialect,
    // its own connectivity precondition (weak, not strong).
    try {
      digraph = read_directed_edge_list_text(text);
    } catch (const std::exception& e) {
      throw ProtocolError(ProtoError::kBadRequest,
                          std::string("bad directed graph: ") + e.what());
    }
    if (digraph->num_nodes() == 0) {
      throw ProtocolError(ProtoError::kBadRequest, "empty graph");
    }
    if (!is_weakly_connected(*digraph)) {
      throw ProtocolError(ProtoError::kBadRequest,
                          "digraph is not weakly connected (directed "
                          "backend precondition)");
    }
  } else {
    try {
      graph = read_edge_list_text(text);
    } catch (const std::exception& e) {
      throw ProtocolError(ProtoError::kBadRequest,
                          std::string("bad graph: ") + e.what());
    }
    if (graph.num_nodes() == 0) {
      throw ProtocolError(ProtoError::kBadRequest, "empty graph");
    }
    if (!is_connected(graph)) {
      throw ProtocolError(ProtoError::kBadRequest,
                          "graph is not connected (model precondition)");
    }
  }
  FaultPlan plan;
  if (!request.faults.empty()) {
    try {
      plan = FaultPlan::parse(request.faults);
    } catch (const std::exception& e) {
      throw ProtocolError(ProtoError::kBadRequest,
                          std::string("bad fault spec: ") + e.what());
    }
  }
  options = DistributedBcOptions{};
  options.halve = request.halve;
  options.reliable_transport = request.reliable;
  options.faults = std::move(plan);
  options.max_rounds = request.max_rounds == 0
                           ? config_.max_rounds_cap
                           : std::min(request.max_rounds, config_.max_rounds_cap);
  options.threads = request.threads == 0 ? config_.default_threads
                                         : static_cast<unsigned>(request.threads);
  // v5 portfolio fields.  kAuto stays unresolved here — handle_submit
  // resolves it under the scheduler lock where queue pressure is
  // observable, before anything fingerprints.  The approximation params
  // only determine the result under the sampled backend; canonicalize
  // them away elsewhere (mirrors options_fingerprint).
  options.backend = backend;
  if (backend == BackendId::kSampled) {
    options.approx_samples = request.samples;
    options.approx_seed = request.sample_seed;
  }

  // Canonical form: always inline, graph re-serialized, budgets resolved —
  // so the spool is self-contained and a resubmit of either form
  // fingerprints identically.
  canonical = request;
  canonical.source = GraphSource::kInline;
  canonical.graph = backend == BackendId::kDirected
                        ? write_directed_edge_list_text(*digraph)
                        : write_edge_list_text(graph);
  canonical.max_rounds = options.max_rounds;
  canonical.samples = backend == BackendId::kSampled ? request.samples : 0;
  canonical.sample_seed =
      backend == BackendId::kSampled ? request.sample_seed : 0;
  // Retry metadata never reaches the spool or the fingerprint: attempt 3
  // of a submit must coalesce with attempt 1.
  canonical.deadline_ms = 0;
  canonical.attempt = 1;
  // Stream addressing is resolved to the inline text above before
  // parse_submit runs, so the canonical form (and with it the spool and
  // the fingerprint) is self-contained: a version-addressed submit
  // fingerprints identically to an inline submit of the same edges.
  canonical.stream_ns.clear();
  canonical.stream_version = 0;
  canonical.incremental = false;
}

std::shared_ptr<Daemon::Job> Daemon::reparse_canonical_submit(
    const SubmitRequest& submit, std::uint64_t fingerprint) const {
  auto job = std::make_shared<Job>();
  parse_submit(submit, job->graph, job->digraph, job->options, job->request);
  if (job->options.backend == BackendId::kAuto) {
    // The origin resolved auto at its own admission; re-resolving under
    // this worker's load could silently change the result family.
    throw ProtocolError(ProtoError::kBadRequest,
                        "submit must carry a resolved backend");
  }
  const std::uint64_t recomputed =
      job->digraph.has_value() ? run_fingerprint(*job->digraph, job->options)
                               : run_fingerprint(job->graph, job->options);
  if (recomputed != fingerprint) {
    throw ProtocolError(ProtoError::kBadRequest,
                        "fingerprint mismatch (the submit does not describe "
                        "its own payload)");
  }
  job->fingerprint = fingerprint;
  job->submitted = std::chrono::steady_clock::now();
  return job;
}

std::uint64_t Daemon::resolve_stream_submit(SubmitRequest& request) {
  if (!request.graph.empty() || request.source == GraphSource::kPath) {
    throw ProtocolError(ProtoError::kBadRequest,
                        "stream-addressed submit must not carry a graph");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(request.stream_ns);
  if (it == streams_.end()) {
    throw ProtocolError(ProtoError::kBadRequest,
                        "unknown stream namespace: " + request.stream_ns);
  }
  const stream::VersionedGraph& vg = *it->second.graph;
  const std::uint64_t version =
      request.stream_version == 0 ? vg.version() : request.stream_version;
  if (version > vg.version()) {
    throw ProtocolError(ProtoError::kBadRequest,
                        "stream version " + std::to_string(version) +
                            " beyond head " + std::to_string(vg.version()));
  }
  request.source = GraphSource::kInline;
  request.graph = version == vg.version()
                      ? write_edge_list_text(vg.head())
                      : write_edge_list_text(vg.at(version));
  return version;
}

SubmitReply Daemon::handle_submit(const SubmitRequest& request) {
  Graph graph(0, {});
  std::optional<Digraph> digraph;
  DistributedBcOptions options;
  SubmitRequest canonical;
  std::string reject_detail;
  bool parsed = false;
  std::uint64_t stream_version = 0;
  try {
    SubmitRequest effective = request;
    if (!request.stream_ns.empty()) {
      if (effective.backend ==
          static_cast<std::uint8_t>(BackendId::kDirected)) {
        throw ProtocolError(ProtoError::kBadRequest,
                            "stream namespaces hold undirected graphs; the "
                            "directed backend cannot address them");
      }
      if (effective.incremental &&
          effective.backend !=
              static_cast<std::uint8_t>(BackendId::kPaperExact) &&
          effective.backend != static_cast<std::uint8_t>(BackendId::kAuto)) {
        throw ProtocolError(ProtoError::kBadRequest,
                            "incremental submits are served by the "
                            "paper_exact maintainer; pick backend "
                            "paper_exact or auto");
      }
      stream_version = resolve_stream_submit(effective);
      if (effective.incremental && !effective.faults.empty()) {
        throw ProtocolError(ProtoError::kBadRequest,
                            "incremental submit cannot carry a fault plan "
                            "(the maintainer assumes fault-free runs)");
      }
    } else if (request.incremental) {
      throw ProtocolError(ProtoError::kBadRequest,
                          "incremental submit requires a stream namespace");
    }
    parse_submit(effective, graph, digraph, options, canonical);
    parsed = true;
  } catch (const std::exception& e) {
    reject_detail = e.what();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++metrics_.counters.submits;
  if (request.attempt > 1) {
    ++metrics_.counters.retried_submits;
  }
  SubmitReply reply;
  if (!parsed) {
    reply.disposition = SubmitDisposition::kRejected;
    reply.detail = reject_detail;
    return reply;
  }
  // Serve-time backend selection (v5): resolve backend=auto under the
  // scheduler lock, where queue depth and the latency estimate live.
  // Auto degrades to the sampled approximation when the queue is at
  // least half full, or when the client's deadline cannot plausibly
  // cover an exact run — and the downgrade is visible in the reply and
  // the backend_downgrades counter.  Incremental submits never
  // downgrade: the maintainer is already the fast path.
  bool downgraded = false;
  if (options.backend == BackendId::kAuto) {
    bool under_pressure = false;
    if (!request.incremental) {
      const bool queue_pressure = queue_.size() * 2 >= config_.queue_limit;
      const double p50 = metrics_.latency_percentile(50.0);
      const bool deadline_risk =
          request.deadline_ms != 0 &&
          p50 * static_cast<double>(queue_.size() + 1) >
              0.5 * static_cast<double>(request.deadline_ms);
      under_pressure = queue_pressure || deadline_risk;
    }
    options.backend =
        portfolio::resolve_auto_backend(BackendId::kAuto, under_pressure);
    downgraded = options.backend == BackendId::kSampled;
    if (downgraded) {
      ++metrics_.counters.backend_downgrades;
      options.approx_samples = request.samples;
      options.approx_seed = request.sample_seed;
    }
  }
  // The canonical form (spool + fingerprint identity) carries the
  // *resolved* backend: recovery re-runs exactly what was decided here.
  canonical.backend = static_cast<std::uint8_t>(options.backend);
  canonical.samples =
      options.backend == BackendId::kSampled ? options.approx_samples : 0;
  canonical.sample_seed =
      options.backend == BackendId::kSampled ? options.approx_seed : 0;
  reply.backend = canonical.backend;
  reply.downgraded = downgraded;
  // Incremental results live under a tagged key: same graph + options,
  // different product family (decomposed vs combined summation).
  const std::uint64_t fp =
      digraph.has_value()
          ? run_fingerprint(*digraph, options)
          : (request.incremental
                 ? tagged_incremental_fingerprint(
                       run_fingerprint(graph, options))
                 : run_fingerprint(graph, options));
  reply.fingerprint = fp;
  if (!request.stream_ns.empty()) {
    // Track what this namespace's working set has cached so a MUTATE can
    // invalidate exactly these entries.
    const auto it = streams_.find(request.stream_ns);
    if (it != streams_.end()) {
      it->second.live_cache_fps.insert(fp);
    }
  }
  if (draining_) {
    ++metrics_.counters.draining_rejections;
    reply.disposition = SubmitDisposition::kDraining;
    reply.detail = "daemon is draining";
    return reply;
  }
  if (auto cached = cache_.get(fp)) {
    reply.disposition = SubmitDisposition::kCacheHit;
    reply.job_id = add_done_job_locked(fp, std::move(cached));
    return reply;
  }
  if (const auto it = inflight_.find(fp); it != inflight_.end()) {
    ++metrics_.counters.coalesced;
    // The coalesced job serves every submitter, so it lives until the
    // *latest* deadline among them — and forever if any submitter had
    // none (time_point::max() means "no deadline").
    if (request.deadline_ms == 0) {
      it->second->deadline = std::chrono::steady_clock::time_point::max();
    } else if (it->second->deadline !=
               std::chrono::steady_clock::time_point::max()) {
      it->second->deadline =
          std::max(it->second->deadline,
                   std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(request.deadline_ms));
    }
    reply.disposition = SubmitDisposition::kCoalesced;
    reply.job_id = it->second->id;
    return reply;
  }
  if (queue_.size() >= config_.queue_limit) {
    ++metrics_.counters.busy_rejections;
    reply.disposition = SubmitDisposition::kBusy;
    reply.detail = "queue full (" + std::to_string(queue_.size()) + " queued)";
    return reply;
  }
  if (request.deadline_ms != 0) {
    // Deadline-aware admission: when the client's remaining budget cannot
    // plausibly cover queue wait + run (estimated from the p50 of recent
    // jobs), reject now so the client retries elsewhere or gives up —
    // instead of burning a worker on a result nobody will wait for.
    // With no latency history yet the estimate is zero and every deadline
    // is accepted.
    const double p50 = metrics_.latency_percentile(50.0);
    const double estimated_ms =
        p50 * static_cast<double>(queue_.size() + 1);
    if (estimated_ms > static_cast<double>(request.deadline_ms)) {
      ++metrics_.counters.deadline_rejections;
      reply.disposition = SubmitDisposition::kDeadline;
      reply.detail = "deadline " + std::to_string(request.deadline_ms) +
                     " ms < estimated " +
                     std::to_string(static_cast<std::uint64_t>(estimated_ms)) +
                     " ms (p50 latency x queue depth)";
      return reply;
    }
  }
  auto job = std::make_shared<Job>();
  job->id = next_job_id_++;
  job->fingerprint = fp;
  job->request = std::move(canonical);
  job->graph = std::move(graph);
  job->digraph = std::move(digraph);
  job->options = std::move(options);
  if (request.incremental) {
    job->stream_ns = request.stream_ns;
    job->stream_version = stream_version;
  }
  job->submitted = std::chrono::steady_clock::now();
  if (request.deadline_ms != 0) {
    job->deadline =
        job->submitted + std::chrono::milliseconds(request.deadline_ms);
  }
  admit_locked(job);
  reply.disposition = SubmitDisposition::kQueued;
  reply.job_id = job->id;
  return reply;
}

MutateReply Daemon::handle_mutate(const MutateRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  MutateReply reply;
  if (draining_) {
    reply.outcome = MutateOutcome::kDraining;
    reply.detail = "daemon is draining";
    return reply;
  }
  if (!valid_stream_ns(request.ns)) {
    reply.outcome = MutateOutcome::kRejected;
    reply.detail = "bad namespace (1-64 chars of [A-Za-z0-9_-] required)";
    return reply;
  }
  std::vector<stream::EdgeOp> ops;
  ops.reserve(request.ops.size());
  for (const MutateOp& op : request.ops) {
    stream::EdgeOp e;
    e.kind = op.kind == 1 ? stream::EdgeOpKind::kInsert
                          : stream::EdgeOpKind::kRemove;
    e.u = op.u;
    e.v = op.v;
    ops.push_back(e);
  }

  auto it = streams_.find(request.ns);
  if (it == streams_.end()) {
    // Creation: the first MUTATE naming a namespace must carry the
    // version-0 graph and expect version 0; ops ride along as version 1.
    if (request.base_graph.empty()) {
      reply.outcome = MutateOutcome::kRejected;
      reply.detail =
          "unknown namespace '" + request.ns + "' (creation needs base_graph)";
      return reply;
    }
    if (request.base_version != 0) {
      reply.outcome = MutateOutcome::kRejected;
      reply.detail = "creation requires base_version 0";
      return reply;
    }
    Graph base(0, {});
    try {
      base = read_edge_list_text(request.base_graph);
    } catch (const std::exception& e) {
      reply.outcome = MutateOutcome::kRejected;
      reply.detail = std::string("bad base graph: ") + e.what();
      return reply;
    }
    if (base.num_nodes() == 0) {
      reply.outcome = MutateOutcome::kRejected;
      reply.detail = "empty base graph";
      return reply;
    }
    // Validate the ride-along batch before anything is committed, so a
    // bad batch rejects the whole creation.
    try {
      (void)stream::VersionedGraph::canonicalize(base, ops);
    } catch (const std::exception& e) {
      reply.outcome = MutateOutcome::kRejected;
      reply.detail = std::string("bad batch: ") + e.what();
      return reply;
    }
    StreamNamespace state;
    state.graph = std::make_unique<stream::VersionedGraph>(std::move(base));
    it = streams_.emplace(request.ns, std::move(state)).first;
    StreamNamespace& s = it->second;
    persist_stream_version(request.ns, s);  // version 0
    reply.outcome = MutateOutcome::kCreated;
    if (!ops.empty()) {
      const stream::ApplyOutcome out = s.graph->apply(ops);
      persist_stream_version(request.ns, s);  // version 1
      metrics_.counters.mutations_applied += out.applied;
      reply.applied = out.applied;
      reply.dropped = out.dropped;
    }
    reply.version = s.graph->version();
    reply.fingerprint = s.graph->fingerprint();
    return reply;
  }

  StreamNamespace& s = it->second;
  if (!request.base_graph.empty()) {
    reply.outcome = MutateOutcome::kRejected;
    reply.detail = "base_graph is only valid when creating a namespace";
    return reply;
  }
  if (request.base_version != s.graph->version()) {
    // Optimistic concurrency: report the actual head so the client can
    // re-read and rebase its batch.
    reply.outcome = MutateOutcome::kVersionConflict;
    reply.version = s.graph->version();
    reply.fingerprint = s.graph->fingerprint();
    reply.detail = "expected base version " +
                   std::to_string(s.graph->version()) + ", got " +
                   std::to_string(request.base_version);
    return reply;
  }
  stream::ApplyOutcome out;
  try {
    out = s.graph->apply(ops);
  } catch (const std::exception& e) {
    reply.outcome = MutateOutcome::kRejected;
    reply.detail = std::string("bad batch: ") + e.what();
    return reply;
  }
  // Commit order: batch file, then journal record (fsynced), then the
  // reply the caller sends — an acknowledged version is always
  // replayable after a crash.
  persist_stream_version(request.ns, s);
  metrics_.counters.mutations_applied += out.applied;
  invalidate_stream_cache_locked(s);
  reply.outcome = MutateOutcome::kApplied;
  reply.version = out.version;
  reply.fingerprint = out.fingerprint;
  reply.applied = out.applied;
  reply.dropped = out.dropped;
  return reply;
}

void Daemon::mark_terminal_locked(const std::shared_ptr<Job>& job) {
  job->terminal_at = std::chrono::steady_clock::now();
  terminal_order_.push_back(job->id);
}

std::uint64_t Daemon::add_done_job_locked(
    std::uint64_t fingerprint, std::shared_ptr<const CachedResult> result) {
  auto job = std::make_shared<Job>();
  job->id = next_job_id_++;
  job->fingerprint = fingerprint;
  job->state = JobState::kDone;
  job->result = std::move(result);
  job->from_cache = true;
  job->submitted = std::chrono::steady_clock::now();
  jobs_.emplace(job->id, job);
  mark_terminal_locked(job);
  return job->id;
}

void Daemon::dequeue_locked(const std::shared_ptr<Job>& job) {
  const auto pos = std::find(queue_.begin(), queue_.end(), job);
  if (pos != queue_.end()) {
    queue_.erase(pos);
  }
}

/// Hard cap on retained terminal jobs — the oldest are collected first.
/// Bounds daemon memory even under a flood of fire-and-forget submits.
constexpr std::size_t kJobRetentionLimit = 1024;

void Daemon::gc_jobs_locked(std::chrono::steady_clock::time_point now) {
  // terminal_order_ is completion-ordered, so the front is always the
  // next eviction candidate; one pass never revisits survivors.
  while (!terminal_order_.empty()) {
    const auto it = jobs_.find(terminal_order_.front());
    if (it == jobs_.end()) {
      terminal_order_.pop_front();
      continue;
    }
    const bool over_cap = terminal_order_.size() > kJobRetentionLimit;
    bool expired = false;
    if (config_.job_retention_ms != 0) {
      const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                           now - it->second->terminal_at)
                           .count();
      expired = age >= 0 &&
                static_cast<std::uint64_t>(age) >= config_.job_retention_ms;
    }
    if (!over_cap && !expired) {
      break;
    }
    jobs_.erase(it);
    terminal_order_.pop_front();
  }
}

void Daemon::admit_locked(const std::shared_ptr<Job>& job) {
  jobs_.emplace(job->id, job);
  inflight_.emplace(job->fingerprint, job);
  queue_.push_back(job);
  if (!config_.spool_dir.empty() && job->stream_ns.empty()) {
    try {
      spool_write_job(*job);
      // ADMIT lands only after the .req does: a journal entry without a
      // matching spool file would resurrect a job with no request body.
      if (journal_) {
        journal_->append(SpoolJournal::Record::kAdmit, job->fingerprint);
      }
    } catch (const std::exception&) {
      // Persistence is best-effort: the job still runs, it just cannot be
      // resumed across a restart.
    }
  }
  pool_->submit([this, job] { execute_job(job); });
}

StatusReply Daemon::handle_status(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  StatusReply reply;
  reply.job_id = job_id;
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    reply.state = JobState::kUnknown;
    reply.detail = "no such job";
    return reply;
  }
  const Job& job = *it->second;
  reply.state = job.state;
  reply.fingerprint = job.fingerprint;
  reply.detail = job.detail;
  reply.phase_timeline = job.phase_timeline;
  if (job.state == JobState::kQueued) {
    const auto pos = std::find(queue_.begin(), queue_.end(), it->second);
    reply.queue_position =
        static_cast<std::uint32_t>(std::distance(queue_.begin(), pos));
  }
  return reply;
}

ResultReply Daemon::handle_result(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ResultReply reply;
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    reply.state = JobState::kUnknown;
    reply.detail = "no such job";
    return reply;
  }
  const Job& job = *it->second;
  reply.state = job.state;
  reply.fingerprint = job.fingerprint;
  reply.detail = job.detail;
  reply.from_cache = job.from_cache;
  if ((job.state == JobState::kDone || job.state == JobState::kFailed) &&
      job.result != nullptr) {
    reply.ready = true;
    reply.block_bytes = job.result->block_bytes;
    reply.block_bits = job.result->block_bits;
  }
  return reply;
}

CancelReply Daemon::handle_cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  CancelReply reply;
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    reply.outcome = CancelOutcome::kNotFound;
    return reply;
  }
  const std::shared_ptr<Job>& job = it->second;
  switch (job->state) {
    case JobState::kQueued: {
      job->state = JobState::kCancelled;
      job->detail = "cancelled before start";
      dequeue_locked(job);
      inflight_.erase(job->fingerprint);
      ++metrics_.counters.jobs_cancelled;
      mark_terminal_locked(job);
      retire_job_locked(*job);
      reply.outcome = CancelOutcome::kCancelled;
      break;
    }
    case JobState::kRunning:
      // Cooperative and best-effort: the run usually suspends at its next
      // round boundary and the completion path discards it — but a run
      // that finishes before observing the halt still lands kDone.  The
      // reply says "requested", not "cancelled", for exactly that reason.
      job->cancel_requested = true;
      job->halt.store(true, std::memory_order_relaxed);
      reply.outcome = CancelOutcome::kRequested;
      break;
    default:
      reply.outcome = CancelOutcome::kTooLate;
      break;
  }
  return reply;
}

ShutdownReply Daemon::handle_shutdown() {
  request_drain();
  ShutdownReply reply;
  reply.draining = true;
  return reply;
}

MigrateReply Daemon::handle_migrate(const MigrateRequest& request) {
  MigrateReply reply;
  reply.fingerprint = request.fingerprint;

  // Validate before touching shared state, with the same distrust
  // recover_spool applies to its own .req files — a corrupt or forged
  // transplant is rejected, never run (and never served) under the wrong
  // identity.
  std::shared_ptr<Job> job;
  try {
    job = reparse_canonical_submit(request.submit, request.fingerprint);
  } catch (const std::exception& e) {
    reply.outcome = MigrateOutcome::kRejected;
    reply.detail = std::string("bad migrated submit: ") + e.what();
    return reply;
  }

  if (request.kind == MigrateKind::kResult) {
    // A finished block travels with its submit purely so the identity
    // check above can run; the block itself must decode too.
    auto cached = std::make_shared<CachedResult>();
    try {
      BitReader r(request.block_bytes.data(),
                  static_cast<std::size_t>(request.block_bits));
      const ResultBlock block = decode_result_block(r);
      cached->run_status = block.run_status;
    } catch (const std::exception& e) {
      reply.outcome = MigrateOutcome::kRejected;
      reply.detail = std::string("bad migrated block: ") + e.what();
      return reply;
    }
    cached->block_bytes = request.block_bytes;
    cached->block_bits = request.block_bits;

    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      reply.outcome = MigrateOutcome::kDraining;
      reply.detail = "target is draining";
      return reply;
    }
    const bool known = cache_.peek(request.fingerprint) != nullptr;
    if (!known) {
      cache_.put(request.fingerprint, cached);
      persist_cache_entry(request.fingerprint, *cached);
    }
    // Either way the transplant arrived and is honored here — a done job
    // is synthesized below and the router repoints the origin's id at it
    // — so it counts as migrated in even when the block was already
    // cached locally (cross-worker LOOKUP may have warmed it).
    ++metrics_.counters.migrated_in;
    // Synthesize a done job either way so the router can repoint the
    // origin's job id here and clients keep polling RESULT untouched.
    reply.outcome =
        known ? MigrateOutcome::kCoalesced : MigrateOutcome::kAccepted;
    reply.job_id = add_done_job_locked(
        request.fingerprint, known ? cache_.get(request.fingerprint) : cached);
    return reply;
  }

  // kResume: validate the snapshot container (when one rides along)
  // before anything is admitted.
  if (!request.snapshot_bytes.empty()) {
    try {
      std::istringstream in(std::string(request.snapshot_bytes.begin(),
                                        request.snapshot_bytes.end()));
      (void)read_snapshot_container(in);
    } catch (const std::exception& e) {
      reply.outcome = MigrateOutcome::kRejected;
      reply.detail = std::string("bad migrated checkpoint: ") + e.what();
      return reply;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    reply.outcome = MigrateOutcome::kDraining;
    reply.detail = "target is draining";
    return reply;
  }
  if (auto cached = cache_.get(request.fingerprint)) {
    // This worker already finished identical work: serve it instead of
    // re-running (the migrated snapshot is moot).
    reply.outcome = MigrateOutcome::kCoalesced;
    reply.job_id = add_done_job_locked(request.fingerprint, std::move(cached));
    return reply;
  }
  if (const auto it = inflight_.find(request.fingerprint);
      it != inflight_.end()) {
    ++metrics_.counters.coalesced;
    reply.outcome = MigrateOutcome::kCoalesced;
    reply.job_id = it->second->id;
    return reply;
  }
  if (queue_.size() >= config_.queue_limit) {
    reply.outcome = MigrateOutcome::kRejected;
    reply.detail = "queue full; route the transplant elsewhere";
    return reply;
  }

  job->id = next_job_id_++;
  if (!request.snapshot_bytes.empty() && !config_.spool_dir.empty()) {
    // Land the (already validated) container bytes in this worker's own
    // checkpoint directory, verbatim — the run then resumes from them
    // exactly as it would from a local suspension checkpoint.  With no
    // spool dir, or when the write fails, the job simply re-runs from
    // round zero, which is still bit-identical.
    const std::string target =
        (fs::path(ckpt_dir(request.fingerprint)) /
         checkpoint_file_name(request.snapshot_round))
            .string();
    try {
      write_file_atomic(target, [&request](std::ostream& out) {
        out.write(reinterpret_cast<const char*>(request.snapshot_bytes.data()),
                  static_cast<std::streamsize>(request.snapshot_bytes.size()));
      });
      job->resume_from = target;
    } catch (const std::exception&) {
      // resume_from stays empty: a from-scratch re-run.
    }
  }
  ++metrics_.counters.migrated_in;
  ++metrics_.counters.submits;
  admit_locked(job);
  reply.outcome = MigrateOutcome::kAccepted;
  reply.job_id = job->id;
  return reply;
}

LookupReply Daemon::handle_lookup(const LookupRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  LookupReply reply;
  reply.fingerprint = request.fingerprint;
  if (auto cached = cache_.get(request.fingerprint)) {
    reply.found = true;
    reply.block_bytes = cached->block_bytes;
    reply.block_bits = cached->block_bits;
    ++metrics_.counters.lookups_served;
  }
  return reply;
}

// --------------------------------------------------------- execution

void Daemon::execute_job(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->state != JobState::kQueued || draining_) {
      return;  // cancelled or suspended while waiting its turn
    }
    job->state = JobState::kRunning;
    job->started = std::chrono::steady_clock::now();
    ++running_;
    dequeue_locked(job);
  }

  std::uint64_t dirty_sources = 0;
  const RunOutcome outcome = job->stream_ns.empty()
                                 ? run_backend(*job)
                                 : run_maintainer(*job, dirty_sources);

  // Encode outside the lock — blocks can be large.
  const ResultBlock block = outcome_to_block(outcome);
  const BitWriter encoded = encode_result_block(block);
  auto servable = std::make_shared<CachedResult>();
  servable->block_bytes = encoded.bytes();
  servable->block_bits = encoded.bit_size();
  servable->run_status = block.run_status;
  // A block too large for one RESULT frame must fail here, with a typed
  // detail, rather than trip frame_bytes' invariant on the reply path.
  const bool block_servable = encoded.bit_size() <= kMaxServableBlockBits;
  const std::string unservable_detail =
      "result block (" + std::to_string((encoded.bit_size() + 7) / 8) +
      " bytes) exceeds the " + std::to_string(kMaxFramePayloadBytes >> 20) +
      " MiB frame cap; graph too large to serve over protocol v" +
      std::to_string(kProtocolVersion);

  std::lock_guard<std::mutex> lock(mutex_);
  if (running_ > 0) {
    --running_;
  }
  const double latency_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - job->submitted)
          .count();
  inflight_.erase(job->fingerprint);
  metrics_.counters.dirty_sources_rerun += dirty_sources;
  // Partial runs carry a (truncated) profile too — useful for debugging
  // a cancelled or over-budget job.
  job->phase_timeline =
      obs::format_phase_timeline(outcome.result.phase_profile);

  const bool halted = outcome.status == RunStatus::kSuspended;
  if (halted && !job->cancel_requested && !job->budget_exceeded &&
      !job->deadline_exceeded) {
    // Drain suspension: the run just wrote its boundary checkpoint (when
    // a spool is configured); the spool entry stays for the restart.
    job->state = JobState::kSuspended;
    job->detail = config_.spool_dir.empty()
                      ? "suspended by drain (no spool directory; resubmit "
                        "after restart)"
                      : "suspended by drain; checkpointed for restart";
    ++metrics_.counters.jobs_suspended;
    wake();
    return;
  }
  if (halted && job->cancel_requested) {
    job->state = JobState::kCancelled;
    job->detail = "cancelled while running";
    ++metrics_.counters.jobs_cancelled;
  } else if (outcome.status == RunStatus::kComplete && block_servable) {
    job->state = JobState::kDone;
    job->detail = outcome.detail;  // a stream job's dirty/clean summary
    job->result = servable;
    cache_.put(job->fingerprint, servable);
    ++metrics_.counters.jobs_completed;
    persist_cache_entry(job->fingerprint, *servable);
  } else if (outcome.status == RunStatus::kComplete) {
    job->state = JobState::kFailed;
    job->detail = unservable_detail;
    ++metrics_.counters.jobs_failed;
  } else {
    // Over budget, past the client deadline, or broken: the partial
    // harvest is served (degraded serving) but never cached.
    job->state = JobState::kFailed;
    if (!halted) {
      job->detail = outcome.detail.empty() ? to_string(outcome.status)
                                           : outcome.detail;
    } else if (job->budget_exceeded) {
      job->detail = "wall-clock budget exceeded (" +
                    std::to_string(config_.job_time_budget_ms) + " ms)";
    } else {
      job->detail = "client deadline expired while the job ran";
      ++metrics_.counters.deadline_expired;
    }
    if (block_servable) {
      job->result = servable;
    } else {
      job->detail += "; " + unservable_detail;
    }
    ++metrics_.counters.jobs_failed;
  }
  if (job->state != JobState::kCancelled) {
    metrics_.record_latency_ms(latency_ms);
    metrics_.record_job_rounds(outcome.result.rounds, latency_ms);
  }
  mark_terminal_locked(job);
  retire_job_locked(*job);
  // Nudge the poll loop so a drain waiting on running_ notices promptly.
  wake();
}

RunOutcome Daemon::run_backend(const Job& job) const {
  DistributedBcOptions options = job.options;
  options.halt_request = &job.halt;
  // Only the simulator-engine backends speak the checkpoint protocol;
  // cfp/directed reject those options loudly, and their runs are cheap
  // enough that drain just suspends them at a source boundary.
  const portfolio::BcBackend* backend_impl =
      portfolio::BackendRegistry::instance().find(options.backend);
  const bool checkpointable =
      backend_impl != nullptr && backend_impl->capabilities().simulator_engines;
  if (!config_.spool_dir.empty() && checkpointable) {
    options.checkpoint_dir = ckpt_dir(job.fingerprint);
    options.checkpoint_every = config_.checkpoint_every;
    options.checkpoint_keep_last = config_.checkpoint_keep;
    options.resume_from = job.resume_from;
  }
  try {
    portfolio::BackendRequest breq;
    if (job.digraph.has_value()) {
      breq.digraph = &*job.digraph;
    } else {
      breq.graph = &job.graph;
    }
    breq.options = options;
    return portfolio::run_portfolio(breq);
  } catch (const std::exception& e) {
    RunOutcome outcome;
    outcome.status = RunStatus::kError;
    outcome.detail = e.what();
    return outcome;
  }
}

RunOutcome Daemon::run_maintainer(const Job& job,
                                  std::uint64_t& dirty_sources) {
  // Check the namespace's maintainer out and collect the canonical
  // deltas between its version and the job's target.  A missing,
  // checked-out, or option-incompatible maintainer means a cold start
  // (full decomposed build at the target version) — always correct,
  // just not incremental.
  std::unique_ptr<stream::IncrementalBc> maintainer;
  std::vector<GraphDeltaOp> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(job.stream_ns);
    if (it != streams_.end()) {
      StreamNamespace& s = it->second;
      if (s.maintainer && s.maintainer_version <= job.stream_version &&
          s.graph->version() >= job.stream_version) {
        const stream::IncrementalBcConfig& c = s.maintainer->config();
        if (c.halve == job.options.halve &&
            c.max_rounds == job.options.max_rounds) {
          for (std::uint64_t v = s.maintainer_version + 1;
               v <= job.stream_version; ++v) {
            const std::vector<GraphDeltaOp>& d = s.graph->delta(v);
            pending.insert(pending.end(), d.begin(), d.end());
          }
          maintainer = std::move(s.maintainer);
        }
      }
    }
  }

  RunOutcome outcome;
  const std::string at =
      "incremental@v" + std::to_string(job.stream_version) + ": ";
  try {
    if (maintainer) {
      const stream::IncrementalApplyStats stats =
          maintainer->apply(job.graph, pending);
      dirty_sources = stats.dirty_sources;
      outcome.detail = at + std::to_string(stats.dirty_sources) +
                       " dirty / " + std::to_string(stats.clean_sources) +
                       " clean";
    } else {
      stream::IncrementalBcConfig cfg;
      cfg.halve = job.options.halve;
      cfg.max_rounds = job.options.max_rounds;
      cfg.threads = job.options.threads;
      maintainer = std::make_unique<stream::IncrementalBc>(job.graph, cfg);
      dirty_sources = maintainer->sources().size();
      outcome.detail = at + "full build (" + std::to_string(dirty_sources) +
                       " sources)";
    }
  } catch (const std::exception& e) {
    outcome.status = RunStatus::kError;
    outcome.detail = std::string("incremental run failed: ") + e.what();
    return outcome;
  }
  const stream::MaintainedScores& scores = maintainer->scores();
  outcome.result.rounds = scores.rounds;
  outcome.result.diameter = scores.diameter;
  outcome.result.betweenness = scores.betweenness;
  outcome.result.closeness = scores.closeness;
  outcome.result.graph_centrality = scores.graph_centrality;
  outcome.result.stress = scores.stress;
  outcome.result.eccentricities = scores.eccentricities;

  // Check the maintainer back in unless a concurrent job already
  // installed one.
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(job.stream_ns);
  if (it != streams_.end() && !it->second.maintainer) {
    it->second.maintainer = std::move(maintainer);
    it->second.maintainer_version = job.stream_version;
  }
  return outcome;
}

// ------------------------------------------------------- persistence

std::string Daemon::jobs_dir() const { return config_.spool_dir + "/jobs"; }

std::string Daemon::ckpt_dir(std::uint64_t fingerprint) const {
  return config_.spool_dir + "/ckpt/" + fingerprint_hex(fingerprint);
}

std::string Daemon::cache_dir() const { return config_.spool_dir + "/cache"; }

std::string Daemon::quarantine_dir() const {
  return config_.spool_dir + "/quarantine";
}

void Daemon::quarantine_path(const std::string& path) {
  std::error_code ec;
  const fs::path source(path);
  fs::create_directories(quarantine_dir(), ec);
  fs::path target = fs::path(quarantine_dir()) / source.filename();
  for (int suffix = 1; fs::exists(target, ec); ++suffix) {
    target = fs::path(quarantine_dir()) /
             (source.filename().string() + "." + std::to_string(suffix));
  }
  fs::rename(source, target, ec);
  if (ec) {
    // Same-filesystem rename should not fail; if it somehow does, fall
    // back to removal so the bad file cannot be re-trusted next start.
    fs::remove_all(source, ec);
  }
  ++metrics_.counters.quarantined_files;
}

void Daemon::retire_job_locked(const Job& job) {
  if (config_.spool_dir.empty() || !job.stream_ns.empty()) {
    return;  // incremental maintainer jobs are never spooled
  }
  if (journal_) {
    journal_->append(SpoolJournal::Record::kTerminal, job.fingerprint);
  }
  spool_remove_job(job);
}

void Daemon::spool_write_job(const Job& job) const {
  const BitWriter request = encode_request(make_submit(job.request));
  write_spool_file(
      fs::path(jobs_dir()) / ("job-" + fingerprint_hex(job.fingerprint) + ".req"),
      [&](auto io) { walk_spooled_job(io, job.fingerprint, request); });
}

void Daemon::spool_remove_job(const Job& job) const {
  std::error_code ec;
  fs::remove(
      fs::path(jobs_dir()) / ("job-" + fingerprint_hex(job.fingerprint) + ".req"),
      ec);
  fs::remove_all(ckpt_dir(job.fingerprint), ec);
}

void Daemon::persist_cache_entry(std::uint64_t fingerprint,
                                 const CachedResult& result) const {
  if (config_.spool_dir.empty()) {
    return;
  }
  try {
    write_spool_file(
        fs::path(cache_dir()) / ("res-" + fingerprint_hex(fingerprint) + ".res"),
        [&](auto io) { walk_spooled_result(io, fingerprint, result); });
  } catch (const std::exception&) {
    // Warm-cache persistence is best-effort.
  }
}

void Daemon::remove_cache_entry(std::uint64_t fingerprint) const {
  std::error_code ec;
  fs::remove(
      fs::path(cache_dir()) / ("res-" + fingerprint_hex(fingerprint) + ".res"),
      ec);
}

// ---------------------------------------------------- streaming plane

std::string Daemon::stream_dir(const std::string& ns) const {
  return config_.spool_dir + "/stream/" + ns;
}

void Daemon::persist_stream_version(const std::string& ns,
                                    const StreamNamespace& state) {
  if (config_.spool_dir.empty()) {
    return;  // memory-only streaming (like every other spool-less path)
  }
  const stream::VersionedGraph& vg = *state.graph;
  try {
    const bool base = vg.version() == 0;
    const std::string text = base ? write_edge_list_text(vg.head())
                                  : format_stream_batch(vg.delta(vg.version()));
    const std::string name =
        base ? "base.txt" : "mut-" + std::to_string(vg.version()) + ".txt";
    write_file_atomic((fs::path(stream_dir(ns)) / name).string(),
                      [&text](std::ostream& out) { out << text; });
    // Journal after the file: the record is the commit marker.
    if (journal_) {
      journal_->append(SpoolJournal::Record::kMutate, vg.fingerprint());
    }
  } catch (const std::exception&) {
    // Best-effort durability, like the job spool: the mutation still
    // applies in memory, it just cannot be replayed across a restart.
  }
}

void Daemon::invalidate_stream_cache_locked(StreamNamespace& state) {
  for (const std::uint64_t fp : state.live_cache_fps) {
    if (cache_.erase(fp)) {
      ++metrics_.counters.cache_invalidations;
      if (!config_.spool_dir.empty()) {
        remove_cache_entry(fp);
      }
    }
  }
  state.live_cache_fps.clear();
}

std::vector<std::uint64_t> Daemon::recover_streams(
    const std::vector<std::uint64_t>& journaled_mutations, bool trust_all) {
  std::vector<std::uint64_t> heads;
  std::error_code ec;
  const fs::path root = fs::path(config_.spool_dir) / "stream";
  if (!fs::exists(root, ec)) {
    return heads;
  }
  const std::unordered_set<std::uint64_t> acked(journaled_mutations.begin(),
                                                journaled_mutations.end());
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  for (const std::string& ns : names) {
    const fs::path dir = root / ns;
    try {
      if (!valid_stream_ns(ns)) {
        throw std::runtime_error("bad namespace directory name");
      }
      const auto load_base = [&dir]() {
        std::ifstream in(dir / "base.txt", std::ios::binary);
        if (!in) {
          throw std::runtime_error("missing base.txt");
        }
        return read_edge_list(in);
      };
      auto vg = std::make_unique<stream::VersionedGraph>(load_base());
      const bool base_acked = trust_all || acked.count(vg->fingerprint()) != 0;
      // Forward replay: find the highest version whose chained
      // fingerprint the journal acknowledged.  Versions past it are torn
      // commits (batch file written, crash before the journal record).
      std::uint64_t accepted = 0;
      std::uint64_t replayed = 0;
      for (std::uint64_t v = 1;; ++v) {
        std::ifstream in(dir / ("mut-" + std::to_string(v) + ".txt"));
        if (!in) {
          break;
        }
        vg->apply(parse_stream_batch(in));
        replayed = v;
        if (trust_all || acked.count(vg->fingerprint()) != 0) {
          accepted = v;
        }
      }
      if (accepted == 0 && !base_acked) {
        throw std::runtime_error("no acknowledged version in the journal");
      }
      for (std::uint64_t v = accepted + 1; v <= replayed; ++v) {
        fs::remove(dir / ("mut-" + std::to_string(v) + ".txt"), ec);
      }
      if (accepted != replayed) {
        // Rebuild without the discarded tail.
        vg = std::make_unique<stream::VersionedGraph>(load_base());
        for (std::uint64_t v = 1; v <= accepted; ++v) {
          std::ifstream in(dir / ("mut-" + std::to_string(v) + ".txt"));
          if (!in) {
            throw std::runtime_error("batch file vanished during recovery");
          }
          vg->apply(parse_stream_batch(in));
        }
      }
      StreamNamespace state;
      state.graph = std::move(vg);
      heads.push_back(state.graph->fingerprint());
      streams_.emplace(ns, std::move(state));
    } catch (const std::exception&) {
      quarantine_path(dir.string());
    }
  }
  return heads;
}

void Daemon::flush_cache_index_locked() const {
  const std::vector<std::uint64_t> keys = cache_.keys_lru_order();
  try {
    write_file_atomic((fs::path(cache_dir()) / "index.txt").string(),
                      [&keys](std::ostream& out) {
                        for (const std::uint64_t fp : keys) {
                          out << fingerprint_hex(fp) << "\n";
                        }
                      });
  } catch (const std::exception&) {
    return;  // best-effort
  }
  std::error_code ec;
  // Prune result files the in-memory LRU evicted, so the restarted cache
  // matches the drained one.
  std::unordered_set<std::string> keep;
  for (const std::uint64_t fp : keys) {
    keep.insert("res-" + fingerprint_hex(fp) + ".res");
  }
  for (const auto& entry : fs::directory_iterator(cache_dir(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("res-", 0) == 0 && keep.find(name) == keep.end()) {
      fs::remove(entry.path(), ec);
    }
  }
}

void Daemon::recover_spool() {
  std::error_code ec;

  // 0. Journal replay: which spooled jobs are live work vs leftovers of
  //    finished work.  A corrupt journal never blocks startup — replay
  //    simply stops at the last intact record, and an unopenable file
  //    just means serving without lifecycle records this run.
  journal_ = std::make_unique<SpoolJournal>(config_.spool_dir + "/journal.log");
  std::unordered_set<std::uint64_t> journal_live;
  std::unordered_set<std::uint64_t> journal_retired;
  std::vector<std::uint64_t> journal_mutations;
  bool journal_ok = false;
  try {
    const SpoolJournal::Recovery recovery = journal_->open_and_recover();
    journal_live.insert(recovery.live.begin(), recovery.live.end());
    journal_retired.insert(recovery.retired.begin(), recovery.retired.end());
    journal_mutations = recovery.mutations;
    journal_ok = true;
  } catch (const std::exception&) {
    journal_.reset();
  }

  // 0b. Stream namespaces replay before the compaction that drops their
  //     mutation records.  Without a journal every intact file is
  //     trusted, mirroring how .req files are trusted below.
  const std::vector<std::uint64_t> stream_heads =
      recover_streams(journal_mutations, !journal_ok);
  if (journal_) {
    // Compact the *job* records to empty, not to the live set: every
    // re-admitted job appends a fresh ADMIT through admit_locked below,
    // and a pre-seeded record would double-count it (net 2, so one
    // TERMINAL later would leave a phantom live entry).  The stream
    // plane keeps exactly one MUTATE record per namespace — its head
    // fingerprint, which transitively authenticates the whole on-disk
    // delta chain.
    journal_->compact({}, stream_heads);
  }

  // 1. Warm cache, least recently used first so put() order restores
  //    recency exactly as flushed.  A missing file is a non-event (index
  //    staleness); a file that fails its CBCSNAP1 hash or decodes wrong
  //    is quarantined — startup must survive arbitrary disk corruption.
  const auto load_res = [this](std::uint64_t fp) -> bool {
    const fs::path path =
        fs::path(cache_dir()) / ("res-" + fingerprint_hex(fp) + ".res");
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return false;
    }
    try {
      auto result = std::make_shared<CachedResult>();
      read_spool_file(in, [&](auto io) {
        walk_spooled_result(io, fp, *result);
      });
      cache_.put(fp, std::move(result));
      return true;
    } catch (const std::exception&) {
      quarantine_path(path.string());
      return false;
    }
  };

  std::unordered_set<std::uint64_t> loaded;
  {
    std::ifstream index(fs::path(cache_dir()) / "index.txt");
    std::string line;
    while (std::getline(index, line)) {
      if (line.empty()) {
        continue;
      }
      const std::uint64_t fp = std::strtoull(line.c_str(), nullptr, 16);
      if (load_res(fp)) {
        loaded.insert(fp);
      }
    }
  }
  // Entries persisted after the last index flush (crash, not drain) —
  // recency is approximate for these, correctness is not affected.
  for (const auto& entry : fs::directory_iterator(cache_dir(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("res-", 0) != 0 || name.size() != 4 + 16 + 4) {
      continue;
    }
    const std::uint64_t fp = std::strtoull(name.substr(4, 16).c_str(), nullptr, 16);
    if (loaded.find(fp) == loaded.end()) {
      load_res(fp);
    }
  }

  // 2. Interrupted jobs: re-admit each spooled request, resuming from its
  //    newest *valid* checkpoint.  The journal separates live work from
  //    the leftovers of finished work (a kill -9 between the TERMINAL
  //    record and the unlink leaves a stale .req that must never re-run);
  //    anything unreadable or inconsistent is quarantined, not trusted.
  ec.clear();
  for (const auto& entry : fs::directory_iterator(jobs_dir(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("job-", 0) != 0 || name.size() < 4 + 16 + 4) {
      continue;
    }
    try {
      std::ifstream in(entry.path(), std::ios::binary);
      std::uint64_t fp = 0;
      BitWriter request_bits;
      read_spool_file(in, [&](auto io) {
        walk_spooled_job(io, fp, request_bits);
      });
      if (journal_retired.count(fp) != 0 && journal_live.count(fp) == 0) {
        // The journal says this job already finished; the crash landed in
        // the window between its TERMINAL record and the unlink.  Remove,
        // never re-run — re-running would duplicate completed work.
        fs::remove(entry.path(), ec);
        fs::remove_all(ckpt_dir(fp), ec);
        continue;
      }
      const Request request = decode_request(
          FramePayload{request_bits.bytes(), request_bits.bit_size()});
      if (request.type != MsgType::kSubmit) {
        quarantine_path(entry.path().string());
        continue;
      }
      // A stale or corrupted entry throws here and is quarantined below.
      const std::shared_ptr<Job> job =
          reparse_canonical_submit(request.submit, fp);
      // Workers are already finishing the jobs re-admitted before this
      // one, so the cache is read under the scheduler lock.
      std::lock_guard<std::mutex> lock(mutex_);
      if (cache_.peek(fp) != nullptr) {
        // Finished before the previous daemon exited; nothing to resume.
        fs::remove(entry.path(), ec);
        fs::remove_all(ckpt_dir(fp), ec);
        continue;
      }
      // Corrupt checkpoints (torn writes, bit rot) are quarantined.
      const ReadableCheckpoint ck = newest_readable_checkpoint(ckpt_dir(fp));
      for (const std::string& bad : ck.unreadable) {
        quarantine_path(bad);
      }
      job->resume_from = ck.path;
      job->id = next_job_id_++;
      ++metrics_.counters.jobs_resumed;
      admit_locked(job);
    } catch (const std::exception&) {
      quarantine_path(entry.path().string());  // unreadable spool entry
    }
  }
}

void Daemon::dump_metrics() {
  try {
    const std::string json = to_json(stats());
    write_file_atomic(config_.metrics_path,
                      [&json](std::ostream& out) { out << json << "\n"; });
  } catch (const std::exception&) {
    // Metrics are best-effort observability; never take the daemon down.
  }
}

}  // namespace congestbc::service
