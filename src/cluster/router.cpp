#include "cluster/router.hpp"

#include <algorithm>
#include <stdexcept>

#include "algo/bc_pipeline.hpp"
#include "obs/prom_text.hpp"
#include "snapshot/fingerprint.hpp"

namespace congestbc::cluster {

using service::CachedResult;
using service::CancelOutcome;
using service::CancelReply;
using service::FramePayload;
using service::JobState;
using service::JoinReply;
using service::JoinRequest;
using service::LeaveReply;
using service::LeaveRequest;
using service::LookupReply;
using service::MigrateKind;
using service::MigrateOutcome;
using service::MigrateReply;
using service::MigrateRequest;
using service::MsgType;
using service::MutateReply;
using service::MutateRequest;
using service::ProtoError;
using service::ProtocolError;
using service::Reply;
using service::Request;
using service::ResultReply;
using service::StatsReply;
using service::StatusReply;
using service::SubmitDisposition;
using service::SubmitReply;
using service::SubmitRequest;

namespace {

/// The routing key of a SUBMIT: a hash of its result-determining fields.
/// Not the authoritative run fingerprint (only a worker can compute that
/// — it parses the graph and resolves option defaults); it only needs
/// one property: identical submits hash identically, so they always meet
/// on the same home worker, where the real fingerprint coalesces them.
/// The execution hint (threads) and retry metadata (deadline, attempt)
/// are excluded so variants of the same work colocate.  Stream-addressed
/// work hashes its namespace alone, which pins a namespace — its MUTATEs
/// and all its submits — to one worker.
std::uint64_t route_fingerprint(const SubmitRequest& request) {
  FingerprintBuilder fp;
  if (!request.stream_ns.empty()) {
    static const char kTag[] = "route-stream";
    fp.mix_bytes(kTag, sizeof kTag);
    fp.mix_bytes(request.stream_ns.data(), request.stream_ns.size());
    return fp.value();
  }
  static const char kTag[] = "route-submit";
  fp.mix_bytes(kTag, sizeof kTag);
  fp.mix(static_cast<std::uint64_t>(request.source));
  fp.mix_bytes(request.graph.data(), request.graph.size());
  fp.mix_bool(request.halve);
  fp.mix_bool(request.reliable);
  fp.mix_bytes(request.faults.data(), request.faults.size());
  fp.mix(request.max_rounds);
  fp.mix(request.backend);
  fp.mix(request.samples);
  fp.mix(request.sample_seed);
  return fp.value();
}

/// A block the router holds or caches, taken from a worker's reply, with
/// the identity that worker reported for `job`.
std::shared_ptr<const CachedResult> block_of(const auto& job,
                                             std::vector<std::uint8_t> bytes,
                                             std::uint64_t bits) {
  auto block = std::make_shared<CachedResult>();
  block->block_bytes = std::move(bytes);
  block->block_bits = bits;
  block->fingerprint = job.fingerprint;
  block->backend = job.backend;
  return block;
}

std::uint64_t route_fingerprint(const MutateRequest& request) {
  FingerprintBuilder fp;
  static const char kTag[] = "route-stream";
  fp.mix_bytes(kTag, sizeof kTag);
  fp.mix_bytes(request.ns.data(), request.ns.size());
  return fp.value();
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.ring_vnodes),
      result_cache_(config_.result_cache_entries) {}

Router::~Router() {
  // The serve thread calls this router's hooks: join it before any
  // member goes away.
  request_drain();
  wait();
}

void Router::start() {
  listen_on(config_.host, config_.port);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& address : config_.workers) {
      JoinRequest seed;
      seed.worker_id = address;
      if (!service::split_host_port(address, seed.host, seed.port)) {
        throw std::runtime_error("bad worker address: " + address);
      }
      (void)handle_join(seed);
    }
  }
  last_health_ = std::chrono::steady_clock::now();
}

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RouterStats s = stats_;
  s.workers_active = 0;
  for (const auto& [id, worker] : workers_) {
    if (worker->state == LinkState::kActive) {
      ++s.workers_active;
    }
  }
  s.jobs_tracked = jobs_.size();
  return s;
}

std::optional<std::string> Router::http_get(const std::string& path) {
  if (path != "/metrics") {
    return std::nullopt;
  }
  const RouterStats s = stats();
  const struct {
    const char* field;
    std::uint64_t value;
    const char* help;
  } counters[] = {
      {"submits_routed", s.submits_routed, "SUBMITs a worker admitted"},
      {"spillovers", s.spillovers,
       "Admitted SUBMITs that passed over their home worker"},
      {"cross_worker_hits", s.cross_worker_hits,
       "Fresh executions replaced by another worker's cached block"},
      {"migrations_forwarded", s.migrations_forwarded,
       "Drain transplants a surviving worker accepted"},
      {"migrations_failed", s.migrations_failed,
       "Drain transplants no surviving worker accepted"},
      {"joins", s.joins, "Workers that joined the ring"},
      {"leaves", s.leaves, "Workers that left the ring"},
      {"evictions", s.evictions,
       "Workers evicted after consecutive link failures"},
      {"rejoins", s.rejoins, "JOINs that healed an eviction"},
      {"link_failures", s.link_failures,
       "Worker calls that failed after one reconnect"},
      {"protocol_errors", s.protocol_errors,
       "Malformed client frames answered with a typed error"},
      {"result_cache_hits", s.result_cache_hits,
       "SUBMITs answered from the router result cache"},
  };
  obs::PromWriter w;
  for (const auto& c : counters) {
    w.counter(std::string("congestbc_router_") + c.field + "_total", c.help,
              c.value);
  }
  w.gauge("congestbc_router_workers_active", "Workers in the ring",
          static_cast<double>(s.workers_active));
  w.gauge("congestbc_router_jobs_tracked", "Router job ids still addressable",
          static_cast<double>(s.jobs_tracked));
  return w.str();
}

void Router::count_protocol_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.protocol_errors;
}

// ------------------------------------------------------ worker links

Router::WorkerLink* Router::link(const std::string& worker_id) {
  const auto it = workers_.find(worker_id);
  return it == workers_.end() ? nullptr : it->second.get();
}

Reply Router::link_call(WorkerLink& worker, const Request& request,
                        int timeout_ms) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      if (!worker.client.connected()) {
        worker.client.connect(worker.host, worker.port, timeout_ms);
      }
      worker.client.set_io_timeout(timeout_ms);
      Reply reply = worker.client.call(request);
      worker.consecutive_failures = 0;
      worker.lost_since = std::chrono::steady_clock::time_point{};
      return reply;
    } catch (const ProtocolError& e) {
      if (e.code() != ProtoError::kCorrupted) {
        // A typed answer from the worker — not a link failure; the
        // caller decides whether it reaches the client.
        throw;
      }
      worker.client.close();
      if (attempt == 1) {
        note_link_failure(worker);
        throw;
      }
    } catch (const std::exception&) {
      worker.client.close();
      if (attempt == 1) {
        note_link_failure(worker);
        throw;
      }
    }
  }
  throw std::runtime_error("unreachable");
}

void Router::note_link_failure(WorkerLink& worker) {
  ++stats_.link_failures;
  if (++worker.consecutive_failures == 1) {
    worker.lost_since = std::chrono::steady_clock::now();
  }
  if (worker.state == LinkState::kActive &&
      worker.consecutive_failures >= config_.eviction_threshold) {
    evict_locked(worker);
  }
}

bool Router::within_migration_grace(const WorkerLink* worker) const {
  if (worker == nullptr || worker->state == LinkState::kLeft) {
    // A clean LEAVE arrives *after* migration: a job still pointing at a
    // left worker was never transplanted, and no grace will change that.
    return false;
  }
  if (worker->lost_since == std::chrono::steady_clock::time_point{}) {
    return true;  // link never failed yet — first sighting of trouble
  }
  const auto down = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - worker->lost_since)
                        .count();
  return down >= 0 &&
         static_cast<std::uint64_t>(down) < config_.migration_grace_ms;
}

void Router::evict_locked(WorkerLink& worker) {
  ring_.remove(worker.id);
  worker.state = LinkState::kEvicted;
  worker.client.close();
  ++stats_.evictions;
}

void Router::tick() {
  if (config_.health_every_ms == 0) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  const auto since = std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - last_health_)
                         .count();
  if (since < 0 ||
      static_cast<std::uint64_t>(since) < config_.health_every_ms) {
    return;
  }
  last_health_ = now;
  std::lock_guard<std::mutex> lock(mutex_);
  if (health_order_.empty()) {
    return;
  }
  // One probe per tick, round-robin, actives only — a dead worker costs
  // at most health_timeout_ms of io-thread time per tick.
  for (std::size_t tried = 0; tried < health_order_.size(); ++tried) {
    health_cursor_ = (health_cursor_ + 1) % health_order_.size();
    WorkerLink* worker = link(health_order_[health_cursor_]);
    if (worker == nullptr || worker->state != LinkState::kActive) {
      continue;
    }
    try {
      (void)link_call(*worker, service::make_plain(MsgType::kStats),
                      config_.health_timeout_ms);
    } catch (const std::exception&) {
      // link_call already counted the failure / evicted at threshold.
    }
    break;
  }
}

std::vector<Router::WorkerLink*> Router::candidates(
    std::uint64_t route_fp, const std::string& exclude) {
  std::vector<WorkerLink*> links;
  for (const std::string& id :
       ring_.preference(route_fp, ring_.size() == 0 ? 0 : ring_.size(),
                        exclude)) {
    WorkerLink* worker = link(id);
    if (worker != nullptr && worker->state == LinkState::kActive) {
      links.push_back(worker);
    }
  }
  return links;
}

// ------------------------------------------------------ job tracking

std::uint64_t Router::track_job(const std::string& worker_id,
                                std::uint64_t remote_id,
                                std::uint64_t fingerprint) {
  const std::uint64_t id = next_job_id_++;
  RoutedJob job;
  job.worker_id = worker_id;
  job.remote_id = remote_id;
  job.fingerprint = fingerprint;
  jobs_.emplace(id, std::move(job));
  return id;
}

void Router::mark_terminal(std::uint64_t router_job_id, RoutedJob& job) {
  if (job.terminal) {
    return;
  }
  job.terminal = true;
  terminal_order_.push_back(router_job_id);
  gc_jobs();
}

/// Retained terminal router jobs: served results stay addressable for
/// re-polls until the cap evicts them oldest-first.
constexpr std::size_t kJobRetentionLimit = 65536;

void Router::gc_jobs() {
  while (terminal_order_.size() > kJobRetentionLimit) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

// --------------------------------------------- router result cache

void Router::hold(std::uint64_t router_job_id, RoutedJob& job,
                  std::shared_ptr<const CachedResult> block) {
  job.held = std::move(block);
  mark_terminal(router_job_id, job);
  if (job.cacheable) {
    result_cache_.put(job.route_fp, job.held);
  }
}

void Router::adopt_cached_result(std::uint64_t router_job_id, RoutedJob& job) {
  if (job.held == nullptr && job.cacheable) {
    if (auto hit = result_cache_.get(job.route_fp)) {
      hold(router_job_id, job, std::move(hit));
    }
  }
}

// -------------------------------------------------- request handling

Reply Router::dispatch(const Request& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  Reply reply;
  switch (request.type) {
    case MsgType::kSubmit:
      reply.type = MsgType::kSubmitReply;
      reply.submit = route_submit(request.submit);
      break;
    case MsgType::kMutate:
      reply.type = MsgType::kMutateReply;
      reply.mutate = route_mutate(request.mutate);
      break;
    case MsgType::kStatus:
      reply.type = MsgType::kStatusReply;
      reply.status = route_status(request.job.job_id);
      break;
    case MsgType::kResult:
      reply.type = MsgType::kResultReply;
      reply.result = route_result(request.job.job_id);
      break;
    case MsgType::kCancel:
      reply.type = MsgType::kCancelReply;
      reply.cancel = route_cancel(request.job.job_id);
      break;
    case MsgType::kStats:
      reply.type = MsgType::kStatsReply;
      reply.stats = aggregate_stats();
      break;
    case MsgType::kShutdown:
      // Drains the router tier only; workers are independent processes
      // with their own SIGTERM story (which migrates their jobs here —
      // so a router must not take itself down mid-handover lightly).
      reply.type = MsgType::kShutdownReply;
      reply.shutdown.draining = true;
      request_drain();
      break;
    case MsgType::kJoin:
      reply.type = MsgType::kJoinReply;
      reply.join = handle_join(request.join);
      break;
    case MsgType::kLeave:
      reply.type = MsgType::kLeaveReply;
      reply.leave = handle_leave(request.leave);
      break;
    case MsgType::kMigrate:
      reply.type = MsgType::kMigrateReply;
      reply.migrate = forward_migrate(request.migrate);
      break;
    case MsgType::kLookup:
      reply.type = MsgType::kLookupReply;
      reply.lookup = cluster_lookup(request.lookup.fingerprint);
      break;
    default:
      throw ProtocolError(ProtoError::kUnknownType, "unhandled request type");
  }
  return reply;
}

SubmitReply Router::route_submit(const SubmitRequest& request) {
  const std::uint64_t route_fp = route_fingerprint(request);
  // backend=auto is resolved by the worker, which may downgrade it to
  // sampled under load, so the request does not name its block.
  const bool cacheable =
      request.stream_ns.empty() &&
      request.backend != static_cast<std::uint8_t>(BackendId::kAuto);
  if (cacheable) {
    // Router-held result (opt-in, config.result_cache_entries): identical
    // non-stream work already produced a block through this router, so
    // answer without touching a worker link at all.  This is what keeps a
    // thousand concurrent submitters from serializing on the (single)
    // connection to each worker.
    if (auto hit = result_cache_.get(route_fp)) {
      ++stats_.result_cache_hits;
      const std::uint64_t router_id = track_job("", 0, hit->fingerprint);
      RoutedJob& job = jobs_[router_id];
      job.backend = hit->backend;
      job.route_fp = route_fp;
      job.cacheable = true;
      SubmitReply reply;
      reply.disposition = SubmitDisposition::kCacheHit;
      reply.job_id = router_id;
      reply.fingerprint = hit->fingerprint;
      reply.backend = hit->backend;
      reply.detail = "served from the router result cache";
      hold(router_id, job, std::move(hit));
      return reply;
    }
  }
  std::vector<WorkerLink*> order = candidates(route_fp);
  SubmitReply no_worker;
  no_worker.disposition = SubmitDisposition::kBusy;
  no_worker.detail = "no live workers in the ring";
  if (order.empty()) {
    return no_worker;
  }
  bool spilled = false;
  SubmitReply last_busy = no_worker;
  for (WorkerLink* worker : order) {
    Reply raw;
    try {
      raw = link_call(*worker, service::make_submit(request),
                      config_.worker_timeout_ms);
    } catch (const ProtocolError&) {
      throw;  // typed worker answer travels to the client verbatim
    } catch (const std::exception&) {
      spilled = true;
      continue;  // link failure: spill to the next candidate
    }
    SubmitReply reply = raw.submit;
    if (reply.disposition == SubmitDisposition::kDraining) {
      // The worker told us before the health checker could: stop
      // routing new work there until it rejoins.
      if (worker->state == LinkState::kActive) {
        ring_.remove(worker->id);
        worker->state = LinkState::kDraining;
      }
      spilled = true;
      continue;
    }
    if (reply.disposition == SubmitDisposition::kBusy) {
      last_busy = reply;
      spilled = true;
      continue;
    }
    if (reply.disposition == SubmitDisposition::kRejected ||
        reply.disposition == SubmitDisposition::kDeadline) {
      return reply;  // spilling over cannot cure a semantic rejection
    }
    // Admitted (queued / cache hit / coalesced).
    ++stats_.submits_routed;
    if (spilled) {
      ++stats_.spillovers;
    }
    const std::uint64_t router_id =
        track_job(worker->id, reply.job_id, reply.fingerprint);
    {
      RoutedJob& job = jobs_[router_id];
      job.backend = reply.backend;
      job.route_fp = route_fp;
      job.cacheable = cacheable;
    }
    if (reply.disposition == SubmitDisposition::kQueued &&
        config_.cross_worker_lookup && reply.fingerprint != 0) {
      // A fresh execution was scheduled — but another worker may have
      // finished identical work (pre-rebalance traffic, a migrated
      // result).  Probe by authoritative fingerprint; a hit serves the
      // cached bytes and cancels the queued duplicate.
      for (const std::string& id : ring_.workers()) {
        WorkerLink* other = link(id);
        if (other == nullptr || other == worker ||
            other->state != LinkState::kActive) {
          continue;
        }
        LookupReply found;
        try {
          found = link_call(*other, service::make_lookup(reply.fingerprint),
                            config_.worker_timeout_ms)
                      .lookup;
        } catch (const std::exception&) {
          continue;
        }
        if (!found.found) {
          continue;
        }
        ++stats_.cross_worker_hits;
        try {
          (void)link_call(*worker,
                          service::make_job_request(MsgType::kCancel,
                                                    reply.job_id),
                          config_.worker_timeout_ms);
        } catch (const std::exception&) {
          // Best-effort: a cancel that misses just runs a redundant job.
        }
        hold(router_id, jobs_[router_id],
             block_of(jobs_[router_id], std::move(found.block_bytes),
                      found.block_bits));
        reply.disposition = SubmitDisposition::kCacheHit;
        reply.detail = "served from " + id + "'s cache";
        break;
      }
    }
    reply.job_id = router_id;
    return reply;
  }
  return last_busy;
}

MutateReply Router::route_mutate(const MutateRequest& request) {
  // A namespace lives wholly on one worker; the ring pins which one
  // (the same key stream-addressed submits route by).
  std::vector<WorkerLink*> order = candidates(route_fingerprint(request));
  for (WorkerLink* worker : order) {
    try {
      return link_call(*worker, service::make_mutate(request),
                       config_.worker_timeout_ms)
          .mutate;
    } catch (const ProtocolError&) {
      throw;
    } catch (const std::exception&) {
      continue;
    }
  }
  MutateReply reply;
  reply.outcome = service::MutateOutcome::kRejected;
  reply.detail = "no live workers in the ring";
  return reply;
}

StatusReply Router::route_status(std::uint64_t router_job_id) {
  StatusReply reply;
  reply.job_id = router_job_id;
  const auto it = jobs_.find(router_job_id);
  if (it == jobs_.end()) {
    reply.state = JobState::kUnknown;
    reply.detail = "no such job";
    return reply;
  }
  RoutedJob& job = it->second;
  // A sibling poll may already have pulled this fingerprint's block into
  // the router result cache; no reason to ask the worker again.
  adopt_cached_result(router_job_id, job);
  if (job.held) {
    reply.state = JobState::kDone;
    reply.fingerprint = job.fingerprint;
    reply.detail = "served from the cluster cache";
    return reply;
  }
  WorkerLink* worker = link(job.worker_id);
  bool link_failed = worker == nullptr || worker->state == LinkState::kEvicted;
  if (worker != nullptr && worker->state != LinkState::kEvicted) {
    try {
      StatusReply remote =
          link_call(*worker,
                    service::make_job_request(MsgType::kStatus, job.remote_id),
                    config_.worker_timeout_ms)
              .status;
      if (remote.state != JobState::kUnknown) {
        remote.job_id = router_job_id;
        if (remote.state == JobState::kSuspended) {
          // Mask the handover: the origin is draining and its MIGRATE
          // will repoint this entry; to the client the job is simply
          // still waiting its turn.
          remote.state = JobState::kQueued;
          remote.detail = "migrating off " + job.worker_id;
        }
        if (remote.state == JobState::kDone ||
            remote.state == JobState::kFailed ||
            remote.state == JobState::kCancelled) {
          mark_terminal(router_job_id, job);
        }
        return remote;
      }
    } catch (const std::exception&) {
      link_failed = true;  // fall through to the cluster-wide fallback
    }
  }
  // The owning worker is gone (or forgot the job).  If any surviving
  // cache holds the fingerprint, the job is effectively done.
  LookupReply found = cluster_lookup(job.fingerprint);
  if (found.found) {
    hold(router_job_id, job,
         block_of(job, std::move(found.block_bytes), found.block_bits));
    reply.state = JobState::kDone;
    reply.fingerprint = job.fingerprint;
    reply.detail = "served from the cluster cache";
    return reply;
  }
  if (link_failed && within_migration_grace(worker)) {
    // The link failed but a draining worker closes its sessions *before*
    // it migrates, so this is most likely the handover window.  Keep the
    // client polling; the MIGRATE repoints this entry, and a worker that
    // actually died runs out the grace window, after which this path
    // answers kFailed.
    reply.state = JobState::kQueued;
    reply.fingerprint = job.fingerprint;
    reply.detail = "worker " + job.worker_id +
                   " unreachable; migration may be pending";
    return reply;
  }
  reply.state = JobState::kFailed;
  reply.fingerprint = job.fingerprint;
  reply.detail = "worker " + job.worker_id + " lost before the result was "
                 "fetched; resubmit";
  mark_terminal(router_job_id, job);
  return reply;
}

ResultReply Router::route_result(std::uint64_t router_job_id) {
  ResultReply reply;
  const auto it = jobs_.find(router_job_id);
  if (it == jobs_.end()) {
    reply.state = JobState::kUnknown;
    reply.detail = "no such job";
    return reply;
  }
  RoutedJob& job = it->second;
  adopt_cached_result(router_job_id, job);
  if (job.held) {
    reply.state = JobState::kDone;
    reply.fingerprint = job.fingerprint;
    reply.from_cache = true;
    reply.ready = true;
    reply.block_bytes = job.held->block_bytes;
    reply.block_bits = job.held->block_bits;
    return reply;
  }
  WorkerLink* worker = link(job.worker_id);
  bool link_failed = worker == nullptr || worker->state == LinkState::kEvicted;
  if (worker != nullptr && worker->state != LinkState::kEvicted) {
    try {
      ResultReply remote =
          link_call(*worker,
                    service::make_job_request(MsgType::kResult, job.remote_id),
                    config_.worker_timeout_ms)
              .result;
      if (remote.state != JobState::kUnknown) {
        if (remote.state == JobState::kSuspended) {
          remote.state = JobState::kQueued;  // migration in flight
          remote.detail = "migrating off " + job.worker_id;
        }
        if (remote.ready || remote.state == JobState::kFailed ||
            remote.state == JobState::kCancelled) {
          mark_terminal(router_job_id, job);
        }
        if (remote.ready && remote.state == JobState::kDone &&
            job.cacheable) {
          result_cache_.put(
              job.route_fp,
              block_of(job, remote.block_bytes, remote.block_bits));
        }
        return remote;
      }
    } catch (const std::exception&) {
      link_failed = true;  // fall through to the cluster-wide fallback
    }
  }
  LookupReply found = cluster_lookup(job.fingerprint);
  if (found.found) {
    hold(router_job_id, job,
         block_of(job, std::move(found.block_bytes), found.block_bits));
    reply.state = JobState::kDone;
    reply.fingerprint = job.fingerprint;
    reply.from_cache = true;
    reply.ready = true;
    reply.block_bytes = job.held->block_bytes;
    reply.block_bits = job.held->block_bits;
    return reply;
  }
  if (link_failed && within_migration_grace(worker)) {
    reply.state = JobState::kQueued;  // likely the migration handover window
    reply.fingerprint = job.fingerprint;
    reply.detail = "worker " + job.worker_id +
                   " unreachable; migration may be pending";
    return reply;
  }
  reply.state = JobState::kFailed;
  reply.fingerprint = job.fingerprint;
  reply.detail = "worker " + job.worker_id + " lost before the result was "
                 "fetched; resubmit";
  mark_terminal(router_job_id, job);
  return reply;
}

CancelReply Router::route_cancel(std::uint64_t router_job_id) {
  CancelReply reply;
  const auto it = jobs_.find(router_job_id);
  if (it == jobs_.end()) {
    reply.outcome = CancelOutcome::kNotFound;
    return reply;
  }
  RoutedJob& job = it->second;
  if (job.held) {
    reply.outcome = CancelOutcome::kTooLate;
    return reply;
  }
  WorkerLink* worker = link(job.worker_id);
  if (worker == nullptr || worker->state == LinkState::kEvicted) {
    reply.outcome = CancelOutcome::kNotFound;
    return reply;
  }
  try {
    return link_call(*worker,
                     service::make_job_request(MsgType::kCancel, job.remote_id),
                     config_.worker_timeout_ms)
        .cancel;
  } catch (const std::exception&) {
    reply.outcome = CancelOutcome::kNotFound;
    return reply;
  }
}

StatsReply Router::aggregate_stats() {
  // Cluster view: counters sum across workers; gauges that measure
  // capacity (workers, queue depth, running, cache entries) sum too;
  // latency percentiles take the worst worker (the cluster tail is
  // bounded by its slowest member); uptime is the oldest worker's.
  StatsReply total;
  for (const auto& [id, worker] : workers_) {
    if (worker->state != LinkState::kActive) {
      continue;
    }
    StatsReply s;
    try {
      s = link_call(*worker, service::make_plain(MsgType::kStats),
                    config_.worker_timeout_ms)
              .stats;
    } catch (const std::exception&) {
      continue;
    }
    for (const service::StatsField& field : service::kStatsFields) {
      field.visit([&](auto member) {
        total.*member = field.merge == service::StatsField::kMax
                            ? std::max(total.*member, s.*member)
                            : total.*member + s.*member;
      });
    }
  }
  // Submits the router answered from its own result cache never reached
  // a worker; to a client reading the cluster view they are submits that
  // hit a cache all the same.
  total.submits += stats_.result_cache_hits;
  total.cache_hits += stats_.result_cache_hits;
  return total;
}

JoinReply Router::handle_join(const JoinRequest& request) {
  JoinReply reply;
  if (request.worker_id.empty() || request.host.empty() || request.port == 0) {
    reply.accepted = false;
    reply.detail = "join needs worker_id, host, and a nonzero port";
    return reply;
  }
  auto it = workers_.find(request.worker_id);
  if (it == workers_.end()) {
    auto worker = std::make_unique<WorkerLink>();
    worker->id = request.worker_id;
    worker->host = request.host;
    worker->port = request.port;
    it = workers_.emplace(request.worker_id, std::move(worker)).first;
    health_order_.push_back(request.worker_id);
    ++stats_.joins;
  }
  WorkerLink& worker = *it->second;
  worker.host = request.host;  // a restarted worker may have moved
  worker.port = request.port;
  worker.consecutive_failures = 0;
  worker.lost_since = std::chrono::steady_clock::time_point{};
  if (worker.state != LinkState::kActive) {
    if (worker.state == LinkState::kEvicted) {
      ++stats_.rejoins;  // the heartbeat healed a health-check eviction
    }
    worker.state = LinkState::kActive;
    worker.client.close();  // stale connection from the previous life
  }
  ring_.add(worker.id);  // idempotent
  reply.accepted = true;
  reply.detail = "ring size " + std::to_string(ring_.size());
  return reply;
}

LeaveReply Router::handle_leave(const LeaveRequest& request) {
  LeaveReply reply;
  WorkerLink* worker = link(request.worker_id);
  if (worker == nullptr) {
    reply.removed = false;
    return reply;
  }
  reply.removed = ring_.remove(worker->id);
  // kLeft, not erased: in-flight router jobs may still poll this link
  // until their results migrate over or the worker actually exits.
  worker->state = LinkState::kLeft;
  if (reply.removed) {
    ++stats_.leaves;
  }
  return reply;
}

MigrateReply Router::forward_migrate(const MigrateRequest& request) {
  MigrateReply last;
  last.outcome = MigrateOutcome::kRejected;
  last.fingerprint = request.fingerprint;
  last.detail = "no surviving worker to take the transplant";
  // Route the transplant like any other fingerprint, but never back to
  // the worker that is shedding it.
  std::vector<WorkerLink*> order =
      candidates(request.fingerprint, request.origin_worker);
  for (WorkerLink* target : order) {
    MigrateReply reply;
    try {
      reply = link_call(*target, service::make_migrate(request),
                        config_.worker_timeout_ms)
                  .migrate;
    } catch (const std::exception&) {
      continue;
    }
    if (reply.outcome == MigrateOutcome::kAccepted ||
        reply.outcome == MigrateOutcome::kCoalesced) {
      ++stats_.migrations_forwarded;
      // Repoint every routed job that referenced the origin's copy, so
      // clients polling their router ids land on the new host.
      for (auto& [id, job] : jobs_) {
        if (!job.held && job.worker_id == request.origin_worker &&
            job.remote_id == request.origin_job_id) {
          job.worker_id = target->id;
          job.remote_id = reply.job_id;
        }
      }
      return reply;
    }
    last = reply;  // rejected or draining: try the next survivor
  }
  ++stats_.migrations_failed;
  return last;
}

LookupReply Router::cluster_lookup(std::uint64_t fingerprint) {
  LookupReply reply;
  reply.fingerprint = fingerprint;
  if (fingerprint == 0) {
    return reply;
  }
  for (const auto& [id, worker] : workers_) {
    if (worker->state != LinkState::kActive) {
      continue;
    }
    LookupReply found;
    try {
      found = link_call(*worker, service::make_lookup(fingerprint),
                        config_.worker_timeout_ms)
                  .lookup;
    } catch (const std::exception&) {
      continue;
    }
    if (found.found) {
      return found;
    }
  }
  return reply;
}

}  // namespace congestbc::cluster
