#include "service/protocol.hpp"

#include <cstring>

#include "algo/bc_pipeline.hpp"
#include "common/assert.hpp"
#include "core/runner.hpp"
#include "snapshot/field_walk.hpp"

namespace congestbc::service {

namespace {

constexpr char kMagic[4] = {'C', 'B', 'C', 'P'};
constexpr std::size_t kHeaderBytes = 18;
constexpr std::size_t kChecksumOffset = 10;

// ---- the field walk ----------------------------------------------------
//
// Each message's layout is written once, as a walk over its fields in
// wire order, driven by the shared Writer/Reader (snapshot/field_walk.hpp).
// A bad field surfaces as ProtocolError: an unknown message type as
// kUnknownType, everything else as kMalformed.

struct WireFail {
  [[noreturn]] static void malformed(const std::string& what) {
    throw ProtocolError(ProtoError::kMalformed, what);
  }
  [[noreturn]] static void unknown_type(const std::string& what) {
    throw ProtocolError(ProtoError::kUnknownType, what);
  }
};

using fields::Is;

constexpr auto kLastBackend = static_cast<std::uint8_t>(BackendId::kSampled);

// ---- per-message layouts -------------------------------------------------

void walk(auto io, Is<SubmitRequest> auto& s) {
  io.bounded(s.source, GraphSource::kInline, GraphSource::kPath,
             "graph source");
  io.text(s.graph);
  io.flag(s.halve);
  io.flag(s.reliable);
  io.text(s.faults);
  io.varuint(s.max_rounds);
  io.varuint(s.threads);
  io.varuint(s.deadline_ms);
  io.varuint(s.attempt);
  io.text(s.stream_ns);
  io.varuint(s.stream_version);
  io.flag(s.incremental);
  io.bounded(s.backend, 0, kLastBackend, "backend");
  io.varuint(s.samples);
  io.varuint(s.sample_seed);
}

void walk(auto io, Is<MutateRequest> auto& m) {
  io.text(m.ns);
  io.varuint(m.base_version);
  io.text(m.base_graph);
  // Each op is three varuints — at least 6 bits even in the tightest
  // imaginable encoding.
  io.length(6, m.ops);
  for (auto& op : m.ops) {
    io.bounded(op.kind, 1, 2, "edge op kind");
    io.varuint(op.u);
    io.varuint(op.v);
  }
}

void walk(auto io, Is<JoinRequest> auto& j) {
  io.text(j.worker_id);
  io.text(j.host);
  io.varuint(j.port);
}

void walk(auto io, Is<MigrateRequest> auto& m) {
  io.bounded(m.kind, MigrateKind::kResume, MigrateKind::kResult,
             "migrate kind");
  io.fixed64(m.fingerprint);
  io.varuint(m.origin_job_id);
  io.text(m.origin_worker);
  walk(io, m.submit);
  io.varuint(m.snapshot_round);
  io.blob(m.snapshot_bytes);
  io.block(m.block_bytes, m.block_bits, "migrated");
}

void walk(auto io, Is<SubmitReply> auto& m) {
  io.bounded(m.disposition, SubmitDisposition::kQueued,
             SubmitDisposition::kDeadline, "submit disposition");
  io.varuint(m.job_id);
  io.fixed64(m.fingerprint);
  io.text(m.detail);
  io.bounded(m.backend, 0, kLastBackend, "backend");
  io.flag(m.downgraded);
}

void walk(auto io, Is<StatusReply> auto& m) {
  io.bounded(m.state, JobState::kQueued, JobState::kUnknown, "job state");
  io.varuint(m.job_id);
  io.fixed64(m.fingerprint);
  io.varuint(m.queue_position);
  io.text(m.detail);
  io.text(m.phase_timeline);
}

void walk(auto io, Is<ResultReply> auto& m) {
  io.flag(m.ready);
  io.bounded(m.state, JobState::kQueued, JobState::kUnknown, "job state");
  io.flag(m.from_cache);
  io.fixed64(m.fingerprint);
  io.text(m.detail);
  if (m.ready) {
    io.block(m.block_bytes, m.block_bits, "result");
  }
}

void walk(auto io, Is<StatsReply> auto& m) {
  for (const StatsField& field : kStatsFields) {
    if (field.count != nullptr) {
      io.varuint(m.*field.count);
    } else {
      io.real(m.*field.real);
    }
  }
}

void walk(auto io, Is<MutateReply> auto& m) {
  io.bounded(m.outcome, MutateOutcome::kApplied, MutateOutcome::kDraining,
             "mutate outcome");
  io.varuint(m.version);
  io.fixed64(m.fingerprint);
  io.varuint(m.applied);
  io.varuint(m.dropped);
  io.text(m.detail);
}

void walk(auto io, Is<MigrateReply> auto& m) {
  io.bounded(m.outcome, MigrateOutcome::kAccepted, MigrateOutcome::kDraining,
             "migrate outcome");
  io.varuint(m.job_id);
  io.fixed64(m.fingerprint);
  io.text(m.detail);
}

void walk(auto io, Is<LookupReply> auto& m) {
  io.flag(m.found);
  io.fixed64(m.fingerprint);
  if (m.found) {
    io.block(m.block_bytes, m.block_bits, "lookup");
  }
}

void walk(auto io, Is<ResultBlock> auto& b) {
  io.bounded(b.run_status, 0, static_cast<std::uint8_t>(RunStatus::kError),
             "run status");
  io.text(b.detail);
  io.varuint(b.rounds);
  io.varuint(b.diameter);
  io.varuint(b.total_bits);
  io.varuint(b.total_physical_messages);
  // Each node carries 3 doubles + a long double + an eccentricity —
  // well over 256 bits; 200 is a safe hostile-count floor.
  const std::size_t n = io.length(200, b.betweenness, b.closeness,
                                  b.graph_centrality, b.stress,
                                  b.eccentricities);
  for (std::size_t v = 0; v < n; ++v) {
    io.real(b.betweenness[v]);
    io.real(b.closeness[v]);
    io.real(b.graph_centrality[v]);
    io.real(b.stress[v]);
    io.varuint(b.eccentricities[v]);
  }
}

void walk(auto io, Is<Request> auto& request) {
  io.type(request.type, MsgType::kSubmit, MsgType::kLookup, "request");
  switch (request.type) {
    case MsgType::kSubmit:
      walk(io, request.submit);
      break;
    case MsgType::kStatus:
    case MsgType::kResult:
    case MsgType::kCancel:
      io.varuint(request.job.job_id);
      break;
    case MsgType::kMutate:
      walk(io, request.mutate);
      break;
    case MsgType::kJoin:
      walk(io, request.join);
      break;
    case MsgType::kLeave:
      io.text(request.leave.worker_id);
      break;
    case MsgType::kMigrate:
      walk(io, request.migrate);
      break;
    case MsgType::kLookup:
      io.fixed64(request.lookup.fingerprint);
      break;
    default:  // STATS and SHUTDOWN have no body
      break;
  }
}

void walk(auto io, Is<Reply> auto& reply) {
  io.type(reply.type, MsgType::kSubmitReply, MsgType::kLookupReply, "reply");
  switch (reply.type) {
    case MsgType::kSubmitReply:
      walk(io, reply.submit);
      break;
    case MsgType::kStatusReply:
      walk(io, reply.status);
      break;
    case MsgType::kResultReply:
      walk(io, reply.result);
      break;
    case MsgType::kCancelReply:
      io.bounded(reply.cancel.outcome, CancelOutcome::kCancelled,
                 CancelOutcome::kRequested, "cancel outcome");
      break;
    case MsgType::kStatsReply:
      walk(io, reply.stats);
      break;
    case MsgType::kShutdownReply:
      io.flag(reply.shutdown.draining);
      break;
    case MsgType::kError:
      io.bounded(reply.error.code, ProtoError::kBadMagic,
                 ProtoError::kCorrupted, "error code");
      io.text(reply.error.message);
      break;
    case MsgType::kMutateReply:
      walk(io, reply.mutate);
      break;
    case MsgType::kJoinReply:
      io.flag(reply.join.accepted);
      io.text(reply.join.detail);
      break;
    case MsgType::kLeaveReply:
      io.flag(reply.leave.removed);
      break;
    case MsgType::kMigrateReply:
      walk(io, reply.migrate);
      break;
    case MsgType::kLookupReply:
      walk(io, reply.lookup);
      break;
    default:  // type() admits reply types only
      break;
  }
}

template <class M>
BitWriter encode(const M& message) {
  return fields::write_fields([&message](auto io) { walk(io, message); });
}

template <class M>
M decode(BitReader& r, bool whole_payload) {
  M message;
  fields::read_fields<WireFail>(r, whole_payload,
                                [&message](auto io) { walk(io, message); });
  return message;
}

}  // namespace

// ------------------------------------------------------- STATS schema

namespace {

using enum StatsField::Kind;
using enum StatsField::Merge;

constexpr StatsField kStatsRows[] = {
    {"uptime_ms", "congestbcd_uptime_ms",
     "Milliseconds since the daemon started", kGauge, kMax,
     &StatsReply::uptime_ms},
    {"submits", "congestbcd_submits_total",
     "SUBMIT requests accepted for parsing", kCounter, kSum,
     &StatsReply::submits},
    {"cache_hits", "congestbcd_cache_hits_total",
     "Submits answered from the result cache", kCounter, kSum,
     &StatsReply::cache_hits},
    {"cache_misses", "congestbcd_cache_misses_total",
     "Cache lookups that missed", kCounter, kSum, &StatsReply::cache_misses},
    {"coalesced", "congestbcd_coalesced_total",
     "Submits attached to an identical in-flight job", kCounter, kSum,
     &StatsReply::coalesced},
    {"busy_rejections", "congestbcd_busy_rejections_total",
     "Submits rejected because the queue was full", kCounter, kSum,
     &StatsReply::busy_rejections},
    {"draining_rejections", "congestbcd_draining_rejections_total",
     "Submits rejected during drain", kCounter, kSum,
     &StatsReply::draining_rejections},
    {"jobs_completed", "congestbcd_jobs_completed_total",
     "Jobs finished successfully", kCounter, kSum,
     &StatsReply::jobs_completed},
    {"jobs_failed", "congestbcd_jobs_failed_total",
     "Jobs that ended in failure", kCounter, kSum, &StatsReply::jobs_failed},
    {"jobs_cancelled", "congestbcd_jobs_cancelled_total",
     "Jobs cancelled by clients", kCounter, kSum,
     &StatsReply::jobs_cancelled},
    {"jobs_suspended", "congestbcd_jobs_suspended_total",
     "Jobs suspended with a resumable checkpoint", kCounter, kSum,
     &StatsReply::jobs_suspended},
    {"jobs_resumed", "congestbcd_jobs_resumed_total",
     "Jobs resumed from a spooled checkpoint", kCounter, kSum,
     &StatsReply::jobs_resumed},
    {"protocol_errors", "congestbcd_protocol_errors_total",
     "Malformed frames answered with a typed error", kCounter, kSum,
     &StatsReply::protocol_errors},
    {"queue_depth", "congestbcd_queue_depth",
     "Jobs admitted but not yet running", kGauge, kSum,
     &StatsReply::queue_depth},
    {"running", "congestbcd_running_jobs", "Jobs currently executing", kGauge,
     kSum, &StatsReply::running},
    {"workers", "congestbcd_workers", "Worker pool size", kGauge, kSum,
     &StatsReply::workers},
    {"cache_entries", "congestbcd_cache_entries",
     "Result-cache entries resident", kGauge, kSum,
     &StatsReply::cache_entries},
    {"cache_evictions", "congestbcd_cache_evictions_total",
     "Result-cache LRU evictions", kCounter, kSum,
     &StatsReply::cache_evictions},
    {"retried_submits", "congestbcd_retried_submits_total",
     "Submits marked by the client as a retry (attempt > 1)", kCounter, kSum,
     &StatsReply::retried_submits},
    {"deadline_rejections", "congestbcd_deadline_rejections_total",
     "Submits rejected at admission because the client deadline could not "
     "be met",
     kCounter, kSum, &StatsReply::deadline_rejections},
    {"deadline_expired", "congestbcd_deadline_expired_total",
     "Admitted jobs failed because the client deadline ran out", kCounter,
     kSum, &StatsReply::deadline_expired},
    {"quarantined_files", "congestbcd_quarantined_files_total",
     "Corrupt spool/cache/checkpoint files quarantined at startup", kCounter,
     kSum, &StatsReply::quarantined_files},
    {"qps", "congestbcd_qps", "Submits per second over the daemon lifetime",
     kGauge, kSum, nullptr, &StatsReply::qps},
    {"worker_utilization", "congestbcd_worker_utilization",
     "Fraction of worker wall-time spent inside jobs", kGauge, kMax, nullptr,
     &StatsReply::worker_utilization},
    {"latency_p50_ms", "congestbcd_job_latency_p50_ms",
     "Median submit-to-terminal latency (recent window)", kGauge, kMax,
     nullptr, &StatsReply::latency_p50_ms},
    {"latency_p90_ms", "congestbcd_job_latency_p90_ms",
     "p90 submit-to-terminal latency (recent window)", kGauge, kMax, nullptr,
     &StatsReply::latency_p90_ms},
    {"latency_p99_ms", "congestbcd_job_latency_p99_ms",
     "p99 submit-to-terminal latency (recent window)", kGauge, kMax, nullptr,
     &StatsReply::latency_p99_ms},
    {"mutations_applied", "congestbcd_mutations_applied_total",
     "Edge operations applied to live stream graphs", kCounter, kSum,
     &StatsReply::mutations_applied},
    {"graph_version", "congestbcd_graph_version",
     "Highest live stream-graph version across namespaces", kGauge, kMax,
     &StatsReply::graph_version},
    {"dirty_sources_rerun", "congestbcd_dirty_sources_rerun_total",
     "Sources re-executed by incremental BC maintainers", kCounter, kSum,
     &StatsReply::dirty_sources_rerun},
    {"cache_invalidations", "congestbcd_cache_invalidations_total",
     "Result-cache entries invalidated by stream mutations", kCounter, kSum,
     &StatsReply::cache_invalidations},
    {"backend_downgrades", "congestbcd_backend_downgrades_total",
     "backend=auto jobs downgraded to sampled under queue pressure", kCounter,
     kSum, &StatsReply::backend_downgrades},
    {"migrated_out", "congestbcd_migrated_out_total",
     "Jobs shipped to another worker during drain", kCounter, kSum,
     &StatsReply::migrated_out},
    {"migrated_in", "congestbcd_migrated_in_total",
     "Migrated jobs validated and admitted from another worker", kCounter,
     kSum, &StatsReply::migrated_in},
    {"lookups_served", "congestbcd_lookups_served_total",
     "Cross-worker cache probes answered from the local cache", kCounter,
     kSum, &StatsReply::lookups_served},
};

}  // namespace

const std::span<const StatsField> kStatsFields{kStatsRows};

const char* to_string(ProtoError code) {
  switch (code) {
    case ProtoError::kBadMagic:
      return "bad-magic";
    case ProtoError::kBadVersion:
      return "bad-version";
    case ProtoError::kOversized:
      return "oversized";
    case ProtoError::kMalformed:
      return "malformed";
    case ProtoError::kUnknownType:
      return "unknown-type";
    case ProtoError::kBadRequest:
      return "bad-request";
    case ProtoError::kCorrupted:
      return "corrupted";
  }
  return "unknown";
}

const char* to_string(SubmitDisposition d) {
  switch (d) {
    case SubmitDisposition::kQueued:
      return "queued";
    case SubmitDisposition::kCacheHit:
      return "cache-hit";
    case SubmitDisposition::kCoalesced:
      return "coalesced";
    case SubmitDisposition::kBusy:
      return "busy";
    case SubmitDisposition::kDraining:
      return "draining";
    case SubmitDisposition::kRejected:
      return "rejected";
    case SubmitDisposition::kDeadline:
      return "deadline";
  }
  return "unknown";
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kSuspended:
      return "suspended";
    case JobState::kUnknown:
      return "unknown";
  }
  return "unknown";
}

const char* to_string(MutateOutcome o) {
  switch (o) {
    case MutateOutcome::kApplied:
      return "applied";
    case MutateOutcome::kCreated:
      return "created";
    case MutateOutcome::kVersionConflict:
      return "version-conflict";
    case MutateOutcome::kRejected:
      return "rejected";
    case MutateOutcome::kDraining:
      return "draining";
  }
  return "unknown";
}

const char* to_string(MigrateOutcome o) {
  switch (o) {
    case MigrateOutcome::kAccepted:
      return "accepted";
    case MigrateOutcome::kCoalesced:
      return "coalesced";
    case MigrateOutcome::kRejected:
      return "rejected";
    case MigrateOutcome::kDraining:
      return "draining";
  }
  return "unknown";
}

const char* to_string(CancelOutcome o) {
  switch (o) {
    case CancelOutcome::kCancelled:
      return "cancelled";
    case CancelOutcome::kTooLate:
      return "too-late";
    case CancelOutcome::kNotFound:
      return "not-found";
    case CancelOutcome::kRequested:
      return "requested";
  }
  return "unknown";
}

// ------------------------------------------------------------ framing

std::vector<std::uint8_t> frame_bytes(const BitWriter& payload) {
  const std::uint64_t bits = payload.bit_size();
  const std::uint64_t bytes = (bits + 7) / 8;
  CBC_EXPECTS(bytes <= kMaxFramePayloadBytes,
              "frame payload exceeds the protocol maximum");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + static_cast<std::size_t>(bytes));
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  out.push_back(static_cast<std::uint8_t>(kProtocolVersion & 0xff));
  out.push_back(static_cast<std::uint8_t>(kProtocolVersion >> 8));
  for (unsigned i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
  }
  const std::uint64_t checksum =
      fnv1a(payload.data(), static_cast<std::size_t>(bytes));
  for (unsigned i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((checksum >> (8 * i)) & 0xff));
  }
  out.insert(out.end(), payload.data(),
             payload.data() + static_cast<std::size_t>(bytes));
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<FramePayload> FrameDecoder::next() {
  // Validate each header field as soon as its bytes arrive, so hostile
  // prefixes fail fast instead of waiting for a full header that will
  // never come.
  if (buffer_.size() >= sizeof(kMagic) &&
      std::memcmp(buffer_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ProtocolError(ProtoError::kBadMagic,
                        "frame does not start with CBCP");
  }
  if (buffer_.size() >= 6) {
    const std::uint16_t version = static_cast<std::uint16_t>(
        buffer_[4] | (static_cast<std::uint16_t>(buffer_[5]) << 8));
    if (version != kProtocolVersion) {
      throw ProtocolError(ProtoError::kBadVersion,
                          "unsupported protocol version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kProtocolVersion) + ")");
    }
  }
  if (buffer_.size() < kHeaderBytes) {
    return std::nullopt;
  }
  std::uint64_t bits = 0;
  for (unsigned i = 0; i < 4; ++i) {
    bits |= static_cast<std::uint64_t>(buffer_[6 + i]) << (8 * i);
  }
  const std::uint64_t payload_bytes = (bits + 7) / 8;
  if (payload_bytes > max_payload_bytes_) {
    throw ProtocolError(ProtoError::kOversized,
                        "frame payload of " + std::to_string(payload_bytes) +
                            " bytes exceeds the " +
                            std::to_string(max_payload_bytes_) + "-byte cap");
  }
  if (buffer_.size() < kHeaderBytes + payload_bytes) {
    return std::nullopt;
  }
  std::uint64_t claimed = 0;
  for (unsigned i = 0; i < 8; ++i) {
    claimed |= static_cast<std::uint64_t>(buffer_[kChecksumOffset + i])
               << (8 * i);
  }
  const std::uint64_t actual = fnv1a(buffer_.data() + kHeaderBytes,
                                     static_cast<std::size_t>(payload_bytes));
  if (claimed != actual) {
    throw ProtocolError(ProtoError::kCorrupted,
                        "frame checksum mismatch: payload bytes were "
                        "corrupted in transit");
  }
  FramePayload payload;
  payload.bits = bits;
  payload.bytes.assign(
      buffer_.begin() + kHeaderBytes,
      buffer_.begin() +
          static_cast<std::ptrdiff_t>(kHeaderBytes + payload_bytes));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() +
                    static_cast<std::ptrdiff_t>(kHeaderBytes + payload_bytes));
  return payload;
}

// --------------------------------------------------- encode / decode

BitWriter encode_request(const Request& request) { return encode(request); }

Request decode_request(const FramePayload& payload) {
  BitReader r = payload.reader();
  return decode<Request>(r, true);
}

BitWriter encode_reply(const Reply& reply) { return encode(reply); }

Reply decode_reply(const FramePayload& payload) {
  BitReader r = payload.reader();
  return decode<Reply>(r, true);
}

BitWriter encode_result_block(const ResultBlock& block) {
  return encode(block);
}

ResultBlock decode_result_block(BitReader& r) {
  return decode<ResultBlock>(r, false);
}

Request make_submit(const SubmitRequest& submit) {
  Request request;
  request.type = MsgType::kSubmit;
  request.submit = submit;
  return request;
}

Request make_job_request(MsgType type, std::uint64_t job_id) {
  CBC_EXPECTS(type == MsgType::kStatus || type == MsgType::kResult ||
                  type == MsgType::kCancel,
              "make_job_request: not a job-addressed type");
  Request request;
  request.type = type;
  request.job.job_id = job_id;
  return request;
}

Request make_plain(MsgType type) {
  CBC_EXPECTS(type == MsgType::kStats || type == MsgType::kShutdown,
              "make_plain: not a bodyless type");
  Request request;
  request.type = type;
  return request;
}

Request make_mutate(const MutateRequest& mutate) {
  Request request;
  request.type = MsgType::kMutate;
  request.mutate = mutate;
  return request;
}

Request make_join(const JoinRequest& join) {
  Request request;
  request.type = MsgType::kJoin;
  request.join = join;
  return request;
}

Request make_leave(const LeaveRequest& leave) {
  Request request;
  request.type = MsgType::kLeave;
  request.leave = leave;
  return request;
}

Request make_migrate(const MigrateRequest& migrate) {
  Request request;
  request.type = MsgType::kMigrate;
  request.migrate = migrate;
  return request;
}

Request make_lookup(std::uint64_t fingerprint) {
  Request request;
  request.type = MsgType::kLookup;
  request.lookup.fingerprint = fingerprint;
  return request;
}

}  // namespace congestbc::service
