#include "service/protocol.hpp"

#include <bit>
#include <cstring>

#include "algo/bc_pipeline.hpp"
#include "common/assert.hpp"
#include "snapshot/snapshot.hpp"

namespace congestbc::service {

namespace {

constexpr char kMagic[4] = {'C', 'B', 'C', 'P'};
constexpr std::size_t kHeaderBytes = 18;
constexpr std::size_t kChecksumOffset = 10;

// ---- payload field helpers -------------------------------------------
//
// All reads funnel through these so every overrun or hostile length
// surfaces as ProtocolError, never as UB or an unbounded allocation.
// BitReader itself throws InvariantError past the end; decode_* wraps
// whole-message decoding in rethrow_malformed.

void put_string(BitWriter& w, const std::string& s) {
  w.write_varuint(s.size());
  for (const char c : s) {
    w.write(static_cast<std::uint8_t>(c), 8);
  }
}

std::string get_string(BitReader& r) {
  const std::uint64_t size = r.read_varuint();
  // Divide instead of multiplying: `size * 8` wraps for hostile lengths
  // >= 2^61, which would slip past the check and into the allocation.
  if (size > r.remaining() / 8) {
    throw ProtocolError(ProtoError::kMalformed,
                        "string length " + std::to_string(size) +
                            " exceeds the remaining payload");
  }
  std::string s(static_cast<std::size_t>(size), '\0');
  for (auto& c : s) {
    c = static_cast<char>(r.read(8));
  }
  return s;
}

/// Element count guarded against hostile values: each element needs at
/// least `min_bits_each` bits of payload left.
std::uint64_t get_count(BitReader& r, std::uint64_t min_bits_each) {
  const std::uint64_t count = r.read_varuint();
  if (count > r.remaining() / min_bits_each) {
    throw ProtocolError(ProtoError::kMalformed,
                        "element count " + std::to_string(count) +
                            " exceeds the remaining payload");
  }
  return count;
}

/// The highest backend id a frame may carry.
constexpr auto kLastBackend = static_cast<std::uint64_t>(BackendId::kSampled);

std::uint8_t checked_backend(std::uint64_t raw) {
  if (raw > kLastBackend) {
    throw ProtocolError(ProtoError::kMalformed,
                        "unknown backend " + std::to_string(raw));
  }
  return static_cast<std::uint8_t>(raw);
}

void put_type(BitWriter& w, MsgType type) {
  w.write_varuint(static_cast<std::uint64_t>(type));
}

[[noreturn]] void rethrow_malformed(const char* what_msg) {
  throw ProtocolError(ProtoError::kMalformed,
                      std::string("malformed payload: ") + what_msg);
}

void expect_consumed(const BitReader& r) {
  // A conforming encoder byte-pads nothing: bit length is exact.
  if (r.remaining() != 0) {
    throw ProtocolError(ProtoError::kMalformed,
                        std::to_string(r.remaining()) +
                            " trailing bits after the last field");
  }
}

// ---- per-message bodies ----------------------------------------------

void encode_submit_body(BitWriter& w, const SubmitRequest& s) {
  w.write_varuint(static_cast<std::uint64_t>(s.source));
  put_string(w, s.graph);
  w.write_bool(s.halve);
  w.write_bool(s.reliable);
  put_string(w, s.faults);
  w.write_varuint(s.max_rounds);
  w.write_varuint(s.threads);
  w.write_varuint(s.deadline_ms);
  w.write_varuint(s.attempt);
  put_string(w, s.stream_ns);
  w.write_varuint(s.stream_version);
  w.write_bool(s.incremental);
  w.write_varuint(s.backend);
  w.write_varuint(s.samples);
  w.write_varuint(s.sample_seed);
}

SubmitRequest decode_submit_body(BitReader& r) {
  SubmitRequest s;
  const std::uint64_t source = r.read_varuint();
  if (source > static_cast<std::uint64_t>(GraphSource::kPath)) {
    throw ProtocolError(ProtoError::kMalformed,
                        "unknown graph source " + std::to_string(source));
  }
  s.source = static_cast<GraphSource>(source);
  s.graph = get_string(r);
  s.halve = r.read_bool();
  s.reliable = r.read_bool();
  s.faults = get_string(r);
  s.max_rounds = r.read_varuint();
  s.threads = static_cast<std::uint32_t>(r.read_varuint());
  s.deadline_ms = r.read_varuint();
  s.attempt = static_cast<std::uint32_t>(r.read_varuint());
  s.stream_ns = get_string(r);
  s.stream_version = r.read_varuint();
  s.incremental = r.read_bool();
  s.backend = checked_backend(r.read_varuint());
  const std::uint64_t samples = r.read_varuint();
  if (samples > UINT32_MAX) {
    throw ProtocolError(ProtoError::kMalformed,
                        "sample budget exceeds the node id width");
  }
  s.samples = static_cast<std::uint32_t>(samples);
  s.sample_seed = r.read_varuint();
  return s;
}

// ---- v6 cluster bodies -----------------------------------------------

/// Opaque byte blob (snapshot containers, encoded result blocks):
/// varuint byte count + raw bytes, count guarded like get_string.
void put_bytes(BitWriter& w, const std::vector<std::uint8_t>& bytes) {
  w.write_varuint(bytes.size());
  for (const std::uint8_t b : bytes) {
    w.write(b, 8);
  }
}

std::vector<std::uint8_t> get_bytes(BitReader& r) {
  const std::uint64_t size = r.read_varuint();
  if (size > r.remaining() / 8) {
    throw ProtocolError(ProtoError::kMalformed,
                        "byte blob length " + std::to_string(size) +
                            " exceeds the remaining payload");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(r.read(8));
  }
  return bytes;
}

/// An encoded result block (RESULT, LOOKUP and MIGRATE carry one):
/// varuint bit length + exactly that many bits, no byte padding.
void put_block(BitWriter& w, const std::vector<std::uint8_t>& bytes,
               std::uint64_t bits) {
  w.write_varuint(bits);
  w.append(bytes.data(), static_cast<std::size_t>(bits));
}

/// Reads a put_block field into `bytes` and returns its bit length; the
/// length is checked against the payload before anything is allocated.
/// `what` names the carrying message in the error.
std::uint64_t get_block(BitReader& r, std::vector<std::uint8_t>& bytes,
                        const char* what) {
  const std::uint64_t bits = r.read_varuint();
  if (bits > r.remaining()) {
    throw ProtocolError(ProtoError::kMalformed,
                        std::string(what) +
                            " block length exceeds the payload");
  }
  bytes.assign((static_cast<std::size_t>(bits) + 7) / 8, 0);
  std::uint64_t left = bits;
  std::size_t byte = 0;
  while (left > 0) {
    const unsigned chunk = left >= 8 ? 8u : static_cast<unsigned>(left);
    bytes[byte++] = static_cast<std::uint8_t>(r.read(chunk));
    left -= chunk;
  }
  return bits;
}

void encode_join_body(BitWriter& w, const JoinRequest& j) {
  put_string(w, j.worker_id);
  put_string(w, j.host);
  w.write_varuint(j.port);
}

JoinRequest decode_join_body(BitReader& r) {
  JoinRequest j;
  j.worker_id = get_string(r);
  j.host = get_string(r);
  const std::uint64_t port = r.read_varuint();
  if (port > UINT16_MAX) {
    throw ProtocolError(ProtoError::kMalformed,
                        "port " + std::to_string(port) + " out of range");
  }
  j.port = static_cast<std::uint16_t>(port);
  return j;
}

void encode_migrate_body(BitWriter& w, const MigrateRequest& m) {
  w.write_varuint(static_cast<std::uint64_t>(m.kind));
  w.write(m.fingerprint, 64);
  w.write_varuint(m.origin_job_id);
  put_string(w, m.origin_worker);
  encode_submit_body(w, m.submit);
  w.write_varuint(m.snapshot_round);
  put_bytes(w, m.snapshot_bytes);
  put_block(w, m.block_bytes, m.block_bits);
}

MigrateRequest decode_migrate_body(BitReader& r) {
  MigrateRequest m;
  const std::uint64_t kind = r.read_varuint();
  if (kind > static_cast<std::uint64_t>(MigrateKind::kResult)) {
    throw ProtocolError(ProtoError::kMalformed,
                        "unknown migrate kind " + std::to_string(kind));
  }
  m.kind = static_cast<MigrateKind>(kind);
  m.fingerprint = r.read(64);
  m.origin_job_id = r.read_varuint();
  m.origin_worker = get_string(r);
  m.submit = decode_submit_body(r);
  m.snapshot_round = r.read_varuint();
  m.snapshot_bytes = get_bytes(r);
  m.block_bits = get_block(r, m.block_bytes, "migrated");
  return m;
}

void encode_migrate_reply_body(BitWriter& w, const MigrateReply& m) {
  w.write_varuint(static_cast<std::uint64_t>(m.outcome));
  w.write_varuint(m.job_id);
  w.write(m.fingerprint, 64);
  put_string(w, m.detail);
}

MigrateReply decode_migrate_reply_body(BitReader& r) {
  MigrateReply m;
  const std::uint64_t o = r.read_varuint();
  if (o > static_cast<std::uint64_t>(MigrateOutcome::kDraining)) {
    throw ProtocolError(ProtoError::kMalformed, "unknown migrate outcome");
  }
  m.outcome = static_cast<MigrateOutcome>(o);
  m.job_id = r.read_varuint();
  m.fingerprint = r.read(64);
  m.detail = get_string(r);
  return m;
}

void encode_lookup_reply_body(BitWriter& w, const LookupReply& m) {
  w.write_bool(m.found);
  w.write(m.fingerprint, 64);
  if (m.found) {
    put_block(w, m.block_bytes, m.block_bits);
  }
}

LookupReply decode_lookup_reply_body(BitReader& r) {
  LookupReply m;
  m.found = r.read_bool();
  m.fingerprint = r.read(64);
  if (m.found) {
    m.block_bits = get_block(r, m.block_bytes, "lookup");
  }
  return m;
}

void encode_mutate_body(BitWriter& w, const MutateRequest& m) {
  put_string(w, m.ns);
  w.write_varuint(m.base_version);
  put_string(w, m.base_graph);
  w.write_varuint(m.ops.size());
  for (const MutateOp& op : m.ops) {
    w.write_varuint(op.kind);
    w.write_varuint(op.u);
    w.write_varuint(op.v);
  }
}

MutateRequest decode_mutate_body(BitReader& r) {
  MutateRequest m;
  m.ns = get_string(r);
  m.base_version = r.read_varuint();
  m.base_graph = get_string(r);
  // Each op is three varuints — at least 6 bits even in the tightest
  // imaginable encoding, so hostile counts cannot out-allocate the
  // payload they rode in on.
  const std::uint64_t count = get_count(r, 6);
  m.ops.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    MutateOp op;
    const std::uint64_t kind = r.read_varuint();
    if (kind < 1 || kind > 2) {
      throw ProtocolError(ProtoError::kMalformed,
                          "unknown edge op kind " + std::to_string(kind));
    }
    op.kind = static_cast<std::uint8_t>(kind);
    const std::uint64_t u = r.read_varuint();
    const std::uint64_t v = r.read_varuint();
    if (u > UINT32_MAX || v > UINT32_MAX) {
      throw ProtocolError(ProtoError::kMalformed,
                          "edge op endpoint exceeds the node id width");
    }
    op.u = static_cast<std::uint32_t>(u);
    op.v = static_cast<std::uint32_t>(v);
    m.ops.push_back(op);
  }
  return m;
}

void encode_mutate_reply_body(BitWriter& w, const MutateReply& m) {
  w.write_varuint(static_cast<std::uint64_t>(m.outcome));
  w.write_varuint(m.version);
  w.write(m.fingerprint, 64);
  w.write_varuint(m.applied);
  w.write_varuint(m.dropped);
  put_string(w, m.detail);
}

MutateReply decode_mutate_reply_body(BitReader& r) {
  MutateReply m;
  const std::uint64_t o = r.read_varuint();
  if (o > static_cast<std::uint64_t>(MutateOutcome::kDraining)) {
    throw ProtocolError(ProtoError::kMalformed, "unknown mutate outcome");
  }
  m.outcome = static_cast<MutateOutcome>(o);
  m.version = r.read_varuint();
  m.fingerprint = r.read(64);
  m.applied = r.read_varuint();
  m.dropped = r.read_varuint();
  m.detail = get_string(r);
  return m;
}

void encode_submit_reply_body(BitWriter& w, const SubmitReply& m) {
  w.write_varuint(static_cast<std::uint64_t>(m.disposition));
  w.write_varuint(m.job_id);
  w.write(m.fingerprint, 64);
  put_string(w, m.detail);
  w.write_varuint(m.backend);
  w.write_bool(m.downgraded);
}

SubmitReply decode_submit_reply_body(BitReader& r) {
  SubmitReply m;
  const std::uint64_t d = r.read_varuint();
  if (d > static_cast<std::uint64_t>(SubmitDisposition::kDeadline)) {
    throw ProtocolError(ProtoError::kMalformed, "unknown submit disposition");
  }
  m.disposition = static_cast<SubmitDisposition>(d);
  m.job_id = r.read_varuint();
  m.fingerprint = r.read(64);
  m.detail = get_string(r);
  m.backend = checked_backend(r.read_varuint());
  m.downgraded = r.read_bool();
  return m;
}

JobState checked_job_state(std::uint64_t raw) {
  if (raw > static_cast<std::uint64_t>(JobState::kUnknown)) {
    throw ProtocolError(ProtoError::kMalformed, "unknown job state");
  }
  return static_cast<JobState>(raw);
}

void encode_status_reply_body(BitWriter& w, const StatusReply& m) {
  w.write_varuint(static_cast<std::uint64_t>(m.state));
  w.write_varuint(m.job_id);
  w.write(m.fingerprint, 64);
  w.write_varuint(m.queue_position);
  put_string(w, m.detail);
  put_string(w, m.phase_timeline);
}

StatusReply decode_status_reply_body(BitReader& r) {
  StatusReply m;
  m.state = checked_job_state(r.read_varuint());
  m.job_id = r.read_varuint();
  m.fingerprint = r.read(64);
  m.queue_position = static_cast<std::uint32_t>(r.read_varuint());
  m.detail = get_string(r);
  m.phase_timeline = get_string(r);
  return m;
}

void encode_result_reply_body(BitWriter& w, const ResultReply& m) {
  w.write_bool(m.ready);
  w.write_varuint(static_cast<std::uint64_t>(m.state));
  w.write_bool(m.from_cache);
  w.write(m.fingerprint, 64);
  put_string(w, m.detail);
  if (m.ready) {
    put_block(w, m.block_bytes, m.block_bits);
  }
}

ResultReply decode_result_reply_body(BitReader& r) {
  ResultReply m;
  m.ready = r.read_bool();
  m.state = checked_job_state(r.read_varuint());
  m.from_cache = r.read_bool();
  m.fingerprint = r.read(64);
  m.detail = get_string(r);
  if (m.ready) {
    m.block_bits = get_block(r, m.block_bytes, "result");
  }
  return m;
}

void encode_cancel_reply_body(BitWriter& w, const CancelReply& m) {
  w.write_varuint(static_cast<std::uint64_t>(m.outcome));
}

CancelReply decode_cancel_reply_body(BitReader& r) {
  CancelReply m;
  const std::uint64_t o = r.read_varuint();
  if (o > static_cast<std::uint64_t>(CancelOutcome::kRequested)) {
    throw ProtocolError(ProtoError::kMalformed, "unknown cancel outcome");
  }
  m.outcome = static_cast<CancelOutcome>(o);
  return m;
}

void put_gauge(BitWriter& w, double value) {
  w.write(std::bit_cast<std::uint64_t>(value), 64);
}

double get_gauge(BitReader& r) { return std::bit_cast<double>(r.read(64)); }

void encode_stats_reply_body(BitWriter& w, const StatsReply& m) {
  w.write_varuint(m.uptime_ms);
  w.write_varuint(m.submits);
  w.write_varuint(m.cache_hits);
  w.write_varuint(m.cache_misses);
  w.write_varuint(m.coalesced);
  w.write_varuint(m.busy_rejections);
  w.write_varuint(m.draining_rejections);
  w.write_varuint(m.jobs_completed);
  w.write_varuint(m.jobs_failed);
  w.write_varuint(m.jobs_cancelled);
  w.write_varuint(m.jobs_suspended);
  w.write_varuint(m.jobs_resumed);
  w.write_varuint(m.protocol_errors);
  w.write_varuint(m.queue_depth);
  w.write_varuint(m.running);
  w.write_varuint(m.workers);
  w.write_varuint(m.cache_entries);
  w.write_varuint(m.cache_evictions);
  w.write_varuint(m.retried_submits);
  w.write_varuint(m.deadline_rejections);
  w.write_varuint(m.deadline_expired);
  w.write_varuint(m.quarantined_files);
  put_gauge(w, m.qps);
  put_gauge(w, m.worker_utilization);
  put_gauge(w, m.latency_p50_ms);
  put_gauge(w, m.latency_p90_ms);
  put_gauge(w, m.latency_p99_ms);
  w.write_varuint(m.mutations_applied);
  w.write_varuint(m.graph_version);
  w.write_varuint(m.dirty_sources_rerun);
  w.write_varuint(m.cache_invalidations);
  w.write_varuint(m.backend_downgrades);
  w.write_varuint(m.migrated_out);
  w.write_varuint(m.migrated_in);
  w.write_varuint(m.lookups_served);
}

StatsReply decode_stats_reply_body(BitReader& r) {
  StatsReply m;
  m.uptime_ms = r.read_varuint();
  m.submits = r.read_varuint();
  m.cache_hits = r.read_varuint();
  m.cache_misses = r.read_varuint();
  m.coalesced = r.read_varuint();
  m.busy_rejections = r.read_varuint();
  m.draining_rejections = r.read_varuint();
  m.jobs_completed = r.read_varuint();
  m.jobs_failed = r.read_varuint();
  m.jobs_cancelled = r.read_varuint();
  m.jobs_suspended = r.read_varuint();
  m.jobs_resumed = r.read_varuint();
  m.protocol_errors = r.read_varuint();
  m.queue_depth = r.read_varuint();
  m.running = r.read_varuint();
  m.workers = r.read_varuint();
  m.cache_entries = r.read_varuint();
  m.cache_evictions = r.read_varuint();
  m.retried_submits = r.read_varuint();
  m.deadline_rejections = r.read_varuint();
  m.deadline_expired = r.read_varuint();
  m.quarantined_files = r.read_varuint();
  m.qps = get_gauge(r);
  m.worker_utilization = get_gauge(r);
  m.latency_p50_ms = get_gauge(r);
  m.latency_p90_ms = get_gauge(r);
  m.latency_p99_ms = get_gauge(r);
  m.mutations_applied = r.read_varuint();
  m.graph_version = r.read_varuint();
  m.dirty_sources_rerun = r.read_varuint();
  m.cache_invalidations = r.read_varuint();
  m.backend_downgrades = r.read_varuint();
  m.migrated_out = r.read_varuint();
  m.migrated_in = r.read_varuint();
  m.lookups_served = r.read_varuint();
  return m;
}

void encode_error_body(BitWriter& w, const ErrorReply& m) {
  w.write_varuint(static_cast<std::uint64_t>(m.code));
  put_string(w, m.message);
}

ErrorReply decode_error_body(BitReader& r) {
  ErrorReply m;
  const std::uint64_t c = r.read_varuint();
  if (c < 1 || c > static_cast<std::uint64_t>(ProtoError::kCorrupted)) {
    throw ProtocolError(ProtoError::kMalformed, "unknown error code");
  }
  m.code = static_cast<ProtoError>(c);
  m.message = get_string(r);
  return m;
}

}  // namespace

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

BitWriter encode_request(const Request& request) {
  BitWriter w;
  put_type(w, request.type);
  switch (request.type) {
    case MsgType::kSubmit:
      encode_submit_body(w, request.submit);
      break;
    case MsgType::kMutate:
      encode_mutate_body(w, request.mutate);
      break;
    case MsgType::kJoin:
      encode_join_body(w, request.join);
      break;
    case MsgType::kLeave:
      put_string(w, request.leave.worker_id);
      break;
    case MsgType::kMigrate:
      encode_migrate_body(w, request.migrate);
      break;
    case MsgType::kLookup:
      w.write(request.lookup.fingerprint, 64);
      break;
    case MsgType::kStatus:
    case MsgType::kResult:
    case MsgType::kCancel:
      w.write_varuint(request.job.job_id);
      break;
    case MsgType::kStats:
    case MsgType::kShutdown:
      break;
    default:
      CBC_EXPECTS(false, "encode_request: not a request type");
  }
  return w;
}

Request decode_request(const FramePayload& payload) {
  BitReader r = payload.reader();
  try {
    Request request;
    const std::uint64_t raw_type = r.read_varuint();
    switch (raw_type) {
      case static_cast<std::uint64_t>(MsgType::kSubmit):
        request.type = MsgType::kSubmit;
        request.submit = decode_submit_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kMutate):
        request.type = MsgType::kMutate;
        request.mutate = decode_mutate_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kJoin):
        request.type = MsgType::kJoin;
        request.join = decode_join_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kLeave):
        request.type = MsgType::kLeave;
        request.leave.worker_id = get_string(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kMigrate):
        request.type = MsgType::kMigrate;
        request.migrate = decode_migrate_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kLookup):
        request.type = MsgType::kLookup;
        request.lookup.fingerprint = r.read(64);
        break;
      case static_cast<std::uint64_t>(MsgType::kStatus):
      case static_cast<std::uint64_t>(MsgType::kResult):
      case static_cast<std::uint64_t>(MsgType::kCancel):
        request.type = static_cast<MsgType>(raw_type);
        request.job.job_id = r.read_varuint();
        break;
      case static_cast<std::uint64_t>(MsgType::kStats):
      case static_cast<std::uint64_t>(MsgType::kShutdown):
        request.type = static_cast<MsgType>(raw_type);
        break;
      default:
        throw ProtocolError(ProtoError::kUnknownType,
                            "unknown request type " +
                                std::to_string(raw_type));
    }
    expect_consumed(r);
    return request;
  } catch (const InvariantError& e) {
    // BitReader overruns surface as InvariantError; on a socket they mean
    // a truncated or garbage payload, which is the peer's fault.
    rethrow_malformed(e.what());
  }
}

BitWriter encode_reply(const Reply& reply) {
  BitWriter w;
  put_type(w, reply.type);
  switch (reply.type) {
    case MsgType::kSubmitReply:
      encode_submit_reply_body(w, reply.submit);
      break;
    case MsgType::kStatusReply:
      encode_status_reply_body(w, reply.status);
      break;
    case MsgType::kResultReply:
      encode_result_reply_body(w, reply.result);
      break;
    case MsgType::kCancelReply:
      encode_cancel_reply_body(w, reply.cancel);
      break;
    case MsgType::kStatsReply:
      encode_stats_reply_body(w, reply.stats);
      break;
    case MsgType::kShutdownReply:
      w.write_bool(reply.shutdown.draining);
      break;
    case MsgType::kError:
      encode_error_body(w, reply.error);
      break;
    case MsgType::kMutateReply:
      encode_mutate_reply_body(w, reply.mutate);
      break;
    case MsgType::kJoinReply:
      w.write_bool(reply.join.accepted);
      put_string(w, reply.join.detail);
      break;
    case MsgType::kLeaveReply:
      w.write_bool(reply.leave.removed);
      break;
    case MsgType::kMigrateReply:
      encode_migrate_reply_body(w, reply.migrate);
      break;
    case MsgType::kLookupReply:
      encode_lookup_reply_body(w, reply.lookup);
      break;
    default:
      CBC_EXPECTS(false, "encode_reply: not a reply type");
  }
  return w;
}

Reply decode_reply(const FramePayload& payload) {
  BitReader r = payload.reader();
  try {
    Reply reply;
    const std::uint64_t raw_type = r.read_varuint();
    switch (raw_type) {
      case static_cast<std::uint64_t>(MsgType::kSubmitReply):
        reply.type = MsgType::kSubmitReply;
        reply.submit = decode_submit_reply_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kStatusReply):
        reply.type = MsgType::kStatusReply;
        reply.status = decode_status_reply_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kResultReply):
        reply.type = MsgType::kResultReply;
        reply.result = decode_result_reply_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kCancelReply):
        reply.type = MsgType::kCancelReply;
        reply.cancel = decode_cancel_reply_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kStatsReply):
        reply.type = MsgType::kStatsReply;
        reply.stats = decode_stats_reply_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kShutdownReply):
        reply.type = MsgType::kShutdownReply;
        reply.shutdown.draining = r.read_bool();
        break;
      case static_cast<std::uint64_t>(MsgType::kError):
        reply.type = MsgType::kError;
        reply.error = decode_error_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kMutateReply):
        reply.type = MsgType::kMutateReply;
        reply.mutate = decode_mutate_reply_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kJoinReply):
        reply.type = MsgType::kJoinReply;
        reply.join.accepted = r.read_bool();
        reply.join.detail = get_string(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kLeaveReply):
        reply.type = MsgType::kLeaveReply;
        reply.leave.removed = r.read_bool();
        break;
      case static_cast<std::uint64_t>(MsgType::kMigrateReply):
        reply.type = MsgType::kMigrateReply;
        reply.migrate = decode_migrate_reply_body(r);
        break;
      case static_cast<std::uint64_t>(MsgType::kLookupReply):
        reply.type = MsgType::kLookupReply;
        reply.lookup = decode_lookup_reply_body(r);
        break;
      default:
        throw ProtocolError(ProtoError::kUnknownType,
                            "unknown reply type " + std::to_string(raw_type));
    }
    expect_consumed(r);
    return reply;
  } catch (const InvariantError& e) {
    rethrow_malformed(e.what());
  }
}

BitWriter encode_result_block(const ResultBlock& block) {
  BitWriter w;
  w.write_varuint(block.run_status);
  put_string(w, block.detail);
  w.write_varuint(block.rounds);
  w.write_varuint(block.diameter);
  w.write_varuint(block.total_bits);
  w.write_varuint(block.total_physical_messages);
  const std::uint64_t n = block.betweenness.size();
  CBC_EXPECTS(block.closeness.size() == n && block.graph_centrality.size() == n &&
                  block.stress.size() == n && block.eccentricities.size() == n,
              "result block arrays must agree on N");
  w.write_varuint(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    snap::put_double(w, block.betweenness[v]);
    snap::put_double(w, block.closeness[v]);
    snap::put_double(w, block.graph_centrality[v]);
    snap::put_long_double(w, block.stress[v]);
    w.write_varuint(block.eccentricities[v]);
  }
  return w;
}

ResultBlock decode_result_block(BitReader& r) {
  try {
    ResultBlock block;
    block.run_status = static_cast<std::uint8_t>(r.read_varuint());
    block.detail = get_string(r);
    block.rounds = r.read_varuint();
    block.diameter = static_cast<std::uint32_t>(r.read_varuint());
    block.total_bits = r.read_varuint();
    block.total_physical_messages = r.read_varuint();
    // Each node carries 3 doubles + a long double + an eccentricity —
    // well over 256 bits; 200 is a safe hostile-count floor.
    const std::uint64_t n = get_count(r, 200);
    block.betweenness.reserve(static_cast<std::size_t>(n));
    block.closeness.reserve(static_cast<std::size_t>(n));
    block.graph_centrality.reserve(static_cast<std::size_t>(n));
    block.stress.reserve(static_cast<std::size_t>(n));
    block.eccentricities.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t v = 0; v < n; ++v) {
      block.betweenness.push_back(snap::get_double(r));
      block.closeness.push_back(snap::get_double(r));
      block.graph_centrality.push_back(snap::get_double(r));
      block.stress.push_back(snap::get_long_double(r));
      block.eccentricities.push_back(
          static_cast<std::uint32_t>(r.read_varuint()));
    }
    return block;
  } catch (const InvariantError& e) {
    rethrow_malformed(e.what());
  }
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
