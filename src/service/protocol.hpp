// Wire protocol of the BC serving daemon (congestbcd).
//
// Transport: a TCP byte stream carrying length-prefixed frames.  Each
// frame is a fixed 18-byte header followed by a bit-exact payload
// serialized with the same BitWriter/BitReader machinery the CONGEST
// messages and snapshots use (common/bit_io.hpp):
//
//   bytes 0..3   magic "CBCP"
//   u16   LE     protocol version (kProtocolVersion)
//   u32   LE     payload length in BITS (bytes on the wire = ceil(bits/8))
//   u64   LE     FNV-1a of the payload bytes (snapshot.hpp fnv1a) — wire
//                corruption of a frame body is detected before decoding
//                and surfaces as ProtoError::kCorrupted, never as a
//                plausible-but-wrong decode
//   ...          payload bytes
//
// The payload starts with a varuint message type, then type-specific
// fields.  Requests: SUBMIT (graph-or-path + run options), STATUS,
// RESULT, CANCEL (by job id), STATS, SHUTDOWN (begin graceful drain),
// MUTATE (edge batch on a stream namespace), JOIN and LEAVE (a worker
// enters or leaves the router's ring), MIGRATE (a draining worker's job
// or result moves to another worker) and LOOKUP (cross-worker cache
// probe by fingerprint).  Every request gets exactly one reply frame;
// clients poll RESULT until the job reaches a terminal state (the daemon
// never pushes).  protocol.cpp writes each message's field order once,
// as one walk that both encodes and decodes it.
//
// Robustness contract (tests/service_protocol_test.cpp): any malformed
// input — bad magic, unknown version, oversized length, truncated or
// garbage payload, unknown type — yields a typed ProtocolError.  It must
// never crash, read out of bounds, allocate unboundedly, or hang the
// daemon; the daemon answers with an ERROR frame and closes the
// connection.  Incomplete data is not an error: FrameDecoder simply
// waits for more bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bit_io.hpp"

namespace congestbc::service {

// v2 added StatusReply::phase_timeline (PR 5); v3 added the header
// payload checksum, SubmitRequest deadline/attempt fields, and the
// retry/chaos stats counters (PR 6); v4 added the streaming-graph
// surface — MUTATE frames, the SubmitRequest stream-addressing fields,
// and the mutation/version stats counters (PR 8); v5 added the
// algorithm portfolio — SUBMIT carries backend + approximation params,
// SubmitReply reports the resolved backend + auto-downgrade flag, and
// STATS gained backend_downgrades (PR 9); v6 added the cluster surface —
// JOIN/LEAVE membership frames, MIGRATE (a suspended job's canonical
// submit + snapshot, or a finished block, travels to another worker),
// LOOKUP (cross-worker cache probe by fingerprint), the SubmitRequest
// engine hint, and the migration stats counters (PR 10).  The version
// gates the whole frame, so older peers get kBadVersion instead of a
// misparse.
//
// v7 removed the SubmitRequest engine hint and legacy_engine flag: the
// simulator has one engine, so SUBMIT and MIGRATE carry `threads` as
// their only execution hint.
inline constexpr std::uint16_t kProtocolVersion = 7;

/// Frames larger than this are rejected before any allocation happens —
/// the daemon-side cap on hostile length fields.  Generous enough for an
/// inline edge list of a multi-million-edge graph.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 64u << 20;

/// Largest encoded ResultBlock the daemon will serve.  A RESULT reply
/// must fit the frame cap together with its envelope fields (type, flags,
/// fingerprint, detail), so the block cap leaves a kibibyte of slack.
/// Jobs whose block exceeds it fail with a typed detail at completion
/// time instead of blowing up frame_bytes on the reply path.
inline constexpr std::uint64_t kMaxServableBlockBits =
    (static_cast<std::uint64_t>(kMaxFramePayloadBytes) - 1024) * 8;

/// Why a frame or payload was rejected.
enum class ProtoError : std::uint8_t {
  kBadMagic = 1,     ///< first four bytes are not "CBCP"
  kBadVersion = 2,   ///< version field != kProtocolVersion
  kOversized = 3,    ///< length field exceeds kMaxFramePayloadBytes
  kMalformed = 4,    ///< payload bits do not decode as the claimed type
  kUnknownType = 5,  ///< message type is not one we speak
  kBadRequest = 6,   ///< well-formed but semantically invalid (bad graph,
                     ///< unreadable path, invalid fault spec)
  kCorrupted = 7,    ///< header checksum does not match the payload bytes
                     ///< (wire corruption; retryable on a fresh connection)
};

const char* to_string(ProtoError code);

/// Typed protocol failure.  Deliberately NOT an InvariantError: hostile
/// bytes on a socket are an environmental fault, not a library bug.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ProtoError code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  ProtoError code() const { return code_; }

 private:
  ProtoError code_;
};

// ----------------------------------------------------------- messages

enum class MsgType : std::uint8_t {
  kSubmit = 1,
  kStatus = 2,
  kResult = 3,
  kCancel = 4,
  kStats = 5,
  kShutdown = 6,
  kMutate = 7,
  kJoin = 8,
  kLeave = 9,
  kMigrate = 10,
  kLookup = 11,
  kSubmitReply = 65,
  kStatusReply = 66,
  kResultReply = 67,
  kCancelReply = 68,
  kStatsReply = 69,
  kShutdownReply = 70,
  kError = 71,
  kMutateReply = 72,
  kJoinReply = 73,
  kLeaveReply = 74,
  kMigrateReply = 75,
  kLookupReply = 76,
};

/// How the graph of a SUBMIT is transported.
enum class GraphSource : std::uint8_t {
  kInline = 0,  ///< canonical edge-list text in the frame
  kPath = 1,    ///< server-side path (resolved under the daemon's
                ///< --graph-root; the serving-farm shape where datasets
                ///< live next to the daemon, not the client)
};

/// SUBMIT: one BC job.  Result-determining options mirror the
/// DistributedBcOptions subset the daemon exposes; threads is an
/// execution hint that does not enter the fingerprint (results are
/// bit-identical across it, so such jobs coalesce and share cache
/// entries).
struct SubmitRequest {
  GraphSource source = GraphSource::kInline;
  std::string graph;  ///< edge-list text (kInline) or path (kPath)
  bool halve = true;
  bool reliable = false;
  /// Fault spec in FaultPlan::parse syntax; empty = reliable network.
  std::string faults;
  /// Per-job round budget; 0 = daemon default (always clamped to it).
  std::uint64_t max_rounds = 0;
  /// Execution hint (0 = daemon default; excluded from fingerprint).
  std::uint32_t threads = 0;
  /// Client's remaining deadline budget in ms (0 = none).  Admission
  /// rejects (kDeadline) jobs it estimates cannot finish in time, and
  /// housekeeping expires jobs whose budget lapses while queued/running.
  /// Excluded from the fingerprint: retries of the same job carry a
  /// shrinking budget yet still coalesce onto one execution.
  std::uint64_t deadline_ms = 0;
  /// 1-based attempt number stamped by the retrying client; attempts > 1
  /// are counted as retried_submits in STATS.  Excluded from the
  /// fingerprint for the same reason as deadline_ms.
  std::uint32_t attempt = 1;
  // --- v4 stream addressing (ignored when stream_ns is empty) ---------
  /// Run against a live stream namespace (created by MUTATE) instead of
  /// an inline/path graph; `graph` must then be empty.
  std::string stream_ns;
  /// Which version of the namespace to run at; 0 = the live head at
  /// admission time (the reply's fingerprint pins which one that was).
  std::uint64_t stream_version = 0;
  /// Serve from the namespace's incremental BC maintainer (dirty-source
  /// recompute, sum-decomposed assembly) instead of a classic combined
  /// engine run.  Incremental results live under a tagged fingerprint —
  /// they are bit-identical to a from-scratch *decomposed* recompute,
  /// not to a combined run, so the two never share cache entries.
  bool incremental = false;
  // --- v5 portfolio fields --------------------------------------------
  /// congestbc::BackendId on the wire: 0 = auto (serve-time choice —
  /// admission control may downgrade to sampled under load), 1 =
  /// paper_exact, 2 = cfp, 3 = directed (graph text is then parsed as a
  /// directed edge list, orientation preserved), 4 = sampled.
  std::uint8_t backend = 1;
  /// Sampled-backend source budget (0 = server default); ignored — and
  /// fingerprinted as 0 — by every other backend.
  std::uint32_t samples = 0;
  /// Seed of the sampled backend's source draw.
  std::uint64_t sample_seed = 0;
};

/// One edge operation of a MUTATE batch (wire form of
/// stream::EdgeOp; kind: 1 = insert, 2 = remove).
struct MutateOp {
  std::uint8_t kind = 1;
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// MUTATE: apply a batch of edge ops to a named stream namespace at an
/// expected base version (optimistic concurrency).  A namespace is
/// created by the first MUTATE that names it: base_version must be 0
/// and base_graph carries the version-0 edge-list text; ops may ride
/// along and are applied on top as version 1.
struct MutateRequest {
  std::string ns;
  std::uint64_t base_version = 0;
  /// Version-0 edge-list text; only meaningful (and only allowed) when
  /// the namespace does not exist yet.
  std::string base_graph;
  std::vector<MutateOp> ops;
};

enum class MutateOutcome : std::uint8_t {
  kApplied = 0,          ///< batch applied; version/fingerprint are the new head
  kCreated = 1,          ///< namespace created (and ops, if any, applied)
  kVersionConflict = 2,  ///< base_version != live head; version/fingerprint
                         ///< report the actual head so the client can rebase
  kRejected = 3,         ///< semantically invalid (detail says why)
  kDraining = 4,         ///< daemon is draining; not accepting mutations
};

const char* to_string(MutateOutcome o);

struct MutateReply {
  MutateOutcome outcome = MutateOutcome::kRejected;
  std::uint64_t version = 0;      ///< new head (or actual head on conflict)
  std::uint64_t fingerprint = 0;  ///< chained fingerprint at that version
  std::uint64_t applied = 0;      ///< ops that changed the edge set
  std::uint64_t dropped = 0;      ///< no-ops/duplicates canonicalized away
  std::string detail;
};

/// STATUS / RESULT / CANCEL all address a job by daemon-assigned id.
struct JobRequest {
  std::uint64_t job_id = 0;
};

// ------------------------------------------------- v6 cluster frames

/// JOIN: a worker announces itself to the router.  Idempotent — the
/// worker re-sends it periodically, which doubles as the heartbeat that
/// heals a health-check eviction (automatic rejoin).
struct JoinRequest {
  std::string worker_id;  ///< stable identity; canonically "host:port"
  std::string host;       ///< address the router should dial back
  std::uint16_t port = 0;
};

struct JoinReply {
  bool accepted = false;
  std::string detail;
};

/// LEAVE: a draining worker removes itself from the ring immediately
/// instead of waiting for the health checker to evict it.
struct LeaveRequest {
  std::string worker_id;
};

struct LeaveReply {
  bool removed = false;  ///< false: the router never knew this worker
};

/// What a MIGRATE frame carries.
enum class MigrateKind : std::uint8_t {
  kResume = 0,  ///< a suspended job: canonical submit (+ snapshot) — the
                ///< target admits it and resumes from the checkpoint
  kResult = 1,  ///< a finished encoded block — the target caches it by
                ///< fingerprint so unfetched results survive the drain
};

/// MIGRATE: drain-time job transplant.  The draining worker ships the
/// job's canonical SUBMIT (backend already resolved — auto must not
/// re-resolve under the target's load) plus the newest checkpoint
/// container bytes; the target re-validates everything exactly like its
/// own spool recovery (fingerprint recomputed and matched) before
/// admitting, so a corrupt or hostile migration is rejected, never run.
struct MigrateRequest {
  MigrateKind kind = MigrateKind::kResume;
  std::uint64_t fingerprint = 0;  ///< authoritative run fingerprint
  std::uint64_t origin_job_id = 0;
  std::string origin_worker;  ///< worker_id of the draining sender
  SubmitRequest submit;       ///< canonical form (kResume)
  /// Round of the shipped checkpoint; 0 with empty bytes = no snapshot
  /// (non-checkpointable backend) — the target re-runs from scratch,
  /// which is still bit-identical.
  std::uint64_t snapshot_round = 0;
  std::vector<std::uint8_t> snapshot_bytes;  ///< cbcsnap container
  std::vector<std::uint8_t> block_bytes;     ///< encoded block (kResult)
  std::uint64_t block_bits = 0;
};

enum class MigrateOutcome : std::uint8_t {
  kAccepted = 0,   ///< admitted (kResume) or cached (kResult)
  kCoalesced = 1,  ///< fingerprint already cached/in-flight on the target
  kRejected = 2,   ///< failed validation (detail says why)
  kDraining = 3,   ///< target is itself draining; try another worker
};

const char* to_string(MigrateOutcome o);

struct MigrateReply {
  MigrateOutcome outcome = MigrateOutcome::kRejected;
  std::uint64_t job_id = 0;       ///< target-assigned id when admitted
  std::uint64_t fingerprint = 0;  ///< echo of the migrated fingerprint
  std::string detail;
};

/// LOOKUP: cross-worker result-cache probe by fingerprint.  The router
/// asks non-home workers before scheduling an execution; a hit serves
/// the byte-identical cached block without running anything.
struct LookupRequest {
  std::uint64_t fingerprint = 0;
};

struct LookupReply {
  bool found = false;
  std::uint64_t fingerprint = 0;
  std::vector<std::uint8_t> block_bytes;  ///< cached block when found
  std::uint64_t block_bits = 0;
};

/// A decoded request frame.
struct Request {
  MsgType type = MsgType::kSubmit;
  SubmitRequest submit;    ///< valid when type == kSubmit
  JobRequest job;          ///< valid for kStatus/kResult/kCancel
  MutateRequest mutate;    ///< valid when type == kMutate
  JoinRequest join;        ///< valid when type == kJoin
  LeaveRequest leave;      ///< valid when type == kLeave
  MigrateRequest migrate;  ///< valid when type == kMigrate
  LookupRequest lookup;    ///< valid when type == kLookup
};

/// What happened to a SUBMIT at admission.
enum class SubmitDisposition : std::uint8_t {
  kQueued = 0,     ///< fresh job admitted to the queue
  kCacheHit = 1,   ///< identical fingerprint already completed; RESULT is
                   ///< immediately ready, no execution scheduled
  kCoalesced = 2,  ///< identical fingerprint already queued/running; this
                   ///< client shares that execution
  kBusy = 3,       ///< queue at its depth limit — retry later
  kDraining = 4,   ///< daemon is draining; not admitting work
  kRejected = 5,   ///< semantically invalid (detail says why)
  kDeadline = 6,   ///< deadline budget too small for the estimated wait —
                   ///< retrying with the same budget will not help
};

const char* to_string(SubmitDisposition d);

struct SubmitReply {
  SubmitDisposition disposition = SubmitDisposition::kQueued;
  std::uint64_t job_id = 0;       ///< 0 when not admitted
  std::uint64_t fingerprint = 0;  ///< run_fingerprint of the job
  std::string detail;
  // --- v5 portfolio fields --------------------------------------------
  /// The backend the job actually runs (congestbc::BackendId): the
  /// request's, or admission control's resolution of backend=auto.
  /// 0 on non-admitted dispositions that never resolved one.
  std::uint8_t backend = 0;
  /// True when a backend=auto job was downgraded to the sampled backend
  /// under queue pressure / deadline risk (counted in
  /// STATS::backend_downgrades).
  bool downgraded = false;
};

/// Lifecycle of a job inside the daemon.
enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       ///< completed; result cached and servable
  kFailed = 3,     ///< terminal failure (stall, round/time budget, error)
  kCancelled = 4,
  kSuspended = 5,  ///< drain checkpointed it; a restarted daemon resumes
  kUnknown = 6,    ///< no such job id
};

const char* to_string(JobState s);

struct StatusReply {
  JobState state = JobState::kUnknown;
  std::uint64_t job_id = 0;
  std::uint64_t fingerprint = 0;
  /// Jobs ahead of this one (meaningful when kQueued).
  std::uint32_t queue_position = 0;
  std::string detail;
  /// The finished run's logical phase timeline
  /// (obs::format_phase_timeline); empty until the job is terminal with
  /// a harvested result.
  std::string phase_timeline;
};

/// The cached/servable payload of a finished run.  Encoded once with
/// encode_result_block(); the LRU cache stores those exact bytes, so a
/// cache hit serves the byte-identical block a fresh execution produced
/// (tests pin this).  Doubles and long doubles travel bit-exactly via
/// the snapshot field codecs.
struct ResultBlock {
  std::uint8_t run_status = 0;  ///< congestbc::RunStatus
  std::string detail;
  std::uint64_t rounds = 0;
  std::uint32_t diameter = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t total_physical_messages = 0;
  std::vector<double> betweenness;
  std::vector<double> closeness;
  std::vector<double> graph_centrality;
  std::vector<long double> stress;
  std::vector<std::uint32_t> eccentricities;
};

struct ResultReply {
  bool ready = false;
  /// When !ready: the job's current state (clients keep polling on
  /// kQueued/kRunning, give up otherwise).
  JobState state = JobState::kUnknown;
  bool from_cache = false;
  std::uint64_t fingerprint = 0;
  std::string detail;
  /// When ready: the encoded ResultBlock, bit-exact as cached.
  std::vector<std::uint8_t> block_bytes;
  std::uint64_t block_bits = 0;
};

enum class CancelOutcome : std::uint8_t {
  kCancelled = 0,  ///< dequeued before it ran — never executed
  kTooLate = 1,    ///< already terminal (done/failed/cancelled)
  kNotFound = 2,
  kRequested = 3,  ///< halt raised on a running job: best-effort — it
                   ///< usually lands kCancelled at its next round
                   ///< boundary, but a run that finishes first still
                   ///< completes (and is cached) as kDone
};

const char* to_string(CancelOutcome o);

struct CancelReply {
  CancelOutcome outcome = CancelOutcome::kNotFound;
};

/// Counters + derived gauges; also what the periodic JSON metrics dump
/// serializes (service/metrics.hpp).
struct StatsReply {
  std::uint64_t uptime_ms = 0;
  std::uint64_t submits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t draining_rejections = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_suspended = 0;
  std::uint64_t jobs_resumed = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t running = 0;
  std::uint64_t workers = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_evictions = 0;
  /// Submits whose SubmitRequest::attempt was > 1 (client retries seen).
  std::uint64_t retried_submits = 0;
  /// Submits rejected at admission because the deadline budget was too
  /// small for the estimated queue wait.
  std::uint64_t deadline_rejections = 0;
  /// Jobs failed because their deadline lapsed while queued or running.
  std::uint64_t deadline_expired = 0;
  /// Corrupt/truncated spool, cache, or checkpoint files moved aside by
  /// the startup integrity scan (or on read) instead of trusted/deleted.
  std::uint64_t quarantined_files = 0;
  double qps = 0.0;
  double worker_utilization = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  // --- v4 streaming counters (appended after the gauges: the wire
  // format is append-only) ---------------------------------------------
  /// Edge ops that changed a live graph (MUTATE, after canonicalization).
  std::uint64_t mutations_applied = 0;
  /// Gauge: highest live version across stream namespaces (0 = none).
  std::uint64_t graph_version = 0;
  /// Sources re-run by the incremental maintainers (dirty after a batch).
  std::uint64_t dirty_sources_rerun = 0;
  /// Result-cache entries invalidated by fingerprint delta on MUTATE.
  std::uint64_t cache_invalidations = 0;
  // --- v5 portfolio counters ------------------------------------------
  /// backend=auto submits downgraded to the sampled backend by
  /// admission control (queue pressure / deadline risk).
  std::uint64_t backend_downgrades = 0;
  // --- v6 cluster counters --------------------------------------------
  /// Suspended jobs / unfetched results shipped to another worker at
  /// drain (MIGRATE sent and accepted).
  std::uint64_t migrated_out = 0;
  /// MIGRATE frames this worker validated and admitted (or cached).
  std::uint64_t migrated_in = 0;
  /// Cross-worker LOOKUP probes answered from the local result cache.
  std::uint64_t lookups_served = 0;
};

/// One row of the StatsReply schema.  Every view of a snapshot walks
/// kStatsFields instead of naming fields: the STATS wire body, the JSON
/// dump, /metrics, the router's cluster view and the client's stats line.
struct StatsField {
  enum Kind : std::uint8_t { kCounter, kGauge };
  /// How the router folds its workers' values into the cluster view.
  enum Merge : std::uint8_t { kSum, kMax };

  const char* name;       ///< JSON key and stats-line label
  const char* prom_name;  ///< Prometheus metric name
  const char* help;       ///< Prometheus HELP text
  Kind kind;
  Merge merge;
  std::uint64_t StatsReply::*count;    ///< the field, if an integer;
  double StatsReply::*real = nullptr;  ///< else this one

  /// Calls f with the row's typed pointer to member.
  template <class F>
  void visit(F&& f) const {
    if (count != nullptr) {
      f(count);
    } else {
      f(real);
    }
  }
};

/// The StatsReply schema, one row per field in wire order (protocol.cpp).
extern const std::span<const StatsField> kStatsFields;

struct ShutdownReply {
  bool draining = false;  ///< true: drain begun (or already under way)
};

struct ErrorReply {
  ProtoError code = ProtoError::kMalformed;
  std::string message;
};

/// A decoded reply frame (client side).
struct Reply {
  MsgType type = MsgType::kError;
  SubmitReply submit;
  StatusReply status;
  ResultReply result;
  CancelReply cancel;
  StatsReply stats;
  ShutdownReply shutdown;
  ErrorReply error;
  MutateReply mutate;
  JoinReply join;
  LeaveReply leave;
  MigrateReply migrate;
  LookupReply lookup;
};

// ------------------------------------------------------------ framing

/// A complete extracted frame payload.
struct FramePayload {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bits = 0;

  BitReader reader() const {
    return BitReader(bytes.data(), static_cast<std::size_t>(bits));
  }
};

/// Wraps a payload in the frame header, ready to write to a socket.
std::vector<std::uint8_t> frame_bytes(const BitWriter& payload);

/// Incremental deframer for one connection.  feed() hostile bytes
/// freely: header validation throws ProtocolError (bad magic / version /
/// oversized length) before any payload allocation; incomplete frames
/// just wait.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload_bytes = kMaxFramePayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// Next complete frame, or nullopt when more bytes are needed.
  std::optional<FramePayload> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::uint32_t max_payload_bytes_;
  std::vector<std::uint8_t> buffer_;
};

// --------------------------------------------------- encode / decode

BitWriter encode_request(const Request& request);
BitWriter encode_reply(const Reply& reply);

/// Decodes a request payload.  Throws ProtocolError (kMalformed /
/// kUnknownType) on anything that does not decode cleanly — including
/// trailing bits after the last field, which a well-formed encoder never
/// produces.
Request decode_request(const FramePayload& payload);

/// Client-side counterpart of decode_request.
Reply decode_reply(const FramePayload& payload);

/// The servable result body (see ResultBlock).  decode throws
/// ProtocolError on malformed input.
BitWriter encode_result_block(const ResultBlock& block);
ResultBlock decode_result_block(BitReader& r);

// Convenience constructors for one-field requests/replies.
Request make_submit(const SubmitRequest& submit);
Request make_job_request(MsgType type, std::uint64_t job_id);
Request make_plain(MsgType type);  ///< kStats / kShutdown
Request make_mutate(const MutateRequest& mutate);
Request make_join(const JoinRequest& join);
Request make_leave(const LeaveRequest& leave);
Request make_migrate(const MigrateRequest& migrate);
Request make_lookup(std::uint64_t fingerprint);

}  // namespace congestbc::service
