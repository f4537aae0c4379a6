// The synchronous CONGEST network simulator (paper Section III-A).
//
// Semantics:
//   * time advances in globally synchronized rounds;
//   * in each round every node runs its NodeProgram once, reading the
//     messages sent to it in the previous round and sending at most one
//     physical message per incident edge;
//   * a physical message is the bundle of the logical messages queued to
//     that neighbor in that round; its size is accounted in exact bits and
//     checked against the configured budget B = O(log N)
//     (a violation throws CongestViolationError — the simulator *faults*
//     on any CONGEST violation instead of silently allowing it);
//   * by default delivery is reliable and takes exactly one round; an
//     optional FaultPlan (congest/fault.hpp) injects deterministic drops,
//     duplicates, one-round delays, link outages, and node crashes, all
//     counted in RunMetrics and visible to the TraceSink.
//
// Execution engine (DESIGN.md §8/§13): each round runs only the *active*
// nodes (mail or a due NodeProgram::next_active_round timer) and
// fast-forwards quiescent stretches.  The active set is sorted and split
// into contiguous chunks across NetworkConfig::threads lanes; a
// sequential merge phase then bundles outboxes, applies faults, accounts
// metrics, and feeds the trace in (node, adjacency) order.  Payloads live
// in per-lane double-buffered bump arenas (congest/arena.hpp), so the hot
// path does no per-message heap allocation and results are bit-identical
// for every thread count.  The legacy sequential allocating engine
// (NetworkConfig::legacy_engine) is kept as the reference the identity
// tests compare metrics, traces, and fault events against.
//
// This simulator substitutes for the paper's (hypothetical) physical
// message-passing network: the paper's complexity measure is rounds, which
// the simulator counts exactly (see DESIGN.md, substitutions).
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "congest/fault.hpp"
#include "congest/metrics.hpp"
#include "congest/node.hpp"
#include "graph/graph.hpp"
#include "snapshot/checkpoint.hpp"

namespace congestbc {

namespace obs {
class FlightRecorder;  // obs/recorder.hpp
}

class TraceSink;  // congest/trace.hpp

/// The run exceeded NetworkConfig::max_rounds — a runaway-program guard,
/// not a model violation.
class RoundLimitError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

/// A program broke the CONGEST model (per-edge-per-round bit budget).
class CongestViolationError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

/// The watchdog saw no delivery progress for NetworkConfig::stall_window
/// consecutive rounds while the run was unfinished — the signature of a
/// drop-everything fault plan, a crash-partition, or a deadlocked
/// protocol.
class StallError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

/// Simulator knobs.
struct NetworkConfig {
  /// Per-directed-edge per-round bit budget; 0 disables the check (LOCAL
  /// model).  Typical choice: congest_budget_bits(N).
  std::uint64_t bits_per_edge_per_round = 0;
  /// Hard stop — guards against non-terminating programs under test.
  std::uint64_t max_rounds = 10'000'000;
  /// Record per-round stats (cheap; on by default).
  bool record_per_round = true;
  /// Optional observer of every physical message (and injected fault).
  TraceSink* trace = nullptr;
  /// Optional flight recorder (obs/recorder.hpp): both engines feed it
  /// wall-clock spans for every round phase.  Pure observation — the
  /// recorder never influences execution, so results, metrics, and
  /// traces are bit-identical with it on or off (tests/obs_test.cpp),
  /// and like `trace` it is excluded from options fingerprints.  Must
  /// outlive run().
  obs::FlightRecorder* recorder = nullptr;
  /// Optional fault schedule; nullptr or an empty plan = the paper's
  /// reliable network.  Must outlive run().
  const FaultPlan* faults = nullptr;
  /// Watchdog: throw StallError after this many consecutive rounds with
  /// no message delivered and no program newly done while the run is
  /// unfinished.  0 disables (only max_rounds guards).  Pick a window
  /// larger than any legitimate quiet stretch of the protocol (the BC
  /// pipeline idles O(N + D) rounds replaying the aggregation clock).
  std::uint64_t stall_window = 0;
  /// Lanes for the node-execution phase: 1 = sequential (default), 0 =
  /// one per hardware thread.  Metrics, traces, fault outcomes, and
  /// program results are bit-identical for every value — the merge phase
  /// is always sequential in node-id order.
  unsigned threads = 1;
  /// Run the legacy sequential allocating engine (per-send heap copies,
  /// per-outbox stable_sort; ignores `threads` and the frontier_* knobs)
  /// instead of the frontier engine.  It runs every node every round, and
  /// is the reference the identity tests check the frontier engine
  /// against: metrics, traces, fault events, and program results are
  /// bit-identical (tests/frontier_test.cpp).
  bool legacy_engine = false;
  /// Frontier engine: active sets smaller than this run on the calling
  /// thread even when a pool exists — chunking a handful of nodes across
  /// lanes costs more in wakeups than it saves (and this is what makes
  /// the engine "never slower than 1 thread" on small graphs).
  std::size_t frontier_min_parallel_nodes = 256;
  /// Frontier engine: clamp the lane count to the hardware thread count.
  /// Oversubscribing lanes can only add scheduling overhead; tests turn
  /// this off to exercise real multi-lane dispatch on any host.
  bool frontier_clamp_lanes = true;
  /// Periodic checkpointing (snapshot/checkpoint.hpp): when enabled, the
  /// run writes a full snapshot at every round divisible by
  /// `checkpoint.every_rounds` (atomic write-rename, newest
  /// `checkpoint.keep_last` kept), so a crashed or killed run can restart
  /// from the last boundary via load_snapshot() instead of round 0.
  /// Requires every program to implement Snapshottable.
  CheckpointPolicy checkpoint{};
  /// Suspend the run at the start of this round (0 = never): run()
  /// captures a snapshot, returns the partial metrics, and
  /// Network::suspended() turns true; save_snapshot() then serializes the
  /// captured state.  The deterministic stand-in for "the operator killed
  /// the process here" used by the resume tests and the CLI's
  /// --halt-at-round.
  std::uint64_t halt_at_round = 0;
  /// Cooperative external halt: when non-null and the pointee is true at
  /// a round boundary, the run suspends there exactly like halt_at_round
  /// (snapshot captured; checkpoint written when a checkpoint directory
  /// is configured).  Unlike halt_at_round the *boundary reached* depends
  /// on when the flag was raised, but the snapshot taken there is a
  /// normal boundary snapshot: resuming it reproduces the uninterrupted
  /// run bit for bit.  This is how the serving daemon (src/service)
  /// drains in-flight jobs on SIGTERM.  Must outlive run().
  const std::atomic<bool>* halt_request = nullptr;
};

/// The library's default CONGEST budget: beta * ceil(log2 N) bits with
/// beta = 16 — the explicit constant behind every "O(log N) bits" claim
/// (a bundle of a BFS-wave payload, a DFS token, and control fields fits;
/// see DESIGN.md D3).
std::uint64_t congest_budget_bits(std::uint32_t num_nodes);

/// Builds the program for one node.  It receives only the node id; all
/// topology knowledge must come from NodeContext.
using ProgramFactory = std::function<std::unique_ptr<NodeProgram>(NodeId)>;

/// A simulated network over a fixed connected graph.
class Network {
 public:
  Network(const Graph& graph, NetworkConfig config);
  ~Network();

  /// Registers the undirected edges whose traffic counts toward
  /// RunMetrics::cut_bits.  Must be called before run().
  void register_cut(const std::vector<Edge>& cut_edges);

  /// Runs programs until every node reports done() and no message is in
  /// flight.  Throws CongestViolationError on a CONGEST violation,
  /// RoundLimitError when max_rounds is exceeded, and StallError when the
  /// stall watchdog fires (all derive from InvariantError).
  RunMetrics run(const ProgramFactory& factory);

  /// Same, over caller-owned programs (programs[v] runs on node v); the
  /// caller can inspect per-node results afterwards — including partial
  /// state after a throw, which is what the watchdog runner
  /// (core/runner.hpp) harvests.
  RunMetrics run(std::vector<std::unique_ptr<NodeProgram>>& programs);

  const Graph& graph() const { return *graph_; }

  /// Metrics of the most recent run() — including the partially filled
  /// counters of a run that threw (a failed run's fault and traffic
  /// totals are exactly what the post-mortem wants).
  const RunMetrics& last_metrics() const { return metrics_; }

  /// Payload-arena heap allocations performed by the most recent run()
  /// of the frontier engine (0 for the legacy engine) — flat after
  /// warm-up; bench_simulator reports it.
  std::uint64_t arena_block_allocations() const {
    return arena_block_allocations_;
  }

  // --- checkpoint / restore (snapshot/snapshot.hpp) --------------------
  //
  // The snapshot of a run captures, at a round boundary, everything the
  // next round depends on: every program's state (via Snapshottable),
  // the pending mailboxes and delay-fault parking buffers (arena views
  // materialized into owning bytes), the accumulated RunMetrics, the
  // stall-watchdog counter, and the round number — plus fingerprints of
  // the graph, the CONGEST budget, and the fault plan so a snapshot can
  // only be resumed against the run it came from.  Resuming reproduces
  // the uninterrupted run bit for bit: identical messages, metrics,
  // traces, and outputs, for any `threads` value and either engine.

  /// Serializes the state captured when the last run() suspended
  /// (halt_at_round).  Throws SnapshotError when no suspended state
  /// exists or the stream fails.
  void save_snapshot(std::ostream& out) const;

  /// Parses and validates a snapshot and stages it; the next run()
  /// resumes from it instead of round 0 (the caller still constructs the
  /// programs with their original configuration — load_snapshot restores
  /// their state).  Throws SnapshotError on corruption or when the
  /// snapshot does not match this network's graph/budget/fault plan.
  void load_snapshot(std::istream& in);

  /// True when the last run() returned because of halt_at_round (its
  /// metrics are partial and save_snapshot() is available).
  bool suspended() const { return suspended_payload_ != nullptr; }

  /// The boundary round the last run() resumed from, if it resumed.
  std::optional<std::uint64_t> resumed_from_round() const {
    return resumed_from_round_;
  }

  /// Checkpoint files written by the last run(), oldest first (pruned
  /// ones included — these are the paths as written).
  const std::vector<std::string>& checkpoints_written() const {
    return checkpoints_written_;
  }

 private:
  struct ResumeState;

  RunMetrics run_frontier(std::vector<std::unique_ptr<NodeProgram>>& programs);
  RunMetrics run_legacy(std::vector<std::unique_ptr<NodeProgram>>& programs);

  /// Serializes the complete engine state at the top-of-round boundary.
  /// Pending messages are turned into their owning form first.
  BitWriter encode_snapshot(
      std::uint64_t round, std::uint64_t stall_rounds,
      std::vector<std::vector<InboundMessage>>& mailboxes,
      std::vector<std::vector<InboundMessage>>& delayed,
      const std::vector<std::unique_ptr<NodeProgram>>& programs) const;

  /// The checkpoint/halt hook shared by both engines.  Returns true when
  /// the run must suspend now (halt_at_round reached).
  bool checkpoint_or_halt(
      std::uint64_t round, std::uint64_t start_round,
      std::uint64_t stall_rounds,
      std::vector<std::vector<InboundMessage>>& mailboxes,
      std::vector<std::vector<InboundMessage>>& delayed,
      const std::vector<std::unique_ptr<NodeProgram>>& programs);

  /// Applies a staged ResumeState: restores metrics/messages/programs and
  /// returns the round to restart from (0 when nothing is staged).
  std::uint64_t apply_pending_resume(
      std::vector<std::vector<InboundMessage>>& mailboxes,
      std::vector<std::vector<InboundMessage>>& delayed,
      std::vector<std::unique_ptr<NodeProgram>>& programs,
      std::uint64_t& stall_rounds);

  const Graph* graph_;
  NetworkConfig config_;
  /// Cut membership per directed edge, indexed by CSR adjacency position
  /// (graph.adjacency_offset(u) + slot) — a flat bitmap probe on the hot
  /// path instead of a hash-set lookup.
  std::vector<std::uint8_t> cut_flags_;
  bool has_cut_ = false;
  RunMetrics metrics_;
  std::uint64_t arena_block_allocations_ = 0;
  /// Snapshot staged by load_snapshot(), consumed by the next run().
  std::unique_ptr<ResumeState> pending_resume_;
  /// Payload captured when halt_at_round suspended the last run().
  std::unique_ptr<BitWriter> suspended_payload_;
  std::optional<std::uint64_t> resumed_from_round_;
  std::vector<std::string> checkpoints_written_;
};

}  // namespace congestbc
