#include "congest/network.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <istream>
#include <optional>
#include <ostream>
#include <queue>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/bit_io.hpp"
#include "congest/arena.hpp"
#include "congest/trace.hpp"
#include "core/thread_pool.hpp"
#include "obs/span.hpp"
#include "snapshot/fingerprint.hpp"
#include "snapshot/field_walk.hpp"
#include "snapshot/snapshottable.hpp"

namespace congestbc {

namespace {

// ------------------------------------------------- frontier engine lane

/// One lane's execution scratch for the frontier engine: a reusable slot
/// slab (sized once to the graph's maximum degree), the ping-pong inbox
/// buffer, and the outbox of bundles this lane produced this round.  A
/// lane processes a contiguous chunk of the sorted active set, flushing
/// each node's bundles into the lane-private arena before moving on — so
/// the parallel phase shares no mutable cache line across lanes, and the
/// sequential merge replays lane outboxes in lane order, which *is*
/// ascending (node, adjacency) order because chunks are contiguous ranges
/// of a sorted list.
class LaneContext final : public NodeContext {
 public:
  struct Slot {
    BitWriter writer;
    std::uint64_t logical = 0;
  };
  /// One flushed bundle: where it came from, which adjacency slot (the
  /// merge derives the destination), and a view into the lane arena.
  struct OutRec {
    NodeId from;
    std::uint32_t adj_index;
    const std::uint8_t* data;
    std::uint64_t bits;
    std::uint64_t logical;
  };

  explicit LaneContext(const Graph& graph) : graph_(&graph) {
    slots_.resize(graph.max_degree());
  }

  NodeId id() const override { return id_; }
  std::uint32_t num_nodes() const override { return graph_->num_nodes(); }
  std::span<const NodeId> neighbors() const override { return neighbors_; }
  std::uint64_t round() const override { return round_; }
  const std::vector<InboundMessage>& inbox() const override { return inbox_; }

  void send(NodeId neighbor, const BitWriter& payload) override {
    const auto it =
        std::lower_bound(neighbors_.begin(), neighbors_.end(), neighbor);
    CBC_EXPECTS(it != neighbors_.end() && *it == neighbor,
                "node tried to send to a non-neighbor");
    Slot& slot = slots_[static_cast<std::size_t>(it - neighbors_.begin())];
    slot.writer.append(payload.data(), payload.bit_size());
    slot.logical += 1;
  }

  // -- harness side --
  /// Points the context at node `v` and takes its mailbox; the mailbox is
  /// left holding the previously used (cleared) inbox buffer, so the
  /// buffers circulate within the lane and keep their capacities.
  void begin(NodeId v, std::uint64_t round,
             std::vector<InboundMessage>& mailbox) {
    id_ = v;
    neighbors_ = graph_->neighbors(v);
    round_ = round;
    inbox_.clear();
    inbox_.swap(mailbox);
  }

  /// Moves the current node's non-empty bundles into `arena` + the lane
  /// outbox and clears the touched slots, leaving the slab ready for the
  /// lane's next node.
  void flush(PayloadArena& arena) {
    for (std::size_t i = 0; i < neighbors_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.logical == 0) {
        continue;
      }
      const std::uint64_t bits = slot.writer.bit_size();
      const std::size_t nbytes = (bits + 7) / 8;
      std::uint8_t* mem = arena.allocate(nbytes);
      if (nbytes != 0) {
        std::memcpy(mem, slot.writer.data(), nbytes);
      }
      outbox_.push_back(OutRec{id_, static_cast<std::uint32_t>(i), mem, bits,
                               slot.logical});
      slot.writer.clear();
      slot.logical = 0;
    }
  }

  std::vector<OutRec>& outbox() { return outbox_; }

 private:
  const Graph* graph_;
  NodeId id_ = 0;
  std::span<const NodeId> neighbors_;
  std::uint64_t round_ = 0;
  std::vector<InboundMessage> inbox_;
  std::vector<Slot> slots_;
  std::vector<OutRec> outbox_;
};

// ------------------------------------------------------- legacy baseline

/// One queued logical payload (legacy engine).
struct PendingSend {
  NodeId to;
  std::vector<std::uint8_t> bytes;
  std::size_t bits;
};

/// The PR-1 per-node context: owning per-send heap copies, kept verbatim
/// as the reproducible baseline behind NetworkConfig::legacy_engine.
class LegacyContext final : public NodeContext {
 public:
  LegacyContext(const Graph& graph, NodeId id) : graph_(&graph), id_(id) {}

  NodeId id() const override { return id_; }
  std::uint32_t num_nodes() const override { return graph_->num_nodes(); }
  std::span<const NodeId> neighbors() const override {
    return graph_->neighbors(id_);
  }
  std::uint64_t round() const override { return round_; }
  const std::vector<InboundMessage>& inbox() const override { return inbox_; }

  void send(NodeId neighbor, const BitWriter& payload) override {
    CBC_EXPECTS(graph_->has_edge(id_, neighbor),
                "node tried to send to a non-neighbor");
    outbox_.push_back(PendingSend{neighbor, payload.bytes(), payload.bit_size()});
  }

  // -- harness side --
  void begin_round(std::uint64_t round, std::vector<InboundMessage> inbox) {
    round_ = round;
    inbox_ = std::move(inbox);
    outbox_.clear();
  }
  std::vector<PendingSend>& outbox() { return outbox_; }

 private:
  const Graph* graph_;
  NodeId id_;
  std::uint64_t round_ = 0;
  std::vector<InboundMessage> inbox_;
  std::vector<PendingSend> outbox_;
};

// ------------------------------------------------ the engine section
//
// One walk declares the section for both directions: saving walks the
// live engine state, loading fills a ResumeState.  Its first four fields
// are expect-fields.  The graph and fault-plan fingerprints live in
// snapshot/fingerprint.hpp — shared with the service layer's result
// cache so "safe to resume" and "safe to serve from cache" key on the
// same bytes.  Resuming against a different graph would silently
// misroute every restored message, and the fault plan's stateless
// injector makes the plan parameters the complete RNG cursor.

using fields::Is;

void walk(auto io, Is<RoundStats> auto& s) {
  io.varuint(s.physical_messages);
  io.varuint(s.logical_messages);
  io.varuint(s.bits);
  io.varuint(s.max_bits_on_edge);
  io.varuint(s.max_logical_on_edge);
}

void walk(auto io, Is<RunMetrics> auto& m) {
  io.varuint(m.rounds);
  io.varuint(m.total_physical_messages);
  io.varuint(m.total_logical_messages);
  io.varuint(m.total_bits);
  io.varuint(m.max_bits_on_edge_round);
  io.varuint(m.max_logical_on_edge_round);
  io.varuint(m.cut_bits);
  io.varuint(m.dropped_messages);
  io.varuint(m.duplicated_messages);
  io.varuint(m.delayed_messages);
  io.varuint(m.crashed_node_rounds);
  // Each RoundStats is five varuints of >= 7 bits each.
  io.length(35, m.per_round);
  for (auto& s : m.per_round) {
    walk(io, s);
  }
}

/// Saving: the program itself, whose own walk is nested.  Loading: its
/// blob, staged until run() has a program to load it into.
const Snapshottable& program_state(const std::unique_ptr<NodeProgram>& program,
                                   NodeId v) {
  const auto* snapshottable =
      dynamic_cast<const Snapshottable*>(program.get());
  if (snapshottable == nullptr) {
    throw SnapshotError("cannot checkpoint: program on node " +
                        std::to_string(v) +
                        " does not implement Snapshottable");
  }
  return *snapshottable;
}
BitWriter& program_state(BitWriter& staged, NodeId) { return staged; }

void walk_engine(auto io, const Graph& g, const NetworkConfig& config,
                 auto& round, auto& stall_rounds, auto& metrics,
                 auto& mailboxes, auto& delayed, auto& programs) {
  io.expect(graph_fingerprint(g),
            "snapshot rejected: it was taken on a different graph");
  io.expect(fault_fingerprint(config.faults),
            "snapshot rejected: it was taken under a different fault plan");
  io.expect(config.bits_per_edge_per_round,
            "snapshot rejected: it was taken under a different CONGEST budget");
  io.expect(config.record_per_round,
            "snapshot rejected: record_per_round differs from the original "
            "run (per-round metrics would diverge from the uninterrupted run)");
  io.varuint(round);
  io.varuint(stall_rounds);
  walk(io, metrics);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (auto* box : {&mailboxes[v], &delayed[v]}) {
      // A message is at least a varuint sender + varuint length (7 bits
      // each).
      io.length(14, *box);
      for (auto& message : *box) {
        walk(io, message);
      }
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    io.nested(program_state(programs[v], v), "program");
  }
}

}  // namespace

/// Everything load_snapshot() parses, staged until the next run()
/// consumes it at its top-of-round boundary.
struct Network::ResumeState {
  std::uint64_t round = 0;
  std::uint64_t stall_rounds = 0;
  RunMetrics metrics;
  std::vector<std::vector<InboundMessage>> mailboxes;
  std::vector<std::vector<InboundMessage>> delayed;
  std::vector<BitWriter> programs;
};

Network::~Network() = default;

std::uint64_t congest_budget_bits(std::uint32_t num_nodes) {
  const std::uint64_t log_n = ceil_log2(num_nodes < 2 ? 2 : num_nodes);
  // The floor of 8 "logical bits" keeps tiny graphs workable: the
  // soft-float payload has a constant-bits floor (mantissa >= 8), so the
  // O(log N) budget needs the same floor on its constant.
  return 16 * std::max<std::uint64_t>(log_n, 8);
}

Network::Network(const Graph& graph, NetworkConfig config)
    : graph_(&graph), config_(config) {
  CBC_EXPECTS(graph.num_nodes() >= 1, "network needs at least one node");
}

void Network::register_cut(const std::vector<Edge>& cut_edges) {
  if (cut_flags_.empty()) {
    cut_flags_.assign(graph_->num_directed_edges(), 0);
  }
  for (const auto& e : cut_edges) {
    CBC_EXPECTS(graph_->has_edge(e.u, e.v), "cut edge not present in graph");
    cut_flags_[graph_->adjacency_offset(e.u) +
               graph_->neighbor_index(e.u, e.v)] = 1;
    cut_flags_[graph_->adjacency_offset(e.v) +
               graph_->neighbor_index(e.v, e.u)] = 1;
    has_cut_ = true;
  }
}

RunMetrics Network::run(const ProgramFactory& factory) {
  const NodeId n = graph_->num_nodes();
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    programs.push_back(factory(v));
    CBC_CHECK(programs.back() != nullptr, "factory returned null program");
  }
  return run(programs);
}

RunMetrics Network::run(std::vector<std::unique_ptr<NodeProgram>>& programs) {
  suspended_payload_.reset();
  resumed_from_round_.reset();
  checkpoints_written_.clear();
  if (config_.legacy_engine) {
    return run_legacy(programs);
  }
  return run_frontier(programs);
}

void Network::save_snapshot(std::ostream& out) const {
  if (suspended_payload_ == nullptr) {
    throw SnapshotError(
        "no suspended state to snapshot: save_snapshot() is only available "
        "after a run() returned because of NetworkConfig::halt_at_round");
  }
  write_snapshot_container(out, *suspended_payload_);
}

void Network::load_snapshot(std::istream& in) {
  const SnapshotPayload payload = read_snapshot_container(in);
  auto state = std::make_unique<ResumeState>();
  const NodeId n = graph_->num_nodes();
  state->mailboxes.resize(n);
  state->delayed.resize(n);
  state->programs.resize(n);
  BitReader r = payload.reader();
  fields::read_fields<fields::SnapshotFail>(r, true, [&](auto io) {
    walk_engine(io, *graph_, config_, state->round, state->stall_rounds,
                state->metrics, state->mailboxes, state->delayed,
                state->programs);
  });
  if (state->round == 0) {
    throw SnapshotError(
        "corrupt snapshot: claims a round-0 boundary, which no writer "
        "produces");
  }
  // A corrupt sender would plant a message the CONGEST topology cannot
  // produce.
  for (NodeId v = 0; v < n; ++v) {
    for (const auto* box : {&state->mailboxes[v], &state->delayed[v]}) {
      for (const InboundMessage& message : *box) {
        if (message.from() >= n || !graph_->has_edge(message.from(), v)) {
          throw SnapshotError("corrupt snapshot: message for node " +
                              std::to_string(v) +
                              " claims non-neighbor sender " +
                              std::to_string(message.from()));
        }
      }
    }
  }
  pending_resume_ = std::move(state);
}

BitWriter Network::encode_snapshot(
    std::uint64_t round, std::uint64_t stall_rounds,
    std::vector<std::vector<InboundMessage>>& mailboxes,
    std::vector<std::vector<InboundMessage>>& delayed,
    const std::vector<std::unique_ptr<NodeProgram>>& programs) const {
  // The walk writes owning messages; the arena views become copies.
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    for (auto* box : {&mailboxes[v], &delayed[v]}) {
      for (InboundMessage& message : *box) {
        message.own();
      }
    }
  }
  return fields::write_fields([&](auto io) {
    walk_engine(io, *graph_, config_, round, stall_rounds, metrics_,
                mailboxes, delayed, programs);
  });
}

bool Network::checkpoint_or_halt(
    std::uint64_t round, std::uint64_t start_round, std::uint64_t stall_rounds,
    std::vector<std::vector<InboundMessage>>& mailboxes,
    std::vector<std::vector<InboundMessage>>& delayed,
    const std::vector<std::unique_ptr<NodeProgram>>& programs) {
  // Neither fires at the boundary the run started from: round 0 would
  // snapshot the trivial initial state, and a resumed run re-entering its
  // own boundary would rewrite the checkpoint it just loaded (or suspend
  // instantly, making --resume after --halt-at-round impossible).
  const bool halt =
      round != start_round &&
      ((config_.halt_at_round != 0 && round == config_.halt_at_round) ||
       (config_.halt_request != nullptr &&
        config_.halt_request->load(std::memory_order_relaxed)));
  const bool checkpoint = config_.checkpoint.enabled() && round != 0 &&
                          round != start_round &&
                          round % config_.checkpoint.every_rounds == 0;
  if (!halt && !checkpoint) {
    return false;
  }
  BitWriter payload =
      encode_snapshot(round, stall_rounds, mailboxes, delayed, programs);
  if (checkpoint || (halt && !config_.checkpoint.directory.empty())) {
    checkpoints_written_.push_back(
        write_checkpoint_file(config_.checkpoint.directory, round, payload,
                              config_.checkpoint.keep_last));
  }
  if (halt) {
    suspended_payload_ = std::make_unique<BitWriter>(std::move(payload));
    return true;
  }
  return false;
}

std::uint64_t Network::apply_pending_resume(
    std::vector<std::vector<InboundMessage>>& mailboxes,
    std::vector<std::vector<InboundMessage>>& delayed,
    std::vector<std::unique_ptr<NodeProgram>>& programs,
    std::uint64_t& stall_rounds) {
  if (pending_resume_ == nullptr) {
    return 0;
  }
  const std::unique_ptr<ResumeState> state = std::move(pending_resume_);
  const NodeId n = graph_->num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    auto* snapshottable = dynamic_cast<Snapshottable*>(programs[v].get());
    if (snapshottable == nullptr) {
      throw SnapshotError("cannot resume: program on node " +
                          std::to_string(v) +
                          " does not implement Snapshottable");
    }
    BitReader r(state->programs[v].data(), state->programs[v].bit_size());
    try {
      snapshottable->load_state(r);
    } catch (const InvariantError& e) {
      throw SnapshotError(
          std::string("corrupt snapshot: program blob of node ") +
          std::to_string(v) + " is malformed: " + e.what());
    }
    if (r.remaining() != 0) {
      throw SnapshotError(
          "corrupt snapshot: program blob of node " + std::to_string(v) +
          " has " + std::to_string(r.remaining()) + " unconsumed bits");
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    mailboxes[v] = std::move(state->mailboxes[v]);
    delayed[v] = std::move(state->delayed[v]);
  }
  metrics_ = std::move(state->metrics);
  stall_rounds = state->stall_rounds;
  resumed_from_round_ = state->round;
  return state->round;
}

RunMetrics Network::run_frontier(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  const NodeId n = graph_->num_nodes();
  CBC_EXPECTS(programs.size() == n, "one program per node required");
  for (NodeId v = 0; v < n; ++v) {
    CBC_EXPECTS(programs[v] != nullptr, "null program");
  }

  std::optional<FaultInjector> injector;
  if (config_.faults != nullptr && !config_.faults->empty()) {
    injector.emplace(*config_.faults, *graph_);
  }

  metrics_ = RunMetrics{};
  arena_block_allocations_ = 0;
  std::vector<std::vector<InboundMessage>> mailboxes(n);
  // Messages hit by a kDelay fault in round r sit here through round r+1's
  // delivery phase and land in the inbox read at round r+2 (one round late).
  std::vector<std::vector<InboundMessage>> delayed_pending(n);
  for (NodeId v = 0; v < n; ++v) {
    // A node receives at most one bundle per incident edge per round (one
    // more under a duplicate fault) — sizing by degree makes mailbox
    // growth a warm-up cost, not a steady-state one.
    mailboxes[v].reserve(graph_->degree(v) + 1);
  }
  // Exact count of messages sitting in mailboxes + delay buffers; replaces
  // the legacy engine's O(N) all-mailbox rescan every round.
  std::uint64_t in_flight = 0;

  // Resume (if a snapshot is staged): restores programs, mailboxes, delay
  // buffers, metrics, and the watchdog counter, and moves the start round.
  std::uint64_t stall_rounds = 0;
  const std::uint64_t start_round =
      apply_pending_resume(mailboxes, delayed_pending, programs, stall_rounds);
  for (NodeId v = 0; v < n; ++v) {
    in_flight += mailboxes[v].size() + delayed_pending[v].size();
  }

  unsigned lanes =
      config_.threads == 0 ? ThreadPool::hardware_threads() : config_.threads;
  if (config_.frontier_clamp_lanes) {
    lanes = std::min(lanes, ThreadPool::hardware_threads());
  }
  std::optional<ThreadPool> pool;
  if (lanes > 1 && n > 1) {
    pool.emplace(lanes);
  }
  const unsigned lane_count = pool ? lanes : 1;
  std::vector<LaneContext> lane_ctxs;
  lane_ctxs.reserve(lane_count);
  for (unsigned lane = 0; lane < lane_count; ++lane) {
    lane_ctxs.emplace_back(*graph_);
  }
  // Per-lane double-buffered payload storage (congest/arena.hpp): lane
  // arenas for round r are reset at the top of round r + 2, strictly after
  // the last reader (the programs of round r + 1; one-round delay faults
  // take owning copies).  Lane-private arenas keep the parallel flush free
  // of shared mutable cache lines.
  std::vector<std::array<PayloadArena, 2>> lane_arenas(lane_count);

  std::vector<std::uint8_t> node_up;
  if (injector) {
    node_up.assign(n, 1);
  }

  // --- SoA per-node scheduling state -----------------------------------
  // wake_[v] is the round the node asked to act in without a message
  // (kActiveOnMessage = not armed); the heap holds (round, node) pairs
  // and is lazily cleaned: an entry is live iff wake_[v] still equals its
  // round.  active_stamp_[v] == r + 1 marks "already in round r's active
  // set", deduplicating message marks against timer wakes.
  std::vector<std::uint64_t> wake(n, kActiveOnMessage);
  std::vector<std::uint64_t> active_stamp(n, 0);
  std::vector<std::uint8_t> done_flags(n, 0);
  std::size_t done_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (programs[v]->done()) {
      done_flags[v] = 1;
      ++done_count;
    }
  }
  using WakeEntry = std::pair<std::uint64_t, NodeId>;
  std::priority_queue<WakeEntry, std::vector<WakeEntry>, std::greater<>>
      wake_heap;
  std::vector<NodeId> active;
  std::vector<NodeId> msg_wake;
  std::vector<NodeId> delayed_nodes;

  const auto arm_wake = [&](NodeId v, std::uint64_t from) {
    const std::uint64_t w = programs[v]->next_active_round(from);
    if (w == kActiveOnMessage) {
      wake[v] = kActiveOnMessage;
      return;
    }
    const std::uint64_t wr = w > from ? w : from;
    wake[v] = wr;
    wake_heap.emplace(wr, v);
  };
  const auto mark = [&](NodeId v, std::uint64_t target) {
    if (active_stamp[v] < target + 1) {
      active_stamp[v] = target + 1;
      msg_wake.push_back(v);
    }
  };

  for (NodeId v = 0; v < n; ++v) {
    arm_wake(v, start_round);
    if (!mailboxes[v].empty()) {
      mark(v, start_round);
    }
    if (!delayed_pending[v].empty()) {
      delayed_nodes.push_back(v);
    }
  }

  // Stall watchdog state, with the legacy engine's semantics.  Progress
  // means: the done() count changed, a program's progress_marker()
  // advanced, or a live node *without* a marker consumed a message.  Mere
  // transmission is never progress — under a drop-everything plan senders
  // stay busy forever while the computation goes nowhere — and
  // consumption by marker-bearing programs (the reliable transport) is
  // ignored too, because their control chatter keeps flowing even when
  // retransmitting into a dead peer.  After a resume the markers and done
  // count are re-read from the restored programs — identical to what the
  // uninterrupted run carried across this boundary.  Done counting is
  // incremental here (done_flags above) because only ran nodes can flip.
  std::size_t last_done_count = 0;
  std::vector<std::optional<std::uint64_t>> last_markers;
  if (config_.stall_window != 0) {
    last_markers.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      last_markers.push_back(programs[v]->progress_marker());
    }
    if (start_round != 0) {
      last_done_count = done_count;
    }
  }

  // Hoisted (one-time) dispatch callables: constructing a std::function
  // per round would be one heap allocation per round — the
  // thread-count-dependent allocation drift bench_simulator asserts
  // against.  run_range reads `round` through its reference capture.
  std::uint64_t round = start_round;
  const auto run_range = [&](unsigned lane, std::size_t lo, std::size_t hi) {
    obs::ScopedSpan obs_span(config_.recorder, obs::Phase::kLaneDispatch,
                             round, lane);
    LaneContext& ctx = lane_ctxs[lane];
    PayloadArena& arena = lane_arenas[lane][round & 1];
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = active[i];
      if (injector && node_up[v] == 0) {
        continue;  // frozen: mailbox already cleared, no slots touched
      }
      ctx.begin(v, round, mailboxes[v]);
      programs[v]->on_round(ctx);
      ctx.flush(arena);
    }
  };
  const std::function<void(unsigned, std::size_t, std::size_t)> lane_fn =
      run_range;

  for (;;) {
    metrics_.rounds = round;  // kept current so a throw reports progress
    if (round >= config_.max_rounds) {
      throw RoundLimitError("simulation exceeded max_rounds = " +
                            std::to_string(config_.max_rounds));
    }

    if (in_flight == 0 && done_count == n) {
      metrics_.rounds = round;
      return metrics_;
    }

    if (checkpoint_or_halt(round, start_round, stall_rounds, mailboxes,
                           delayed_pending, programs)) {
      return metrics_;  // suspended; save_snapshot() has the state
    }

    // Quiescence fast-forward: with no message in flight, no node due,
    // and no fault plan (crash schedules make every round observable),
    // the intervening rounds are provably empty — record them as such
    // without running the phase machinery.  The skip stops at the next
    // timer wake and at every boundary the full loop would act on: the
    // round limit, the round where the stall watchdog fires (executed
    // normally so the error text matches the legacy engine exactly), the
    // next checkpoint boundary, halt_at_round, and a polling cap when an
    // external halt flag is registered.
    if (!injector && in_flight == 0 && msg_wake.empty()) {
      while (!wake_heap.empty() &&
             wake[wake_heap.top().second] != wake_heap.top().first) {
        wake_heap.pop();  // stale entry, superseded by a later re-arm
      }
      if (wake_heap.empty() || wake_heap.top().first > round) {
        std::uint64_t target = wake_heap.empty()
                                   ? std::numeric_limits<std::uint64_t>::max()
                                   : wake_heap.top().first;
        target = std::min(target, config_.max_rounds);
        if (config_.stall_window != 0) {
          target = std::min(
              target, round + (config_.stall_window - stall_rounds) - 1);
        }
        if (config_.checkpoint.enabled()) {
          const std::uint64_t every = config_.checkpoint.every_rounds;
          target = std::min(target, (round / every + 1) * every);
        }
        if (config_.halt_at_round != 0 && config_.halt_at_round > round) {
          target = std::min(target, config_.halt_at_round);
        }
        if (config_.halt_request != nullptr) {
          target = std::min(target, round + 1024);
        }
        if (target > round) {
          obs::ScopedSpan obs_span(config_.recorder,
                                   obs::Phase::kQuiescenceSkip, round);
          for (std::uint64_t rr = round; rr < target; ++rr) {
            metrics_.rounds = rr;
            if (config_.record_per_round) {
              metrics_.per_round.push_back(RoundStats{});
            }
            if (config_.stall_window != 0) {
              ++stall_rounds;
            }
          }
          round = target;
          continue;  // re-enter the loop top at the first non-empty round
        }
      }
    }

    // Phase 1 (sequential): crash bookkeeping, identical to the legacy
    // engine.  A crashed node freezes: its program does not run (state
    // persists for a crash-restart), it sends nothing, and every message
    // in its mailbox is lost.  Only active nodes can hold mail (every
    // delivery marks its receiver), so clearing crashed mailboxes over all
    // nodes matches the legacy scan message-for-message.
    if (injector) {
      obs::ScopedSpan obs_span(config_.recorder, obs::Phase::kCrashBookkeeping,
                               round);
      for (NodeId v = 0; v < n; ++v) {
        const bool up = injector->node_up(v, round);
        node_up[v] = up ? 1 : 0;
        if (up) {
          continue;
        }
        metrics_.crashed_node_rounds += 1;
        metrics_.dropped_messages += mailboxes[v].size();
        in_flight -= mailboxes[v].size();
        if (config_.trace != nullptr) {
          for (const auto& lost : mailboxes[v]) {
            config_.trace->on_fault(
                FaultEvent{round, lost.from(), v, FaultKind::kReceiverCrash});
          }
        }
        mailboxes[v].clear();
      }
    }

    // Phase 2a (sequential): build this round's active set — the nodes
    // marked by last round's deliveries plus the nodes whose timer wake
    // is due — sorted ascending so contiguous chunks of it preserve the
    // legacy engine's node-id merge order.
    bool consumed_this_round = false;
    {
      obs::ScopedSpan obs_span(config_.recorder, obs::Phase::kActiveSetBuild,
                               round);
      active.clear();
      for (const NodeId v : msg_wake) {
        if (active_stamp[v] == round + 1) {
          active.push_back(v);
        }
      }
      msg_wake.clear();
      while (!wake_heap.empty() && wake_heap.top().first <= round) {
        const auto [wr, v] = wake_heap.top();
        wake_heap.pop();
        if (wake[v] != wr) {
          continue;  // stale entry
        }
        if (active_stamp[v] != round + 1) {
          active_stamp[v] = round + 1;
          active.push_back(v);
        }
      }
      std::sort(active.begin(), active.end());
      if (config_.stall_window != 0) {
        for (const NodeId v : active) {
          if ((!injector || node_up[v] != 0) && !mailboxes[v].empty() &&
              !last_markers[v].has_value()) {
            consumed_this_round = true;
            break;
          }
        }
      }
    }

    // Phase 2b (parallel): run the active nodes.  Each lane executes a
    // contiguous chunk of the sorted active set and flushes bundles into
    // its private arena; small active sets stay on the calling thread so
    // dispatch overhead never dominates a sparse frontier.  The first
    // exception in chunk order is rethrown — the same one a sequential
    // loop would raise.
    for (unsigned lane = 0; lane < lane_count; ++lane) {
      lane_arenas[lane][round & 1].reset();
    }
    if (pool && active.size() >= config_.frontier_min_parallel_nodes) {
      pool->parallel_ranges(active.size(), lane_fn);
    } else if (!active.empty()) {
      run_range(0, 0, active.size());
    }
    in_flight = 0;

    // Phase 3 (sequential): release last round's delayed messages; their
    // receivers become active next round like any other delivery.
    {
      obs::ScopedSpan obs_span(config_.recorder, obs::Phase::kDelayedRelease,
                               round);
      for (const NodeId v : delayed_nodes) {
        if (delayed_pending[v].empty()) {
          continue;  // duplicate entry, already released
        }
        mailboxes[v].swap(delayed_pending[v]);
        delayed_pending[v].clear();
        in_flight += mailboxes[v].size();
        mark(v, round + 1);
      }
      delayed_nodes.clear();
    }

    // Phase 4 (sequential merge): replay lane outboxes in lane order.
    // Chunks are contiguous ranges of the ascending active set, so this
    // visits bundles in exactly the legacy engine's (node id, adjacency
    // index) order for every lane count — the determinism argument of
    // DESIGN.md §13.  The span runs to the end of the iteration, covering
    // the merge and the watchdog bookkeeping.
    obs::ScopedSpan obs_merge_span(config_.recorder, obs::Phase::kMerge,
                                   round);
    RoundStats stats;
    for (unsigned lane = 0; lane < lane_count; ++lane) {
      for (const LaneContext::OutRec& rec : lane_ctxs[lane].outbox()) {
        const NodeId v = rec.from;
        const NodeId to = graph_->neighbors(v)[rec.adj_index];
        const std::uint64_t bits = rec.bits;
        if (config_.bits_per_edge_per_round != 0 &&
            bits > config_.bits_per_edge_per_round) {
          throw CongestViolationError(
              "CONGEST violation: " + std::to_string(bits) + " bits on edge " +
              std::to_string(v) + "->" + std::to_string(to) + " in round " +
              std::to_string(round) + " (budget " +
              std::to_string(config_.bits_per_edge_per_round) + ")");
        }
        stats.physical_messages += 1;
        stats.logical_messages += rec.logical;
        stats.bits += bits;
        stats.max_bits_on_edge = std::max(stats.max_bits_on_edge, bits);
        stats.max_logical_on_edge =
            std::max(stats.max_logical_on_edge, rec.logical);
        if (has_cut_ &&
            cut_flags_[graph_->adjacency_offset(v) + rec.adj_index] != 0) {
          metrics_.cut_bits += bits;
        }
        if (config_.trace != nullptr) {
          config_.trace->on_physical_message(
              TraceEvent{round, v, to, bits, rec.logical});
        }

        bool duplicate = false;
        if (injector) {
          if (!injector->link_up(v, to, round)) {
            metrics_.dropped_messages += 1;
            if (config_.trace != nullptr) {
              config_.trace->on_fault(
                  FaultEvent{round, v, to, FaultKind::kLinkDown});
            }
            continue;
          }
          switch (injector->classify(round, v, to)) {
            case FaultInjector::Delivery::kDrop:
              metrics_.dropped_messages += 1;
              if (config_.trace != nullptr) {
                config_.trace->on_fault(
                    FaultEvent{round, v, to, FaultKind::kDrop});
              }
              continue;
            case FaultInjector::Delivery::kDuplicate:
              metrics_.duplicated_messages += 1;
              if (config_.trace != nullptr) {
                config_.trace->on_fault(
                    FaultEvent{round, v, to, FaultKind::kDuplicate});
              }
              duplicate = true;
              break;  // falls through to the normal delivery below
            case FaultInjector::Delivery::kDelay:
              metrics_.delayed_messages += 1;
              if (config_.trace != nullptr) {
                config_.trace->on_fault(
                    FaultEvent{round, v, to, FaultKind::kDelay});
              }
              // Cold path: the payload outlives the lane arena window, so
              // it gets an owning copy.
              delayed_pending[to].emplace_back(
                  v,
                  std::vector<std::uint8_t>(rec.data,
                                            rec.data + (bits + 7) / 8),
                  bits);
              delayed_nodes.push_back(to);
              in_flight += 1;
              continue;
            case FaultInjector::Delivery::kDeliver:
              break;
          }
        }
        // Hot path: the payload already lives in the lane arena (copied
        // once, in parallel, at flush) — the mailbox takes a view.
        if (duplicate) {
          mailboxes[to].emplace_back(v, rec.data, bits);
          in_flight += 1;
        }
        mailboxes[to].emplace_back(v, rec.data, bits);
        in_flight += 1;
        mark(to, round + 1);
      }
      lane_ctxs[lane].outbox().clear();
    }
    arena_block_allocations_ = 0;
    for (unsigned lane = 0; lane < lane_count; ++lane) {
      arena_block_allocations_ += lane_arenas[lane][0].block_allocations() +
                                  lane_arenas[lane][1].block_allocations();
    }

    metrics_.total_physical_messages += stats.physical_messages;
    metrics_.total_logical_messages += stats.logical_messages;
    metrics_.total_bits += stats.bits;
    metrics_.max_bits_on_edge_round =
        std::max(metrics_.max_bits_on_edge_round, stats.max_bits_on_edge);
    metrics_.max_logical_on_edge_round =
        std::max(metrics_.max_logical_on_edge_round, stats.max_logical_on_edge);
    if (config_.record_per_round) {
      metrics_.per_round.push_back(stats);
    }

    // Sequential post-pass over the nodes that ran: re-arm their timer
    // wakes and fold their done()/marker deltas into the watchdog state.
    // A crashed active node is retried next round — a conservative
    // over-approximation (the contract makes unneeded runs no-ops).
    bool marker_advanced = false;
    for (const NodeId v : active) {
      if (injector && node_up[v] == 0) {
        wake[v] = round + 1;
        wake_heap.emplace(round + 1, v);
        continue;
      }
      arm_wake(v, round + 1);
      const std::uint8_t d = programs[v]->done() ? 1 : 0;
      if (d != done_flags[v]) {
        done_flags[v] = d;
        if (d != 0) {
          ++done_count;
        } else {
          --done_count;
        }
      }
      if (config_.stall_window != 0) {
        const auto marker = programs[v]->progress_marker();
        if (marker != last_markers[v]) {
          marker_advanced = true;
          last_markers[v] = marker;
        }
      }
    }

    if (config_.stall_window != 0) {
      const bool progress = consumed_this_round || marker_advanced ||
                            done_count != last_done_count;
      last_done_count = done_count;
      if (progress) {
        stall_rounds = 0;
      } else if (++stall_rounds >= config_.stall_window) {
        throw StallError(
            "network stalled: no message in flight and no program finished "
            "for " +
            std::to_string(stall_rounds) + " consecutive rounds (round " +
            std::to_string(round) + ", " + std::to_string(done_count) + "/" +
            std::to_string(n) +
            " nodes done) — suspect message loss, a crash-partition, or a "
            "protocol deadlock");
      }
    }
    ++round;
  }
}

RunMetrics Network::run_legacy(
    std::vector<std::unique_ptr<NodeProgram>>& programs) {
  const NodeId n = graph_->num_nodes();
  CBC_EXPECTS(programs.size() == n, "one program per node required");
  std::vector<LegacyContext> contexts;
  contexts.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    CBC_EXPECTS(programs[v] != nullptr, "null program");
    contexts.emplace_back(*graph_, v);
  }

  std::optional<FaultInjector> injector;
  if (config_.faults != nullptr && !config_.faults->empty()) {
    injector.emplace(*config_.faults, *graph_);
  }

  metrics_ = RunMetrics{};
  arena_block_allocations_ = 0;
  std::vector<std::vector<InboundMessage>> mailboxes(n);
  std::vector<std::vector<InboundMessage>> delayed_pending(n);
  bool messages_in_flight = false;

  std::uint64_t stall_rounds = 0;
  const std::uint64_t start_round =
      apply_pending_resume(mailboxes, delayed_pending, programs, stall_rounds);
  for (NodeId v = 0; v < n; ++v) {
    if (!mailboxes[v].empty() || !delayed_pending[v].empty()) {
      messages_in_flight = true;
      break;
    }
  }

  std::size_t last_done_count = 0;
  std::vector<std::optional<std::uint64_t>> last_markers;
  if (config_.stall_window != 0) {
    last_markers.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      last_markers.push_back(programs[v]->progress_marker());
    }
    if (start_round != 0) {
      last_done_count = static_cast<std::size_t>(
          std::count_if(programs.begin(), programs.end(),
                        [](const auto& p) { return p->done(); }));
    }
  }

  for (std::uint64_t round = start_round;; ++round) {
    metrics_.rounds = round;  // kept current so a throw reports progress
    if (round >= config_.max_rounds) {
      throw RoundLimitError("simulation exceeded max_rounds = " +
                            std::to_string(config_.max_rounds));
    }

    if (!messages_in_flight) {
      const bool all_done =
          std::all_of(programs.begin(), programs.end(),
                      [](const auto& p) { return p->done(); });
      if (all_done) {
        metrics_.rounds = round;
        return metrics_;
      }
    }

    if (checkpoint_or_halt(round, start_round, stall_rounds, mailboxes,
                           delayed_pending, programs)) {
      return metrics_;  // suspended; save_snapshot() has the state
    }

    // The legacy engine is sequential, so one whole-round span is its
    // flight-recorder granularity.
    obs::ScopedSpan obs_round_span(config_.recorder, obs::Phase::kRound,
                                   round);

    bool consumed_this_round = false;
    for (NodeId v = 0; v < n; ++v) {
      const bool up = !injector || injector->node_up(v, round);
      if (up) {
        if (config_.stall_window != 0 && !mailboxes[v].empty() &&
            !last_markers[v].has_value()) {
          consumed_this_round = true;
        }
        contexts[v].begin_round(round, std::move(mailboxes[v]));
        mailboxes[v].clear();
        programs[v]->on_round(contexts[v]);
        continue;
      }
      metrics_.crashed_node_rounds += 1;
      metrics_.dropped_messages += mailboxes[v].size();
      if (config_.trace != nullptr) {
        for (const auto& lost : mailboxes[v]) {
          config_.trace->on_fault(
              FaultEvent{round, lost.from(), v, FaultKind::kReceiverCrash});
        }
      }
      mailboxes[v].clear();
      contexts[v].begin_round(round, {});  // clears any stale outbox
    }

    for (NodeId v = 0; v < n; ++v) {
      if (!delayed_pending[v].empty()) {
        mailboxes[v] = std::move(delayed_pending[v]);
        delayed_pending[v].clear();
      }
    }

    RoundStats stats;
    for (NodeId v = 0; v < n; ++v) {
      auto& outbox = contexts[v].outbox();
      if (outbox.empty()) {
        continue;
      }
      // Group logical sends by destination, preserving send order.
      std::stable_sort(outbox.begin(), outbox.end(),
                       [](const PendingSend& x, const PendingSend& y) {
                         return x.to < y.to;
                       });
      std::size_t i = 0;
      while (i < outbox.size()) {
        const NodeId to = outbox[i].to;
        BitWriter bundle;
        std::uint64_t logical = 0;
        while (i < outbox.size() && outbox[i].to == to) {
          append_bits(bundle, outbox[i].bytes, outbox[i].bits);
          ++logical;
          ++i;
        }
        const std::uint64_t bits = bundle.bit_size();
        if (config_.bits_per_edge_per_round != 0 &&
            bits > config_.bits_per_edge_per_round) {
          throw CongestViolationError(
              "CONGEST violation: " + std::to_string(bits) + " bits on edge " +
              std::to_string(v) + "->" + std::to_string(to) + " in round " +
              std::to_string(round) + " (budget " +
              std::to_string(config_.bits_per_edge_per_round) + ")");
        }
        stats.physical_messages += 1;
        stats.logical_messages += logical;
        stats.bits += bits;
        stats.max_bits_on_edge = std::max(stats.max_bits_on_edge, bits);
        stats.max_logical_on_edge = std::max(stats.max_logical_on_edge, logical);
        if (has_cut_ &&
            cut_flags_[graph_->adjacency_offset(v) +
                       graph_->neighbor_index(v, to)] != 0) {
          metrics_.cut_bits += bits;
        }
        if (config_.trace != nullptr) {
          config_.trace->on_physical_message(
              TraceEvent{round, v, to, bits, logical});
        }

        if (injector) {
          if (!injector->link_up(v, to, round)) {
            metrics_.dropped_messages += 1;
            if (config_.trace != nullptr) {
              config_.trace->on_fault(
                  FaultEvent{round, v, to, FaultKind::kLinkDown});
            }
            continue;
          }
          switch (injector->classify(round, v, to)) {
            case FaultInjector::Delivery::kDrop:
              metrics_.dropped_messages += 1;
              if (config_.trace != nullptr) {
                config_.trace->on_fault(
                    FaultEvent{round, v, to, FaultKind::kDrop});
              }
              continue;
            case FaultInjector::Delivery::kDuplicate:
              metrics_.duplicated_messages += 1;
              if (config_.trace != nullptr) {
                config_.trace->on_fault(
                    FaultEvent{round, v, to, FaultKind::kDuplicate});
              }
              mailboxes[to].emplace_back(v, bundle.bytes(), bundle.bit_size());
              break;  // falls through to the normal delivery below
            case FaultInjector::Delivery::kDelay:
              metrics_.delayed_messages += 1;
              if (config_.trace != nullptr) {
                config_.trace->on_fault(
                    FaultEvent{round, v, to, FaultKind::kDelay});
              }
              delayed_pending[to].emplace_back(v, bundle.bytes(),
                                               bundle.bit_size());
              continue;
            case FaultInjector::Delivery::kDeliver:
              break;
          }
        }
        mailboxes[to].emplace_back(v, bundle.bytes(), bundle.bit_size());
      }
    }

    metrics_.total_physical_messages += stats.physical_messages;
    metrics_.total_logical_messages += stats.logical_messages;
    metrics_.total_bits += stats.bits;
    metrics_.max_bits_on_edge_round =
        std::max(metrics_.max_bits_on_edge_round, stats.max_bits_on_edge);
    metrics_.max_logical_on_edge_round =
        std::max(metrics_.max_logical_on_edge_round, stats.max_logical_on_edge);
    if (config_.record_per_round) {
      metrics_.per_round.push_back(stats);
    }

    messages_in_flight = false;
    for (NodeId v = 0; v < n; ++v) {
      if (!mailboxes[v].empty() || !delayed_pending[v].empty()) {
        messages_in_flight = true;
        break;
      }
    }

    if (config_.stall_window != 0) {
      const auto done_count = static_cast<std::size_t>(
          std::count_if(programs.begin(), programs.end(),
                        [](const auto& p) { return p->done(); }));
      bool marker_advanced = false;
      for (NodeId v = 0; v < n; ++v) {
        const auto marker = programs[v]->progress_marker();
        if (marker != last_markers[v]) {
          marker_advanced = true;
          last_markers[v] = marker;
        }
      }
      const bool progress = consumed_this_round || marker_advanced ||
                            done_count != last_done_count;
      last_done_count = done_count;
      if (progress) {
        stall_rounds = 0;
      } else if (++stall_rounds >= config_.stall_window) {
        throw StallError(
            "network stalled: no message in flight and no program finished "
            "for " +
            std::to_string(stall_rounds) + " consecutive rounds (round " +
            std::to_string(round) + ", " + std::to_string(done_count) + "/" +
            std::to_string(n) +
            " nodes done) — suspect message loss, a crash-partition, or a "
            "protocol deadlock");
      }
    }
  }
}

}  // namespace congestbc
