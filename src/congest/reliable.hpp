// Self-healing transport: exact synchronous semantics over a faulty link
// layer (congest/fault.hpp).
//
// ReliableProgram wraps any NodeProgram in a per-edge synchronizer with
// sequence numbers, cumulative acks, and stop-and-wait retransmission.
// The wrapped ("inner") program executes *inner rounds*: inner round k is
// run only once the batch every neighbor produced in inner round k-1 is
// known — either received explicitly or provably empty.  Because each
// node's inner execution therefore sees exactly the inboxes of the
// fault-free synchronous run, the inner results are bit-for-bit identical
// to a run without faults, whatever the drop/duplicate/delay pattern
// (the classic alpha-synchronizer argument).  Crashes and permanent link
// cuts are *not* masked — they stall the synchronizer, which is what the
// watchdog (NetworkConfig::stall_window) is for.
//
// Frame layout, sent on an edge each outer round (all through the normal
// BitWriter path, so CONGEST accounting applies):
//
//   ack        varuint  count of the peer's batches we contiguously know
//   produced   varuint  number of inner rounds we have executed
//   quiet      1 bit    our inner program is done(): every batch we
//                       produce from `produced` on is empty, forever
//   satisfied  1 bit    we need nothing more from the peer (terminal)
//   has_batch  1 bit    a payload batch follows
//   [seq]      varuint  batch index = inner round that produced it
//   [bits]     varuint  payload length in bits
//   [payload]  `bits` bits, the bundled logical sends of that inner round
//
// The frontier rule makes empty batches free: a frame's frontier is
// `seq` when it carries a batch and `produced` otherwise, and every batch
// below the frontier that was never received explicitly is empty.  This
// is sound because the sender retransmits its *oldest* unacked non-empty
// batch until the cumulative ack passes it, so transmitting seq s proves
// all non-empty batches below s were already acked.
//
// Liveness without chatter: a node sends a frame to each neighbor every
// outer round until it is terminal with that neighbor (nothing left to
// say or learn); a terminal node still answers frames whose `satisfied`
// bit is clear, so a lagging peer can always pull the final state.
//
// Contract required of the inner program: once done() returns true it
// never sends again (violations throw InvariantError).  Both BcProgram
// (all nodes finish at the same global finalize round) and the test
// programs satisfy this.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "congest/node.hpp"
#include "snapshot/snapshottable.hpp"

namespace congestbc {

/// Worst-case frame overhead on top of the inner payload, in bits, when
/// the inner program runs at most `max_inner_rounds` inner rounds under a
/// per-edge budget of `inner_budget_bits`.
std::uint64_t reliable_header_bits(std::uint64_t inner_budget_bits,
                                   std::uint64_t max_inner_rounds);

/// The outer per-edge-per-round budget that admits any inner program
/// legal under `inner_budget_bits`: inner budget plus frame overhead.
std::uint64_t reliable_budget_bits(std::uint64_t inner_budget_bits,
                                   std::uint64_t max_inner_rounds);

/// NodeProgram decorator adding the reliable transport.  Construct one
/// per node, each wrapping that node's inner program.
class ReliableProgram final : public NodeProgram, public Snapshottable {
 public:
  /// `inner_budget_bits` is the CONGEST budget the inner program was
  /// written against; each produced batch is checked against it
  /// (CongestViolationError), mirroring the fault-free simulator.
  /// 0 disables the check.
  explicit ReliableProgram(std::unique_ptr<NodeProgram> inner,
                           std::uint64_t inner_budget_bits = 0);
  ~ReliableProgram() override;

  void on_round(NodeContext& ctx) override;
  bool done() const override;

  /// Checkpoint support: one walk (reliable.cpp) covers the complete
  /// synchronizer state — per-peer ARQ windows (stored batches, unacked
  /// queue, cumulative acks), the alpha-synchronizer counters
  /// (executed/quiet), and the wrapped inner program as a nested
  /// length-prefixed blob (decorator convention,
  /// snapshot/snapshottable.hpp).  The inner program must itself be
  /// Snapshottable; a load rejects a batch stored twice.
  void save_state(BitWriter& w) const override;
  void load_state(BitReader& r) override;

  /// Watchdog hook: semantic progress is inner rounds executed, not the
  /// frame chatter — retransmitting into a dead peer is not progress.
  std::optional<std::uint64_t> progress_marker() const override {
    return executed_;
  }

  NodeProgram& inner() { return *inner_; }
  const NodeProgram& inner() const { return *inner_; }

  /// Inner rounds executed so far (== the fault-free round count once the
  /// run completes).
  std::uint64_t inner_rounds() const { return executed_; }

  /// Batch transmissions beyond the first attempt — the direct cost of
  /// message loss.
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  /// A produced, not-yet-acked batch (stop-and-wait: only the front of
  /// the queue is on the wire).
  struct OutBatch {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;
    std::size_t bits = 0;
    bool transmitted = false;
  };

  /// Everything we track about one neighbor.
  struct PeerState {
    NodeId id = 0;
    // What we know about the peer's production.
    std::uint64_t known_prefix = 0;  ///< batches [0, known_prefix) known
    std::uint64_t peer_produced = 0;
    bool peer_quiet = false;
    /// Explicit batches received but not yet consumed, by seq.
    std::map<std::uint64_t, std::pair<std::vector<std::uint8_t>, std::size_t>>
        stored;
    // Our traffic toward the peer.
    std::deque<OutBatch> unacked;
    std::uint64_t acked = 0;  ///< peer's cumulative ack of our batches
    /// A frame with a clear `satisfied` bit arrived this outer round —
    /// the peer still needs something, so answer even if terminal.
    bool polled_needy = false;
  };

  class InnerContext;

  void init_peers(const NodeContext& ctx);
  PeerState* find_peer(NodeId id);
  /// True when every batch of `p` with index <= `index` is known.
  bool knows_all_through(const PeerState& p, std::uint64_t index) const;
  bool terminal_with(const PeerState& p) const;
  void parse_frame(PeerState& p, const InboundMessage& message);
  void maybe_execute_inner_round(const NodeContext& ctx);
  void send_frames(NodeContext& ctx);
  /// The snapshot layout (Self = [const] ReliableProgram).
  template <class IO, class Self>
  static void walk(IO io, Self& self);

  std::unique_ptr<NodeProgram> inner_;
  std::uint64_t inner_budget_bits_;
  bool initialized_ = false;
  bool quiet_ = false;          ///< inner done() latched
  std::uint64_t executed_ = 0;  ///< inner rounds run so far
  std::uint64_t retransmissions_ = 0;
  std::vector<PeerState> peers_;  // sorted by neighbor id
};

}  // namespace congestbc
