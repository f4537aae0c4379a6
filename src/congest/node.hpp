// Node-side programming model of the CONGEST simulator.
//
// A NodeProgram is the code running on one network node.  Its world view
// is deliberately narrow, matching the model in the paper's Section III:
//   * its own id and its neighbors' ids;
//   * the total node count N (standard CONGEST assumption; it fixes the
//     O(log N) field widths);
//   * the synchronized round number;
//   * the messages that arrived at the start of the round.
// It must NOT inspect the global graph — all global information has to be
// learned through messages.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bit_io.hpp"
#include "graph/graph.hpp"

namespace congestbc {

/// A delivered message: sender plus bit-exact payload.  Two storage
/// modes share one type: the simulator's hot path delivers *views* into
/// per-round arena memory (congest/arena.hpp) that outlives the message
/// by construction, while the owning form copies the bytes — used where a
/// payload must survive past the round (the delay-fault parking buffer,
/// the reliable transport's reassembled batches, the legacy engine).
class InboundMessage {
 public:
  InboundMessage() = default;

  /// Owning: the message keeps the bytes alive itself.
  InboundMessage(NodeId from, std::vector<std::uint8_t> bytes,
                 std::size_t bits)
      : from_(from), owned_(std::move(bytes)), bits_(bits) {}

  /// Non-owning view; `data` must stay valid until the message is read
  /// (the simulator guarantees one full round).
  InboundMessage(NodeId from, const std::uint8_t* data, std::size_t bits)
      : from_(from), data_(data), bits_(bits) {}

  NodeId from() const { return from_; }
  std::size_t bit_size() const { return bits_; }

  /// A fresh reader positioned at the start of the payload.
  BitReader reader() const {
    return BitReader(data_ != nullptr ? data_ : owned_.data(), bits_);
  }

  /// Turns a view into the owning form (a no-op on an owning message).
  void own() {
    if (data_ != nullptr) {
      owned_.assign(data_, data_ + (bits_ + 7) / 8);
      data_ = nullptr;
    }
  }

  /// The snapshot layout of a pending message (the engine section,
  /// congest/network.cpp): sender, then the payload as a bit block.
  /// Saving needs the owning form (own()); loading builds it.
  template <class IO, class Self>
    requires std::same_as<std::remove_const_t<Self>, InboundMessage>
  friend void walk(IO io, Self& message) {
    io.varuint(message.from_);
    io.block(message.owned_, message.bits_, "message");
  }

 private:
  NodeId from_ = 0;
  std::vector<std::uint8_t> owned_;       // empty in view mode
  const std::uint8_t* data_ = nullptr;    // null in owning mode
  std::size_t bits_ = 0;
};

/// The per-round window a program sees (provided by the Network).
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  virtual NodeId id() const = 0;
  virtual std::uint32_t num_nodes() const = 0;
  virtual std::span<const NodeId> neighbors() const = 0;
  virtual std::uint64_t round() const = 0;
  virtual const std::vector<InboundMessage>& inbox() const = 0;

  /// Queues a logical message to a neighbor; it arrives at the start of
  /// the next round.  Logical messages to the same neighbor in the same
  /// round are bundled into one physical message (DESIGN.md D3); the
  /// simulator accounts bits and logical counts per (edge, round).
  virtual void send(NodeId neighbor, const BitWriter& payload) = 0;
};

/// next_active_round(): the program will act at the next round the engine
/// asks about — the conservative default that keeps every program correct
/// under the frontier engine (the node is simply scheduled every round).
inline constexpr std::uint64_t kActiveEveryRound = 0;

/// next_active_round(): the program is purely reactive — it changes state
/// or sends only in rounds where its inbox is non-empty, so the engine
/// need not run it until a message arrives.
inline constexpr std::uint64_t kActiveOnMessage = ~std::uint64_t{0};

/// Code running on one node.  `on_round` is invoked with that round's
/// inbox — possibly concurrently across nodes (NetworkConfig::threads):
/// nodes in one round are independent in the CONGEST model, so a program
/// must only touch its own state and its NodeContext, never anything
/// shared.  Delivery and all accounting stay sequential in node-id order,
/// so results are identical either way.  The legacy reference engine
/// runs every node every round; the frontier engine runs a node only in
/// rounds where it has mail or where next_active_round() said it might
/// act — identical observable behavior, because a skipped round is one
/// the program itself declared a no-op.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// One synchronous round: read ctx.inbox(), update state, ctx.send(...).
  virtual void on_round(NodeContext& ctx) = 0;

  /// Frontier-scheduling contract: the earliest round >= `from` in which
  /// this node might change state or send *without receiving a message*
  /// (a pending timer, a scheduled send, a bootstrap).  Rounds before the
  /// returned value with an empty inbox are guaranteed no-ops, so the
  /// engine may skip them; message arrival always wakes a node regardless.
  /// Return kActiveOnMessage when no such spontaneous action is pending,
  /// or kActiveEveryRound (the default) to opt out of sparse scheduling
  /// entirely.  Over-approximating (waking too often) is always safe;
  /// under-approximating breaks the run.
  virtual std::uint64_t next_active_round(std::uint64_t from) const {
    (void)from;
    return kActiveEveryRound;
  }

  /// Local termination flag; the simulation stops once every node is done
  /// and no messages are in flight.  (Distributed termination *detection*
  /// is the algorithms' own responsibility — see the phase switch in
  /// algo/ — this flag only lets the harness stop the clock.)
  virtual bool done() const = 0;

  /// Stall-watchdog hook (NetworkConfig::stall_window).  Default nullopt:
  /// the watchdog counts every message this node consumes as progress —
  /// right for ordinary programs, whose traffic is all payload.  A
  /// program that emits control chatter regardless of progress (the
  /// reliable transport retransmitting into a dead peer forever) must
  /// instead return a counter that changes exactly when it makes semantic
  /// progress; returning a value also opts the node out of the
  /// consumption fallback.
  virtual std::optional<std::uint64_t> progress_marker() const {
    return std::nullopt;
  }
};

}  // namespace congestbc
