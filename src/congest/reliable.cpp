#include "congest/reliable.hpp"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/bit_io.hpp"
#include "congest/network.hpp"
#include "snapshot/field_walk.hpp"

namespace congestbc {

std::uint64_t reliable_header_bits(std::uint64_t inner_budget_bits,
                                   std::uint64_t max_inner_rounds) {
  // Three round-scale varuints (ack, produced, seq; seq can run two past
  // the inner round count after a done-node jump), three flag bits, and
  // the payload-length varuint.
  const std::uint64_t counter_bits = 6 + bit_width_u64(max_inner_rounds + 2);
  return 3 * counter_bits + 3 + (6 + bit_width_u64(inner_budget_bits));
}

std::uint64_t reliable_budget_bits(std::uint64_t inner_budget_bits,
                                   std::uint64_t max_inner_rounds) {
  return inner_budget_bits +
         reliable_header_bits(inner_budget_bits, max_inner_rounds);
}

/// The context the inner program sees: inner round numbering, the
/// synchronizer-assembled inbox, and sends captured as per-neighbor
/// batches (concatenated in send order, exactly like the simulator's
/// bundling).
class ReliableProgram::InnerContext final : public NodeContext {
 public:
  struct OutBatchBuffer {
    NodeId to = 0;
    BitWriter writer;
    bool sent = false;  ///< true even for zero-bit sends (presence matters)
  };

  InnerContext(const NodeContext& outer, std::uint64_t round,
               std::vector<InboundMessage> inbox,
               const std::vector<PeerState>& peers)
      : outer_(&outer), round_(round), inbox_(std::move(inbox)) {
    out_.reserve(peers.size());
    for (const auto& p : peers) {
      out_.push_back(OutBatchBuffer{p.id, BitWriter{}, false});
    }
  }

  NodeId id() const override { return outer_->id(); }
  std::uint32_t num_nodes() const override { return outer_->num_nodes(); }
  std::span<const NodeId> neighbors() const override {
    return outer_->neighbors();
  }
  std::uint64_t round() const override { return round_; }
  const std::vector<InboundMessage>& inbox() const override { return inbox_; }

  void send(NodeId neighbor, const BitWriter& payload) override {
    const auto it = std::lower_bound(
        out_.begin(), out_.end(), neighbor,
        [](const OutBatchBuffer& b, NodeId id) { return b.to < id; });
    CBC_EXPECTS(it != out_.end() && it->to == neighbor,
                "node tried to send to a non-neighbor");
    append_bits(it->writer, payload.bytes(), payload.bit_size());
    it->sent = true;
  }

  std::vector<OutBatchBuffer>& out() { return out_; }

 private:
  const NodeContext* outer_;
  std::uint64_t round_;
  std::vector<InboundMessage> inbox_;
  std::vector<OutBatchBuffer> out_;  // sorted by `to` (peers_ is sorted)
};

ReliableProgram::ReliableProgram(std::unique_ptr<NodeProgram> inner,
                                 std::uint64_t inner_budget_bits)
    : inner_(std::move(inner)), inner_budget_bits_(inner_budget_bits) {
  CBC_EXPECTS(inner_ != nullptr, "ReliableProgram needs an inner program");
}

ReliableProgram::~ReliableProgram() = default;

bool ReliableProgram::done() const { return inner_->done(); }

void ReliableProgram::init_peers(const NodeContext& ctx) {
  const auto neighbors = ctx.neighbors();
  peers_.reserve(neighbors.size());
  for (const NodeId v : neighbors) {
    PeerState p;
    p.id = v;
    peers_.push_back(std::move(p));
  }
  std::sort(peers_.begin(), peers_.end(),
            [](const PeerState& a, const PeerState& b) { return a.id < b.id; });
  initialized_ = true;
}

ReliableProgram::PeerState* ReliableProgram::find_peer(NodeId id) {
  const auto it = std::lower_bound(
      peers_.begin(), peers_.end(), id,
      [](const PeerState& p, NodeId v) { return p.id < v; });
  if (it == peers_.end() || it->id != id) {
    return nullptr;
  }
  return &*it;
}

bool ReliableProgram::knows_all_through(const PeerState& p,
                                        std::uint64_t index) const {
  // Knowledge is a contiguous prefix plus (once the peer is quiet) the
  // infinite empty tail from peer_produced on.  When the prefix reaches
  // peer_produced the two regions join and everything is known.
  if (index < p.known_prefix) {
    return true;
  }
  return p.peer_quiet && p.known_prefix >= p.peer_produced;
}

bool ReliableProgram::terminal_with(const PeerState& p) const {
  // Nothing left to say (done, all our batches acked) and nothing left to
  // learn (the peer is done and we know its complete production).
  return quiet_ && p.unacked.empty() && p.peer_quiet &&
         p.known_prefix >= p.peer_produced;
}

void ReliableProgram::parse_frame(PeerState& p,
                                  const InboundMessage& message) {
  BitReader reader = message.reader();
  const std::uint64_t ack = reader.read_varuint();
  const std::uint64_t produced = reader.read_varuint();
  const bool peer_quiet = reader.read_bool();
  const bool satisfied = reader.read_bool();
  const bool has_batch = reader.read_bool();

  // Every update is a monotone max / latch, so duplicated and delayed
  // (reordered) frames are harmless.
  p.acked = std::max(p.acked, ack);
  while (!p.unacked.empty() && p.unacked.front().seq < p.acked) {
    p.unacked.pop_front();
  }
  p.peer_produced = std::max(p.peer_produced, produced);
  p.peer_quiet = p.peer_quiet || peer_quiet;

  if (has_batch) {
    const std::uint64_t seq = reader.read_varuint();
    const std::uint64_t bits = reader.read_varuint();
    BitWriter payload;
    payload.reserve_bits(bits);
    std::uint64_t remaining = bits;
    while (remaining > 0) {
      const unsigned chunk =
          remaining >= 64 ? 64u : static_cast<unsigned>(remaining);
      payload.write(reader.read(chunk), chunk);
      remaining -= chunk;
    }
    // Stop-and-wait frontier: transmitting seq proves every non-empty
    // batch below it was already acked, so all unseen ones are empty.
    p.known_prefix = std::max(p.known_prefix, seq + 1);
    // Batch seq feeds inner round seq+1; stash unless already consumed.
    if (seq + 2 > executed_ && p.stored.count(seq) == 0) {
      p.stored.emplace(seq,
                       std::make_pair(payload.bytes(), payload.bit_size()));
    }
  } else {
    p.known_prefix = std::max(p.known_prefix, produced);
  }

  p.polled_needy = p.polled_needy || !satisfied;
}

void ReliableProgram::maybe_execute_inner_round(const NodeContext& ctx) {
  std::uint64_t round_to_run = 0;
  if (!quiet_) {
    // Sequential mode: run the next inner round once every neighbor's
    // previous batch is known.
    round_to_run = executed_;
    if (round_to_run > 0) {
      for (const auto& p : peers_) {
        if (!knows_all_through(p, round_to_run - 1)) {
          return;
        }
      }
    }
  } else {
    // Quiet mode: the inner program is done and sends nothing, so empty
    // inner rounds are skipped wholesale; only an explicit batch from a
    // still-working neighbor warrants running it again (a done program
    // treats it as a no-op, but the real network would deliver it too).
    bool have = false;
    std::uint64_t oldest = 0;
    for (const auto& p : peers_) {
      if (!p.stored.empty()) {
        const std::uint64_t s = p.stored.begin()->first;
        if (!have || s < oldest) {
          have = true;
          oldest = s;
        }
      }
    }
    if (!have) {
      return;
    }
    for (const auto& p : peers_) {
      if (!knows_all_through(p, oldest)) {
        return;
      }
    }
    round_to_run = oldest + 1;
  }

  std::vector<InboundMessage> inbox;
  inbox.reserve(peers_.size());
  if (round_to_run > 0) {
    const std::uint64_t idx = round_to_run - 1;
    for (auto& p : peers_) {  // peers_ sorted by id == simulator inbox order
      const auto it = p.stored.find(idx);
      if (it != p.stored.end()) {
        inbox.emplace_back(p.id, it->second.first, it->second.second);
        p.stored.erase(it);
      }
    }
  }

  const bool was_quiet = quiet_;
  InnerContext inner_ctx(ctx, round_to_run, std::move(inbox), peers_);
  inner_->on_round(inner_ctx);
  executed_ = round_to_run + 1;
  quiet_ = quiet_ || inner_->done();

  auto& out = inner_ctx.out();
  for (std::size_t i = 0; i < out.size(); ++i) {
    auto& buffer = out[i];
    if (!buffer.sent) {
      continue;
    }
    CBC_CHECK(!was_quiet,
              "reliable transport contract violated: inner program sent a "
              "message after done()");
    const std::uint64_t bits = buffer.writer.bit_size();
    if (inner_budget_bits_ != 0 && bits > inner_budget_bits_) {
      throw CongestViolationError(
          "CONGEST violation (inner): " + std::to_string(bits) +
          " bits on edge " + std::to_string(ctx.id()) + "->" +
          std::to_string(buffer.to) + " in inner round " +
          std::to_string(round_to_run) + " (budget " +
          std::to_string(inner_budget_bits_) + ")");
    }
    peers_[i].unacked.push_back(OutBatch{round_to_run, buffer.writer.bytes(),
                                         bits, false});
  }
}

void ReliableProgram::send_frames(NodeContext& ctx) {
  for (auto& p : peers_) {
    const bool terminal = terminal_with(p);
    const bool respond = p.polled_needy;
    p.polled_needy = false;
    if (terminal && !respond) {
      continue;
    }
    BitWriter frame;
    // Header (three varuints + flags) is < 160 bits; sizing up front keeps
    // frame assembly reallocation-free even with the payload batch.
    frame.reserve_bits(160 + (p.unacked.empty() ? 0 : p.unacked.front().bits));
    frame.write_varuint(p.known_prefix);
    frame.write_varuint(executed_);
    frame.write_bool(quiet_);
    frame.write_bool(terminal);  // the `satisfied` bit
    const bool has_batch = !p.unacked.empty();
    frame.write_bool(has_batch);
    if (has_batch) {
      auto& batch = p.unacked.front();
      if (batch.transmitted) {
        ++retransmissions_;
      }
      batch.transmitted = true;
      frame.write_varuint(batch.seq);
      frame.write_varuint(batch.bits);
      append_bits(frame, batch.bytes, batch.bits);
    }
    ctx.send(p.id, frame);
  }
}

void ReliableProgram::on_round(NodeContext& ctx) {
  if (!initialized_) {
    init_peers(ctx);
  }
  for (const auto& message : ctx.inbox()) {
    PeerState* peer = find_peer(message.from());
    CBC_CHECK(peer != nullptr, "reliable frame from non-neighbor");
    parse_frame(*peer, message);
  }
  maybe_execute_inner_round(ctx);
  send_frames(ctx);
}

template <class IO, class Self>
void ReliableProgram::walk(IO io, Self& self) {
  io.flag(self.initialized_);
  io.flag(self.quiet_);
  io.varuint(self.executed_);
  io.varuint(self.retransmissions_);
  io.length(20, self.peers_);
  for (auto& p : self.peers_) {
    io.varuint(p.id);
    io.varuint(p.known_prefix);
    io.varuint(p.peer_produced);
    io.flag(p.peer_quiet);
    io.entries(
        14, p.stored,
        [io](auto& seq, auto& batch) mutable {
          io.varuint(seq);
          io.block(batch.first, batch.second, "stored batch");
        },
        "snapshot stores one reliable-transport batch twice");
    io.length(15, p.unacked);
    for (auto& batch : p.unacked) {
      io.varuint(batch.seq);
      io.block(batch.bytes, batch.bits, "unacked batch");
      io.flag(batch.transmitted);
    }
    io.varuint(p.acked);
    io.flag(p.polled_needy);
  }
  auto* inner = dynamic_cast<std::conditional_t<
      std::is_const_v<Self>, const Snapshottable*, Snapshottable*>>(
      self.inner_.get());
  if (inner == nullptr) {
    throw SnapshotError(
        "cannot snapshot: the program wrapped by ReliableProgram does not "
        "implement Snapshottable");
  }
  io.nested(*inner, "inner-program");
}

void ReliableProgram::save_state(BitWriter& w) const {
  fields::Writer io(w);
  walk(io, *this);
}

void ReliableProgram::load_state(BitReader& r) {
  fields::Reader<fields::SnapshotFail> io(r);
  walk(io, *this);
}

}  // namespace congestbc
