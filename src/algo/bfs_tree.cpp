#include "algo/bfs_tree.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "snapshot/field_walk.hpp"

namespace congestbc {

void parse_inbox(const NodeContext& ctx, const WireFormat& fmt,
                 std::vector<ParsedMsg>& out) {
  out.clear();
  for (const auto& inbound : ctx.inbox()) {
    BitReader reader = inbound.reader();
    while (reader.remaining() > 0) {
      ParsedMsg msg;
      msg.from = inbound.from();
      switch (read_kind(reader)) {
        case MsgKind::kTreeWave:
          msg.body = decode_tree_wave(reader, fmt);
          break;
        case MsgKind::kParentAccept:
          msg.body = ParentAcceptMsg{};
          break;
        case MsgKind::kSubtreeUp:
          msg.body = decode_subtree_up(reader, fmt);
          break;
        case MsgKind::kDfsToken:
          msg.body = decode_dfs_token(reader, fmt);
          break;
        case MsgKind::kWave:
          msg.body = decode_wave(reader, fmt);
          break;
        case MsgKind::kEccUp:
          msg.body = decode_ecc_up(reader, fmt);
          break;
        case MsgKind::kPhaseDown:
          msg.body = decode_phase_down(reader, fmt);
          break;
        case MsgKind::kAgg:
          msg.body = decode_agg(reader, fmt);
          break;
        case MsgKind::kEdgeCount:
          msg.body = decode_edge_count(reader, fmt);
          break;
        case MsgKind::kEdgeItem:
          msg.body = decode_edge_item(reader, fmt);
          break;
        case MsgKind::kResult:
          msg.body = decode_result(reader, fmt);
          break;
      }
      out.push_back(std::move(msg));
    }
  }
}

void TreeBuilder::on_round(NodeContext& ctx, const std::vector<ParsedMsg>& msgs) {
  bool adopted_this_round = false;

  // Root bootstrap in its very first round.
  if (!started_ && is_root()) {
    started_ = true;
    has_dist_ = true;
    dist_ = 0;
    parent_ = id_;
    wave_round_ = ctx.round();
    BitWriter wave;
    encode(wave, *fmt_, TreeWaveMsg{dist_});
    for (const NodeId nbr : ctx.neighbors()) {
      ctx.send(nbr, wave);
    }
  }

  for (const auto& msg : msgs) {
    if (const auto* wave = std::get_if<TreeWaveMsg>(&msg.body)) {
      if (!has_dist_) {
        // All first-contact waves arrive in this same round with the same
        // dist; pick the smallest-id sender as parent (deterministic).
        if (!adopted_this_round || msg.from < parent_) {
          parent_ = msg.from;
        }
        dist_ = wave->dist + 1;
        adopted_this_round = true;
      }
    } else if (std::get_if<ParentAcceptMsg>(&msg.body) != nullptr) {
      CBC_CHECK(has_dist_ && !children_final_,
                "ParentAccept outside the expected window");
      children_.push_back(msg.from);
    } else if (const auto* up = std::get_if<SubtreeUpMsg>(&msg.body)) {
      child_reports_.push_back(*up);
    }
  }

  if (adopted_this_round) {
    has_dist_ = true;
    started_ = true;
    wave_round_ = ctx.round();
    BitWriter accept;
    encode(accept, *fmt_, ParentAcceptMsg{});
    ctx.send(parent_, accept);
    BitWriter wave;
    encode(wave, *fmt_, TreeWaveMsg{dist_});
    for (const NodeId nbr : ctx.neighbors()) {
      ctx.send(nbr, wave);
    }
  }

  // Two rounds after our wave, every potential child has answered.
  if (has_dist_ && !children_final_ && ctx.round() == wave_round_ + 2) {
    finalize_children(ctx);
  }
  if (children_final_ && !subtree_reported_) {
    maybe_report(ctx);
  }
}

void TreeBuilder::finalize_children(NodeContext& ctx) {
  (void)ctx;
  std::sort(children_.begin(), children_.end());
  children_final_ = true;
}

void TreeBuilder::maybe_report(NodeContext& ctx) {
  if (child_reports_.size() < children_.size()) {
    return;
  }
  CBC_CHECK(child_reports_.size() == children_.size(),
            "more subtree reports than children");
  subtree_count_ = 1;
  subtree_depth_ = dist_;
  for (const auto& report : child_reports_) {
    subtree_count_ += report.count;
    subtree_depth_ = std::max(subtree_depth_, report.depth);
  }
  if (is_root()) {
    CBC_CHECK(subtree_count_ == ctx.num_nodes(),
              "BFS tree did not cover the graph — is it connected?");
    tree_complete_ = true;
  } else {
    BitWriter up;
    encode(up, *fmt_, SubtreeUpMsg{subtree_count_, subtree_depth_});
    ctx.send(parent_, up);
  }
  subtree_reported_ = true;
}

template <class IO, class Self>
void TreeBuilder::walk(IO io, Self& self) {
  io.flag(self.started_);
  io.flag(self.has_dist_);
  io.varuint(self.dist_);
  io.varuint(self.parent_);
  io.varuint(self.wave_round_);
  io.flag(self.children_final_);
  io.length(7, self.children_);  // a varuint is at least 7 bits
  for (auto& child : self.children_) {
    io.varuint(child);
  }
  io.length(14, self.child_reports_);
  for (auto& report : self.child_reports_) {
    io.varuint(report.count);
    io.varuint(report.depth);
  }
  io.flag(self.subtree_reported_);
  io.flag(self.tree_complete_);
  io.varuint(self.subtree_count_);
  io.varuint(self.subtree_depth_);
}

template void TreeBuilder::walk(fields::Writer, const TreeBuilder&);
template void TreeBuilder::walk(fields::Reader<fields::SnapshotFail>,
                                TreeBuilder&);

void BfsTreeProgram::save_state(BitWriter& w) const {
  fields::Writer io(w);
  TreeBuilder::walk(io, builder_);
}

void BfsTreeProgram::load_state(BitReader& r) {
  fields::Reader<fields::SnapshotFail> io(r);
  TreeBuilder::walk(io, builder_);
}

void BfsTreeProgram::on_round(NodeContext& ctx) {
  std::vector<ParsedMsg> msgs;
  parse_inbox(ctx, fmt_, msgs);
  builder_.on_round(ctx, msgs);
}

bool BfsTreeProgram::done() const {
  return builder_.subtree_reported();
}

}  // namespace congestbc
