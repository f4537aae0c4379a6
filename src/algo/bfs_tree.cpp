#include "algo/bfs_tree.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "snapshot/snapshot.hpp"

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

void TreeBuilder::save_state(BitWriter& w) const {
  snap::put_bool(w, started_);
  snap::put_bool(w, has_dist_);
  snap::put_u64(w, dist_);
  snap::put_u64(w, parent_);
  snap::put_u64(w, wave_round_);
  snap::put_bool(w, children_final_);
  snap::put_u64(w, children_.size());
  for (const NodeId child : children_) {
    snap::put_u64(w, child);
  }
  snap::put_u64(w, child_reports_.size());
  for (const SubtreeUpMsg& report : child_reports_) {
    snap::put_u64(w, report.count);
    snap::put_u64(w, report.depth);
  }
  snap::put_bool(w, subtree_reported_);
  snap::put_bool(w, tree_complete_);
  snap::put_u64(w, subtree_count_);
  snap::put_u64(w, subtree_depth_);
}

void TreeBuilder::load_state(BitReader& r) {
  started_ = snap::get_bool(r);
  has_dist_ = snap::get_bool(r);
  dist_ = static_cast<std::uint32_t>(snap::get_u64(r));
  parent_ = static_cast<NodeId>(snap::get_u64(r));
  wave_round_ = snap::get_u64(r);
  children_final_ = snap::get_bool(r);
  const std::uint64_t num_children = snap::get_count(r, 7);
  children_.clear();
  children_.reserve(num_children);
  for (std::uint64_t i = 0; i < num_children; ++i) {
    children_.push_back(static_cast<NodeId>(snap::get_u64(r)));
  }
  const std::uint64_t num_reports = snap::get_count(r, 14);
  child_reports_.clear();
  child_reports_.reserve(num_reports);
  for (std::uint64_t i = 0; i < num_reports; ++i) {
    SubtreeUpMsg report;
    report.count = static_cast<std::uint32_t>(snap::get_u64(r));
    report.depth = static_cast<std::uint32_t>(snap::get_u64(r));
    child_reports_.push_back(report);
  }
  subtree_reported_ = snap::get_bool(r);
  tree_complete_ = snap::get_bool(r);
  subtree_count_ = static_cast<std::uint32_t>(snap::get_u64(r));
  subtree_depth_ = static_cast<std::uint32_t>(snap::get_u64(r));
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
