// Distributed BFS-tree construction — the phase-1 building block of the
// pipeline, also usable standalone.  It is the classic O(D)-round CONGEST
// BFS of [Peleg 2000] extended with child discovery and a (count, depth)
// subtree convergecast so the root learns when the tree is complete.
//
// Protocol:
//   round r    : a node with freshly assigned dist sends TreeWave(dist);
//   round r+1  : receivers adopt dist+1, pick the smallest-id sender as
//                parent, reply ParentAccept, and forward the wave;
//   round r+2  : the node's child set is final (all accepts arrived);
//                childless nodes start the SubtreeUp convergecast; the
//                root learns (N, tree depth) when all children reported.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/parse.hpp"
#include "algo/wire.hpp"
#include "congest/node.hpp"
#include "snapshot/snapshottable.hpp"

namespace congestbc {

/// Protocol component driving the tree construction on one node.  The
/// owner parses the inbox and calls on_round once per round.
class TreeBuilder {
 public:
  TreeBuilder(NodeId id, NodeId root, const WireFormat& fmt)
      : id_(id), root_(root), fmt_(&fmt) {}

  /// Handles this round's tree-related records and emits replies/waves.
  void on_round(NodeContext& ctx, const std::vector<ParsedMsg>& msgs);

  /// Frontier-scheduling support (NodeProgram::next_active_round): the
  /// earliest round >= `from` the builder might act without input.  Two
  /// spontaneous actions exist: the root's bootstrap (its very first
  /// round) and the finalize_children timer at wave_round_ + 2; everything
  /// else is a reaction to an inbound record.
  std::uint64_t next_active_round(std::uint64_t from) const {
    if (!started_ && is_root()) {
      return from;
    }
    if (has_dist_ && !children_final_) {
      return wave_round_ + 2 > from ? wave_round_ + 2 : from;
    }
    return kActiveOnMessage;
  }

  /// Checkpoint support (snapshot/snapshottable.hpp): the snapshot
  /// layout of the protocol state, for both directions of the field walk
  /// (snapshot/field_walk.hpp; Self = [const] TreeBuilder).  id/root/
  /// format are reconstructed by the owner's constructor.
  template <class IO, class Self>
  static void walk(IO io, Self& self);

  bool has_dist() const { return has_dist_; }
  std::uint32_t dist() const { return dist_; }
  bool is_root() const { return id_ == root_; }
  NodeId parent() const { return parent_; }
  /// Children in ascending id order; valid once children_final().
  const std::vector<NodeId>& children() const { return children_; }
  bool children_final() const { return children_final_; }
  /// True once this node's SubtreeUp has been sent (leaf->root sweep
  /// passed through here).
  bool subtree_reported() const { return subtree_reported_; }
  /// Root only: the whole tree has reported.
  bool tree_complete() const { return tree_complete_; }
  /// Valid once subtree_reported() (root: tree_complete()).
  std::uint32_t subtree_count() const { return subtree_count_; }
  std::uint32_t subtree_depth() const { return subtree_depth_; }

 private:
  void finalize_children(NodeContext& ctx);
  void maybe_report(NodeContext& ctx);

  NodeId id_;
  NodeId root_;
  const WireFormat* fmt_;

  bool started_ = false;
  bool has_dist_ = false;
  std::uint32_t dist_ = 0;
  NodeId parent_ = 0;
  std::uint64_t wave_round_ = 0;
  bool children_final_ = false;
  std::vector<NodeId> children_;
  std::vector<SubtreeUpMsg> child_reports_;
  bool subtree_reported_ = false;
  bool tree_complete_ = false;
  std::uint32_t subtree_count_ = 0;
  std::uint32_t subtree_depth_ = 0;
};

/// Standalone NodeProgram running just the tree construction.
class BfsTreeProgram final : public NodeProgram, public Snapshottable {
 public:
  BfsTreeProgram(NodeId id, NodeId root, const WireFormat& fmt)
      : fmt_(fmt), builder_(id, root, fmt_) {}

  void on_round(NodeContext& ctx) override;
  bool done() const override;
  std::uint64_t next_active_round(std::uint64_t from) const override {
    return builder_.next_active_round(from);
  }

  void save_state(BitWriter& w) const override;
  void load_state(BitReader& r) override;

  const TreeBuilder& tree() const { return builder_; }

 private:
  WireFormat fmt_;
  TreeBuilder builder_;
};

}  // namespace congestbc
