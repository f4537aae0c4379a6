// The per-node program implementing the paper's distributed betweenness
// centrality pipeline (Algorithms 2 and 3) plus the closeness / graph /
// stress centralities that fall out of the same rounds.
//
// Five sub-phases run on every node (all within O(N) rounds total):
//   1. BFS-tree construction from the root (TreeBuilder; O(D) rounds).
//   2. DFS token traversal of that tree (Algorithm 2 line 1): on its first
//      visit a node waits one slot, then starts its own BFS wave.  The
//      token pause + per-hop latency guarantee the Holzer–Wattenhofer
//      separation T_t >= T_s + d(s,t) + 2, so concurrent BFS wavefronts
//      never meet on an edge (checked at runtime).
//   3. Counting (Algorithm 2 lines 7-21): each wave carries
//      (source, dist, sigma-hat); a node finalizes (d, sigma, P_s) for a
//      source the single round all its predecessors' messages arrive,
//      then forwards the wave.  sigma-hat is ceil-rounded soft-float
//      (Lemma 1: sigma <= sigma-hat <= (1+eta)^D sigma).
//   4. Phase switch (Algorithm 2 line 22 + Algorithm 3 line 1): once a
//      node holds entries for all sources, an eccentricity convergecast
//      climbs the tree; the root learns the diameter D and broadcasts
//      (D, epoch) down — the distributed realization of "reset the global
//      clock".
//   5. Aggregation (Algorithm 3): at round epoch + T_s + D - d(s,u), node
//      u sends 1/sigma_su + psi_s(u) (floor-rounded) to every predecessor
//      in P_s(u); Lemma 4 makes all send times per node distinct (checked
//      at runtime).  Stress centrality rides along: the same message
//      carries 1 + lambda_s(u).  After round epoch + max_s T_s + D every
//      node finalizes C_B, C_C, C_G, C_S locally.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "algo/bfs_tree.hpp"
#include "algo/parse.hpp"
#include "algo/wire.hpp"
#include "congest/node.hpp"
#include "fpa/soft_float.hpp"
#include "snapshot/snapshottable.hpp"

namespace congestbc {

/// The run's source set in the form every node reads it, built once from
/// the mask: each node's rank among the sources in id order (kNotSource
/// for the others) and the source count, so the count always agrees with
/// the ranks.  It is one O(N) table per run, shared by every node's
/// program; each node then indexes its L_v rows by rank with a k-entry
/// array instead of an N-entry one.
class SourceRanks {
 public:
  static constexpr std::uint32_t kNotSource = ~std::uint32_t{0};

  SourceRanks() = default;
  /// mask[v] marks node v as a source.
  explicit SourceRanks(const std::vector<bool>& mask);

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(rank_.size());
  }
  /// k, the number of sources.
  std::uint32_t count() const { return count_; }
  /// v's rank among the sources, or kNotSource (also for v >= N).
  std::uint32_t rank(NodeId v) const {
    return v < rank_.size() ? rank_[v] : kNotSource;
  }
  bool contains(NodeId v) const { return rank(v) != kNotSource; }

 private:
  std::vector<std::uint32_t> rank_;
  std::uint32_t count_ = 0;
};

/// Shared configuration (identical on every node — common knowledge).
struct BcProgramConfig {
  WireFormat wire;
  NodeId root = 0;
  /// sigma accumulates with ceil rounding, psi/lambda with floor rounding
  /// (DESIGN.md D2); configurable for the error-ablation benches.
  RoundingMode sigma_rounding = RoundingMode::kUp;
  RoundingMode psi_rounding = RoundingMode::kDown;
  /// Extra rounds the DFS token idles at each first visit (ablation D1;
  /// the paper's single slot corresponds to 0).
  unsigned dfs_extra_pause = 0;
  /// Ablation: let each BFS wave fully drain before the token moves on —
  /// the naive Theta(N*D) schedule the paper improves upon.
  bool sequential_counting = false;
  /// Which nodes start a BFS (all = exact algorithm; a subset = the
  /// sampled estimator).  Common knowledge via a shared seed, so the run
  /// builds this table once and every node reads it.
  SourceRanks sources;
  /// Which nodes count as shortest-path *endpoints* t in the dependency
  /// sums (Eq. 8).  A node with the flag cleared still relays psi/lambda
  /// but contributes no 1/sigma (resp. +1) term of its own — the
  /// restriction needed by the weighted-graph subdivision (virtual nodes
  /// are not endpoints).  Empty = all nodes count.
  std::vector<bool> counts_as_target;
  /// Scale the dependency sums by N/|sources| (the Brandes–Pich
  /// estimator).  Cleared for restricted-pair computations (weighted
  /// subdivision) where the partial sum *is* the answer.
  bool scale_by_sources = true;
  /// Verify the wavefront-separation and distinct-send-time invariants at
  /// runtime (cheap; throws InvariantError on violation).
  bool check_invariants = true;
  /// Undirected convention: halve the ordered-pair sums (paper Figure 1).
  bool halve = true;
  /// Rebase the Algorithm-3 schedule by the earliest source start time:
  /// T_s(u) = epoch + (T_s - min_s T_s) + D - d(s,u).  Saves the O(D+N)
  /// idle rounds the literal schedule spends replaying the pre-counting
  /// clock; all orderings (and Lemma 4) are preserved since every node
  /// subtracts the same constant.  Off by default (paper-faithful).
  bool rebase_aggregation = false;
  /// Stop after the counting phase + diameter broadcast (no Algorithm 3):
  /// the node then holds the full APSP table (distances, sigma, P_s) and
  /// the distance-based centralities, but no betweenness/stress.
  bool counting_only = false;
};

/// One row of L_v (paper Table I / Algorithm 2 line 20).
struct SourceEntry {
  NodeId source = 0;
  std::uint64_t t_start = 0;  ///< T_s
  std::uint32_t dist = 0;     ///< d(s, v)
  SoftFloat sigma;            ///< sigma-hat_sv (ceil-rounded)
  std::vector<NodeId> preds;  ///< P_s(v)
  SoftFloat psi;              ///< accumulated psi-hat_s(v)
  SoftFloat lambda;           ///< accumulated lambda-hat_s(v) (stress)
  std::uint64_t agg_send_round = 0;  ///< absolute round of the Alg.3 send
};

/// Final per-node outputs.
struct NodeOutputs {
  double betweenness = 0.0;
  double closeness = 0.0;
  double graph_centrality = 0.0;
  long double stress = 0.0L;
  std::uint32_t eccentricity = 0;     ///< over the sampled sources
  std::uint64_t sum_distances = 0;    ///< over the sampled sources
  std::uint32_t diameter = 0;         ///< global D learned from the root
  std::uint64_t aggregation_epoch = 0;
  std::uint64_t finish_round = 0;
};

/// The full pipeline on one node.
class BcProgram final : public NodeProgram, public Snapshottable {
 public:
  BcProgram(NodeId id, const BcProgramConfig& config);

  void on_round(NodeContext& ctx) override;
  bool done() const override { return finished_; }

  /// Frontier-scheduling contract: the earliest round >= `from` with a
  /// pending spontaneous action.  Every timer of the five sub-phases is
  /// enumerated; everything else the program does is a reaction to an
  /// inbound message (which wakes the node regardless).  Fired one-shot
  /// timers are excluded — my_bfs_round_opt_ stays set after its exact-
  /// equality round has passed, so it only counts while still >= from.
  std::uint64_t next_active_round(std::uint64_t from) const override;

  /// Checkpoint support: one walk (bc_program.cpp) serializes the
  /// evolving state of all five sub-phases (the L_v table, DFS/phase-
  /// switch/aggregation cursors, outputs).  Config-derived fields
  /// (entry_index_, the source/target flags) are rebuilt, not stored,
  /// except that the source flag is an expect-field: load_state rejects
  /// a snapshot taken under another source set, and its index rebuild
  /// rejects a row whose source is out of range, outside this run's
  /// source set, or repeated, and a send scheduled for a missing row.
  void save_state(BitWriter& w) const override;
  void load_state(BitReader& r) override;

  const NodeOutputs& outputs() const { return outputs_; }
  /// L_v, ordered by source discovery time (== T_s order).
  const std::vector<SourceEntry>& table() const { return entries_; }
  const TreeBuilder& tree() const { return tree_; }
  /// T_v — the round this node's own BFS wave was sent (source nodes only).
  std::uint64_t bfs_start_round() const { return my_bfs_round_; }

  /// Approximate resident state of this node (bytes): the L_v table, its
  /// k-entry rank index and the aggregation schedule — O(k log N) bits
  /// for k sources, O(N log N) for exact runs.  The shared SourceRanks
  /// table belongs to the run, not to a node, and is not counted.
  std::size_t state_bytes() const;

 private:
  void handle_wave_msgs(NodeContext& ctx, const std::vector<ParsedMsg>& msgs);
  void handle_dfs(NodeContext& ctx, const std::vector<ParsedMsg>& msgs);
  void handle_phase_switch(NodeContext& ctx,
                           const std::vector<ParsedMsg>& msgs);
  void apply_phase_down(NodeContext& ctx, const PhaseDownMsg& down);
  void handle_aggregation(NodeContext& ctx,
                          const std::vector<ParsedMsg>& msgs);
  void advance_token(NodeContext& ctx);
  void start_own_bfs(NodeContext& ctx);
  void finalize(NodeContext& ctx);
  SourceEntry* find_entry(NodeId source);
  std::uint64_t token_pause() const;
  /// The snapshot layout, for both directions (Self = [const] BcProgram).
  template <class IO, class Self>
  static void walk(IO io, Self& self);

  NodeId id_;
  const BcProgramConfig* config_;
  TreeBuilder tree_;

  // --- counting state ---
  std::vector<SourceEntry> entries_;
  /// Source rank (config sources.rank) -> row of entries_, or -1: k
  /// entries, sized once at construction.
  std::vector<std::int32_t> entry_index_;
  bool i_am_source_ = true;
  bool i_am_target_ = true;

  // --- DFS state ---
  bool dfs_visited_ = false;
  std::uint32_t depth_estimate_ = 0;
  std::size_t next_child_ = 0;
  std::optional<std::uint64_t> pending_token_round_;
  std::optional<std::uint64_t> my_bfs_round_opt_;
  std::uint64_t my_bfs_round_ = 0;

  // --- phase switch state ---
  std::uint32_t ecc_reports_ = 0;
  std::uint32_t ecc_max_ = 0;
  bool ecc_sent_ = false;
  bool phase_down_seen_ = false;
  std::uint32_t diameter_ = 0;
  std::uint64_t epoch_ = 0;

  // --- aggregation state ---
  struct ScheduledSend {
    std::uint64_t round;
    std::size_t entry_index;
  };
  std::vector<ScheduledSend> agg_schedule_;
  std::size_t agg_cursor_ = 0;
  std::uint64_t finalize_round_ = 0;

  NodeOutputs outputs_;
  bool finished_ = false;
};

/// Converts a soft-float to long double (exponents beyond double range —
/// stress totals can exceed 2^1024).
long double to_long_double(const SoftFloat& value);

}  // namespace congestbc
