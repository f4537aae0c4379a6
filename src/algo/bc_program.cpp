#include "algo/bc_program.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "snapshot/field_walk.hpp"

namespace congestbc {

namespace {

/// Per-round scratch, one per thread (simulator lane).  A node's on_round
/// runs to completion on one thread and never runs another node's program
/// (ReliableProgram calls its single inner program), so one lane's nodes
/// can share these buffers.  They keep their capacity, so a warmed-up
/// lane runs rounds without touching the heap.
struct RoundScratch {
  std::vector<ParsedMsg> msgs;        ///< this round's decoded inbox
  std::vector<NodeId> wave_senders;   ///< wavefront-separation check
  std::vector<std::size_t> fresh;     ///< rows finalized this round
  BitWriter out;                      ///< every outgoing record
};

RoundScratch& lane_scratch() {
  thread_local RoundScratch scratch;
  return scratch;
}

/// Encodes `msg` into the lane's writer, cleared first.  Safe to reuse
/// because every NodeContext copies the payload inside send().
template <typename Msg>
const BitWriter& encoded(const WireFormat& fmt, const Msg& msg) {
  BitWriter& out = lane_scratch().out;
  out.clear();
  encode(out, fmt, msg);
  return out;
}

}  // namespace

SourceRanks::SourceRanks(const std::vector<bool>& mask)
    : rank_(mask.size(), kNotSource) {
  for (std::size_t v = 0; v < mask.size(); ++v) {
    if (mask[v]) {
      rank_[v] = count_++;
    }
  }
}

long double to_long_double(const SoftFloat& value) {
  if (value.is_zero()) {
    return 0.0L;
  }
  return std::ldexp(static_cast<long double>(value.mantissa()),
                    static_cast<int>(value.exponent()));
}

BcProgram::BcProgram(NodeId id, const BcProgramConfig& config)
    : id_(id),
      config_(&config),
      tree_(id, config.root, config.wire),
      entry_index_(config.sources.count(), -1) {
  CBC_EXPECTS(config.sources.count() >= 1, "at least one source is required");
  CBC_EXPECTS(id < config.sources.num_nodes(), "sources must be sized to N");
  CBC_EXPECTS(config.counts_as_target.empty() ||
                  config.counts_as_target.size() ==
                      config.sources.num_nodes(),
              "counts_as_target must be empty or sized to N");
  i_am_source_ = config.sources.contains(id);
  i_am_target_ =
      config.counts_as_target.empty() || config.counts_as_target[id];
  entries_.reserve(config.sources.count());
}

std::size_t BcProgram::state_bytes() const {
  std::size_t total = entries_.capacity() * sizeof(SourceEntry) +
                      entry_index_.capacity() * sizeof(std::int32_t) +
                      agg_schedule_.capacity() * sizeof(ScheduledSend);
  for (const auto& entry : entries_) {
    total += entry.preds.capacity() * sizeof(NodeId);
  }
  return total;
}

SourceEntry* BcProgram::find_entry(NodeId source) {
  const std::uint32_t rank = config_->sources.rank(source);
  if (rank == SourceRanks::kNotSource) {
    return nullptr;
  }
  const std::int32_t idx = entry_index_[rank];
  return idx < 0 ? nullptr : &entries_[static_cast<std::size_t>(idx)];
}

std::uint64_t BcProgram::token_pause() const {
  // The paper's "wait one time slot" plus the ablation knobs: the token
  // leaves one round after the BFS start (2 + extra after arrival), and
  // the sequential ablation additionally waits for the wave to drain.
  std::uint64_t pause = 1;
  if (config_->sequential_counting) {
    pause += 2ull * depth_estimate_ + 2;
  }
  return pause;
}

void BcProgram::on_round(NodeContext& ctx) {
  if (finished_) {
    return;
  }
  std::vector<ParsedMsg>& msgs = lane_scratch().msgs;
  parse_inbox(ctx, config_->wire, msgs);
  tree_.on_round(ctx, msgs);
  handle_wave_msgs(ctx, msgs);
  handle_dfs(ctx, msgs);
  handle_phase_switch(ctx, msgs);
  handle_aggregation(ctx, msgs);
}

std::uint64_t BcProgram::next_active_round(std::uint64_t from) const {
  if (finished_) {
    return kActiveOnMessage;
  }
  std::uint64_t best = tree_.next_active_round(from);
  const auto consider = [&](std::uint64_t round) {
    const std::uint64_t wake = round > from ? round : from;
    if (wake < best) {
      best = wake;
    }
  };
  // The BFS-start timer is one-shot but stays set after firing (the value
  // doubles as T_v); a past value is a fired one.
  if (my_bfs_round_opt_.has_value() && *my_bfs_round_opt_ >= from) {
    consider(*my_bfs_round_opt_);
  }
  if (pending_token_round_.has_value()) {
    consider(*pending_token_round_);
  }
  if (phase_down_seen_ && !config_->counting_only) {
    if (agg_cursor_ < agg_schedule_.size()) {
      consider(agg_schedule_[agg_cursor_].round);
    }
    consider(finalize_round_);
  }
  return best;
}

void BcProgram::handle_wave_msgs(NodeContext& ctx,
                                 const std::vector<ParsedMsg>& msgs) {
  RoundScratch& scratch = lane_scratch();
  if (config_->check_invariants) {
    // Holzer–Wattenhofer wavefront separation: at most one BFS wave
    // crosses an edge per round, so no sender repeats.  Checked before
    // any state changes.
    std::vector<NodeId>& senders = scratch.wave_senders;
    senders.clear();
    for (const auto& msg : msgs) {
      if (std::holds_alternative<WaveMsg>(msg.body)) {
        senders.push_back(msg.from);
      }
    }
    std::sort(senders.begin(), senders.end());
    CBC_CHECK(std::adjacent_find(senders.begin(), senders.end()) ==
                  senders.end(),
              "two BFS wavefronts crossed one edge in the same round");
  }
  std::vector<std::size_t>& fresh = scratch.fresh;
  fresh.clear();
  for (const auto& msg : msgs) {
    const auto* wave = std::get_if<WaveMsg>(&msg.body);
    if (wave == nullptr) {
      continue;
    }
    const std::uint32_t candidate = wave->dist + 1;
    const std::uint32_t rank = config_->sources.rank(wave->source);
    CBC_CHECK(rank != SourceRanks::kNotSource,
              "BFS wave from a node outside the source set");
    std::int32_t& row = entry_index_[rank];
    if (row < 0) {
      CBC_CHECK(ctx.round() >= candidate, "wave arrived before its source started");
      row = static_cast<std::int32_t>(entries_.size());
      SourceEntry& created = entries_.emplace_back();
      created.source = wave->source;
      created.t_start = ctx.round() - candidate;
      created.dist = candidate;
      fresh.push_back(entries_.size() - 1);
      outputs_.eccentricity = std::max(outputs_.eccentricity, candidate);
      outputs_.sum_distances += candidate;
    }
    SourceEntry& entry = entries_[static_cast<std::size_t>(row)];
    // Predecessor messages all arrive in the entry's finalization round
    // (t_start + dist); anything else is a same-level echo to ignore.
    if (entry.dist == candidate &&
        entry.t_start + entry.dist == ctx.round()) {
      entry.sigma = add(entry.sigma, wave->sigma, config_->wire.sf,
                        config_->sigma_rounding);
      entry.preds.push_back(msg.from);
    }
  }
  for (const std::size_t idx : fresh) {
    const SourceEntry& entry = entries_[idx];
    CBC_CHECK(!entry.sigma.is_zero(), "finalized a source with sigma == 0");
    const BitWriter& out = encoded(
        config_->wire, WaveMsg{entry.source, entry.dist, entry.sigma});
    for (const NodeId nbr : ctx.neighbors()) {
      ctx.send(nbr, out);
    }
  }
}

void BcProgram::handle_dfs(NodeContext& ctx, const std::vector<ParsedMsg>& msgs) {
  for (const auto& msg : msgs) {
    const auto* token = std::get_if<DfsTokenMsg>(&msg.body);
    if (token == nullptr) {
      continue;
    }
    depth_estimate_ = token->depth_estimate;
    if (!dfs_visited_) {
      dfs_visited_ = true;
      if (i_am_source_) {
        // First visit (Algorithm 2 lines 2-6): wait one slot, start BFS,
        // then move the token onward.
        my_bfs_round_opt_ = ctx.round() + 1 + config_->dfs_extra_pause;
        pending_token_round_ = *my_bfs_round_opt_ + token_pause();
      } else {
        // Non-sources (sampled runs) add no pause: the token moves on at
        // hop speed, exactly like a revisited node.
        advance_token(ctx);
      }
    } else {
      // The token returned from a child; forward it without delay.
      advance_token(ctx);
    }
  }

  // Root bootstrap: the DFS begins once the tree is known to be complete.
  if (tree_.is_root() && tree_.tree_complete() && !dfs_visited_) {
    dfs_visited_ = true;
    depth_estimate_ = 2 * tree_.subtree_depth();
    if (i_am_source_) {
      my_bfs_round_opt_ = ctx.round() + 1 + config_->dfs_extra_pause;
      pending_token_round_ = *my_bfs_round_opt_ + token_pause();
    } else {
      advance_token(ctx);
    }
  }

  if (my_bfs_round_opt_.has_value() && ctx.round() == *my_bfs_round_opt_) {
    start_own_bfs(ctx);
  }
  if (pending_token_round_.has_value() &&
      ctx.round() == *pending_token_round_) {
    pending_token_round_.reset();
    advance_token(ctx);
  }
}

void BcProgram::start_own_bfs(NodeContext& ctx) {
  my_bfs_round_ = ctx.round();
  if (!i_am_source_) {
    return;
  }
  SourceEntry self;
  self.source = id_;
  self.t_start = ctx.round();
  self.dist = 0;
  self.sigma =
      SoftFloat::from_u64(1, config_->wire.sf, config_->sigma_rounding);
  entry_index_[config_->sources.rank(id_)] =
      static_cast<std::int32_t>(entries_.size());
  entries_.push_back(std::move(self));
  const BitWriter& out =
      encoded(config_->wire, WaveMsg{id_, 0, entries_.back().sigma});
  for (const NodeId nbr : ctx.neighbors()) {
    ctx.send(nbr, out);
  }
}

void BcProgram::advance_token(NodeContext& ctx) {
  CBC_CHECK(tree_.children_final(), "token moved before the tree was built");
  const BitWriter& out = encoded(config_->wire, DfsTokenMsg{depth_estimate_});
  if (next_child_ < tree_.children().size()) {
    const NodeId child = tree_.children()[next_child_];
    ++next_child_;
    ctx.send(child, out);
    return;
  }
  if (!tree_.is_root()) {
    ctx.send(tree_.parent(), out);
  }
  // Root with all children visited: DFS complete; the phase switch takes
  // over once the waves drain.
}

void BcProgram::handle_phase_switch(NodeContext& ctx,
                                    const std::vector<ParsedMsg>& msgs) {
  for (const auto& msg : msgs) {
    if (const auto* up = std::get_if<EccUpMsg>(&msg.body)) {
      ++ecc_reports_;
      ecc_max_ = std::max(ecc_max_, up->ecc);
    } else if (const auto* down = std::get_if<PhaseDownMsg>(&msg.body)) {
      apply_phase_down(ctx, *down);
    }
  }

  if (!ecc_sent_ && tree_.children_final() &&
      entries_.size() == config_->sources.count() &&
      ecc_reports_ == tree_.children().size()) {
    ecc_sent_ = true;
    const std::uint32_t subtree_ecc =
        std::max(ecc_max_, outputs_.eccentricity);
    if (tree_.is_root()) {
      // "Broadcast the diameter D to all nodes" + Algorithm 3 line 1:
      // announce (D, epoch) so every node resets its aggregation clock.
      // The root handles its own announcement inline (it receives no
      // PhaseDown message).
      apply_phase_down(ctx, PhaseDownMsg{
                                subtree_ecc,
                                ctx.round() + tree_.subtree_depth() + 2});
    } else {
      ctx.send(tree_.parent(), encoded(config_->wire, EccUpMsg{subtree_ecc}));
    }
  }
}

void BcProgram::apply_phase_down(NodeContext& ctx, const PhaseDownMsg& down) {
  if (phase_down_seen_) {
    return;
  }
  phase_down_seen_ = true;
  diameter_ = down.diameter;
  epoch_ = down.epoch;
  outputs_.aggregation_epoch = epoch_;
  outputs_.diameter = diameter_;

  // Forward down the tree.
  const BitWriter& out = encoded(config_->wire, down);
  for (const NodeId child : tree_.children()) {
    ctx.send(child, out);
  }

  if (config_->counting_only) {
    // APSP mode: the table and D are all the caller wants.
    finalize(ctx);
    return;
  }

  // Build the Algorithm-3 schedule: T_s(u) = epoch + T_s + D - d(s, u),
  // optionally rebased by the earliest T_s (ablation D6 — every node
  // subtracts the same constant, so orderings and Lemma 4 survive).
  std::uint64_t t_base = 0;
  if (config_->rebase_aggregation && !entries_.empty()) {
    t_base = entries_.front().t_start;
    for (const auto& entry : entries_) {
      t_base = std::min(t_base, entry.t_start);
    }
  }
  std::uint64_t t_max = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    t_max = std::max(t_max, entries_[i].t_start);
    if (entries_[i].dist >= 1) {
      CBC_CHECK(entries_[i].dist <= diameter_,
                "distance exceeds the broadcast diameter");
      agg_schedule_.push_back(ScheduledSend{
          epoch_ + (entries_[i].t_start - t_base) + diameter_ -
              entries_[i].dist,
          i});
    }
  }
  std::sort(agg_schedule_.begin(), agg_schedule_.end(),
            [](const ScheduledSend& a, const ScheduledSend& b) {
              return a.round < b.round;
            });
  if (config_->check_invariants) {
    // Lemma 4: all send times of one node are pairwise distinct.
    for (std::size_t i = 1; i < agg_schedule_.size(); ++i) {
      CBC_CHECK(agg_schedule_[i - 1].round < agg_schedule_[i].round,
                "Lemma 4 violated: two sends scheduled in one round");
    }
  }
  finalize_round_ = epoch_ + (t_max - t_base) + diameter_;
}

void BcProgram::handle_aggregation(NodeContext& ctx,
                                   const std::vector<ParsedMsg>& msgs) {
  for (const auto& msg : msgs) {
    const auto* agg = std::get_if<AggMsg>(&msg.body);
    if (agg == nullptr) {
      continue;
    }
    SourceEntry* entry = find_entry(agg->source);
    CBC_CHECK(entry != nullptr, "aggregation for an unknown source");
    entry->psi = add(entry->psi, agg->psi_value, config_->wire.sf,
                     config_->psi_rounding);
    entry->lambda = add(entry->lambda, agg->lambda_value, config_->wire.sf,
                        config_->psi_rounding);
  }

  if (!phase_down_seen_) {
    return;
  }
  while (agg_cursor_ < agg_schedule_.size() &&
         agg_schedule_[agg_cursor_].round == ctx.round()) {
    SourceEntry& entry = entries_[agg_schedule_[agg_cursor_].entry_index];
    ++agg_cursor_;
    // Algorithm 3 line 12: send 1/sigma_su + psi_s(u) to P_s(u); the
    // stress value 1 + lambda_s(u) rides in the same record.  Nodes that
    // do not count as endpoints (weighted-subdivision virtual nodes)
    // relay the accumulated values without their own term.
    SoftFloat psi_out = entry.psi;
    SoftFloat lambda_out = entry.lambda;
    if (i_am_target_) {
      psi_out =
          add(reciprocal(entry.sigma, config_->wire.sf, config_->psi_rounding),
              psi_out, config_->wire.sf, config_->psi_rounding);
      lambda_out =
          add(SoftFloat::from_u64(1, config_->wire.sf, config_->psi_rounding),
              lambda_out, config_->wire.sf, config_->psi_rounding);
    }
    entry.agg_send_round = ctx.round();
    const BitWriter& out =
        encoded(config_->wire, AggMsg{entry.source, psi_out, lambda_out});
    for (const NodeId pred : entry.preds) {
      ctx.send(pred, out);
    }
  }
  if (agg_cursor_ < agg_schedule_.size()) {
    CBC_CHECK(agg_schedule_[agg_cursor_].round > ctx.round(),
              "missed a scheduled aggregation send");
  }
  if (ctx.round() >= finalize_round_) {
    finalize(ctx);
  }
}

void BcProgram::finalize(NodeContext& ctx) {
  double bc = 0.0;
  long double stress = 0.0L;
  for (const auto& entry : entries_) {
    if (entry.dist == 0) {
      continue;
    }
    // delta_s(u) = psi_s(u) * sigma_su (Algorithm 3 line 17); the product
    // must happen in soft-float space — sigma can overflow a double while
    // psi underflows it.
    const SoftFloat delta =
        multiply(entry.psi, entry.sigma, config_->wire.sf,
                 RoundingMode::kNearest);
    bc += delta.to_double();
    const SoftFloat stress_delta =
        multiply(entry.lambda, entry.sigma, config_->wire.sf,
                 RoundingMode::kNearest);
    stress += to_long_double(stress_delta);
  }
  const double source_scale =
      config_->scale_by_sources
          ? static_cast<double>(ctx.num_nodes()) /
                static_cast<double>(config_->sources.count())
          : 1.0;
  const double scale = source_scale / (config_->halve ? 2.0 : 1.0);
  outputs_.betweenness = bc * scale;
  outputs_.stress = stress * static_cast<long double>(scale);
  const double scaled_sum =
      static_cast<double>(outputs_.sum_distances) * source_scale;
  outputs_.closeness = scaled_sum > 0 ? 1.0 / scaled_sum : 0.0;
  outputs_.graph_centrality =
      outputs_.eccentricity > 0
          ? 1.0 / static_cast<double>(outputs_.eccentricity)
          : 0.0;
  outputs_.finish_round = ctx.round();
  finished_ = true;
}

namespace {

using fields::Is;

/// mantissa, then the exponent in zigzag coding.
void walk(auto io, Is<SoftFloat> auto& value) {
  std::uint64_t mantissa = value.mantissa();
  std::int64_t exponent = value.exponent();
  io.varuint(mantissa);
  io.zigzag(exponent);
  if constexpr (decltype(io)::kLoading) {
    value = SoftFloat::make_raw(mantissa, exponent);
  }
}

void walk(auto io, Is<SourceEntry> auto& entry) {
  io.varuint(entry.source);
  io.varuint(entry.t_start);
  io.varuint(entry.dist);
  walk(io, entry.sigma);
  io.length(7, entry.preds);  // a varuint is at least 7 bits
  for (auto& pred : entry.preds) {
    io.varuint(pred);
  }
  walk(io, entry.psi);
  walk(io, entry.lambda);
  io.varuint(entry.agg_send_round);
}

void walk(auto io, Is<NodeOutputs> auto& out) {
  io.real(out.betweenness);
  io.real(out.closeness);
  io.real(out.graph_centrality);
  io.real(out.stress);
  io.varuint(out.eccentricity);
  io.varuint(out.sum_distances);
  io.varuint(out.diameter);
  io.varuint(out.aggregation_epoch);
  io.varuint(out.finish_round);
}

}  // namespace

template <class IO, class Self>
void BcProgram::walk(IO io, Self& self) {
  // A node that left the DFS token behind as a non-source never starts
  // its wave, so a run resumed under a superset mask would finish with
  // that source silently missing: the mask must match bit for bit.
  io.expect(self.i_am_source_, "snapshot was taken under another source set");
  TreeBuilder::walk(io, self.tree_);
  io.length(35, self.entries_);
  for (auto& entry : self.entries_) {
    congestbc::walk(io, entry);
  }
  io.flag(self.dfs_visited_);
  io.varuint(self.depth_estimate_);
  io.varuint(self.next_child_);
  io.optional(self.pending_token_round_);
  io.optional(self.my_bfs_round_opt_);
  io.varuint(self.my_bfs_round_);
  io.varuint(self.ecc_reports_);
  io.varuint(self.ecc_max_);
  io.flag(self.ecc_sent_);
  io.flag(self.phase_down_seen_);
  io.varuint(self.diameter_);
  io.varuint(self.epoch_);
  io.length(14, self.agg_schedule_);
  for (auto& send : self.agg_schedule_) {
    io.varuint(send.round);
    io.varuint(send.entry_index);
  }
  io.varuint(self.agg_cursor_);
  io.varuint(self.finalize_round_);
  congestbc::walk(io, self.outputs_);
  io.flag(self.finished_);
}

void BcProgram::save_state(BitWriter& w) const {
  fields::Writer io(w);
  walk(io, *this);
}

void BcProgram::load_state(BitReader& r) {
  fields::Reader<fields::SnapshotFail> io(r);
  walk(io, *this);
  // Rebuild the rank -> row index, checking each row's source.
  entry_index_.assign(config_->sources.count(), -1);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const NodeId source = entries_[i].source;
    CBC_CHECK(source < config_->sources.num_nodes(),
              "snapshot entry references an out-of-range source");
    const std::uint32_t rank = config_->sources.rank(source);
    CBC_CHECK(rank != SourceRanks::kNotSource,
              "snapshot entry for a node outside this run's source set");
    CBC_CHECK(entry_index_[rank] < 0,
              "snapshot holds two entries for one source");
    entry_index_[rank] = static_cast<std::int32_t>(i);
  }
  for (const ScheduledSend& send : agg_schedule_) {
    CBC_CHECK(send.entry_index < entries_.size(),
              "snapshot aggregation schedule references a missing entry");
  }
}

}  // namespace congestbc
