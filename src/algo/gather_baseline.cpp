#include "algo/gather_baseline.hpp"

#include "central/brandes.hpp"
#include "common/assert.hpp"

namespace congestbc {

GatherBcProgram::GatherBcProgram(NodeId id, const Config& config)
    : id_(id), config_(&config), tree_(id, config.root, config.wire) {}

void GatherBcProgram::on_round(NodeContext& ctx) {
  if (finished_) {
    return;
  }
  std::vector<ParsedMsg> msgs;
  parse_inbox(ctx, config_->wire, msgs);
  tree_.on_round(ctx, msgs);

  const bool is_root = tree_.is_root();
  for (const auto& msg : msgs) {
    if (const auto* count = std::get_if<EdgeCountMsg>(&msg.body)) {
      ++count_reports_;
      subtree_edge_total_ += count->count;
    } else if (const auto* item = std::get_if<EdgeItemMsg>(&msg.body)) {
      if (is_root) {
        collected_.push_back(Edge{item->u, item->v});
      } else {
        upstream_queue_.push_back(*item);
      }
    } else if (const auto* result = std::get_if<ResultMsg>(&msg.body)) {
      ++results_seen_;
      // Forward down the tree the round it arrives (1/round pipelining).
      BitWriter out;
      encode(out, config_->wire, *result);
      for (const NodeId child : tree_.children()) {
        ctx.send(child, out);
      }
      if (result->node == id_) {
        betweenness_ = result->value.to_double();
        have_own_value_ = true;
      }
      if (results_seen_ == ctx.num_nodes()) {
        CBC_CHECK(have_own_value_, "result stream missed this node");
        finished_ = true;
      }
    }
  }

  // Enqueue the edges this node owns (the smaller endpoint owns an edge).
  if (tree_.children_final() && !edges_enqueued_) {
    edges_enqueued_ = true;
    for (const NodeId nbr : ctx.neighbors()) {
      if (id_ < nbr) {
        ++own_edge_count_;
        if (is_root) {
          collected_.push_back(Edge{id_, nbr});
        } else {
          upstream_queue_.push_back(EdgeItemMsg{id_, nbr});
        }
      }
    }
  }

  maybe_report_edge_count(ctx);

  // Stream one edge per round toward the root.
  if (!is_root && !upstream_queue_.empty() && tree_.has_dist()) {
    BitWriter out;
    encode(out, config_->wire, upstream_queue_.front());
    upstream_queue_.pop_front();
    ctx.send(tree_.parent(), out);
  }

  if (is_root) {
    root_compute(ctx);
    if (computed_ && !downstream_queue_.empty()) {
      BitWriter out;
      encode(out, config_->wire, downstream_queue_.front());
      downstream_queue_.pop_front();
      for (const NodeId child : tree_.children()) {
        ctx.send(child, out);
      }
    }
    if (computed_ && downstream_queue_.empty()) {
      finished_ = true;
    }
  }
}

void GatherBcProgram::maybe_report_edge_count(NodeContext& ctx) {
  if (count_reported_ || !tree_.children_final() ||
      count_reports_ != tree_.children().size() || !edges_enqueued_) {
    return;
  }
  count_reported_ = true;
  const std::uint64_t total = own_edge_count_ + subtree_edge_total_;
  if (tree_.is_root()) {
    expected_edges_ = total;
  } else {
    BitWriter out;
    encode(out, config_->wire, EdgeCountMsg{total});
    ctx.send(tree_.parent(), out);
  }
}

void GatherBcProgram::root_compute(NodeContext& ctx) {
  if (computed_ || !expected_edges_.has_value() ||
      collected_.size() < *expected_edges_) {
    return;
  }
  CBC_CHECK(collected_.size() == *expected_edges_,
            "root collected more edges than announced");
  // Local computation is unrestricted in the model: rebuild the graph and
  // run centralized Brandes.
  const Graph g(ctx.num_nodes(), collected_);
  const auto bc = brandes_bc(g, BcOptions{config_->halve});
  betweenness_ = bc[id_];
  have_own_value_ = true;
  for (NodeId v = 0; v < ctx.num_nodes(); ++v) {
    downstream_queue_.push_back(ResultMsg{
        v, SoftFloat::from_double(bc[v], config_->wire.sf,
                                  RoundingMode::kNearest)});
  }
  computed_ = true;
}

GatherBcResult run_gather_bc(const Graph& g, NodeId root, bool halve) {
  CBC_EXPECTS(g.num_nodes() >= 1, "empty graph");
  CBC_EXPECTS(root < g.num_nodes(), "root out of range");
  GatherBcProgram::Config config{
      WireFormat::for_graph(g.num_nodes(),
                            SoftFloatFormat::for_graph(g.num_nodes())),
      root, halve};

  NetworkConfig net_config;
  net_config.bits_per_edge_per_round = congest_budget_bits(g.num_nodes());
  Network network(g, net_config);

  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<GatherBcProgram*> views;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto program = std::make_unique<GatherBcProgram>(v, config);
    views.push_back(program.get());
    programs.push_back(std::move(program));
  }
  GatherBcResult result;
  result.metrics = network.run(programs);
  result.rounds = result.metrics.rounds;
  result.betweenness.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    result.betweenness[v] = views[v]->betweenness();
  }
  return result;
}

}  // namespace congestbc
