#include "algo/bc_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "algo/bc_program.hpp"
#include "algo/wire.hpp"
#include "central/brandes.hpp"
#include "central/centralities.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "congest/node.hpp"
#include "core/validation.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace congestbc {
namespace {

constexpr double kTolerance = 1e-6;  // default format: >= 20 mantissa bits

/// One node's round window with a scripted inbox; sends are dropped.
class ScriptedContext final : public NodeContext {
 public:
  ScriptedContext(NodeId id, std::uint32_t num_nodes,
                  std::vector<NodeId> neighbors, std::uint64_t round,
                  std::vector<InboundMessage> inbox)
      : id_(id),
        num_nodes_(num_nodes),
        neighbors_(std::move(neighbors)),
        round_(round),
        inbox_(std::move(inbox)) {}

  NodeId id() const override { return id_; }
  std::uint32_t num_nodes() const override { return num_nodes_; }
  std::span<const NodeId> neighbors() const override { return neighbors_; }
  std::uint64_t round() const override { return round_; }
  const std::vector<InboundMessage>& inbox() const override { return inbox_; }
  void send(NodeId, const BitWriter&) override {}

 private:
  NodeId id_;
  std::uint32_t num_nodes_;
  std::vector<NodeId> neighbors_;
  std::uint64_t round_;
  std::vector<InboundMessage> inbox_;
};

TEST(Pipeline, SingleNode) {
  const auto result = run_distributed_bc(Graph(1, {}));
  EXPECT_EQ(result.betweenness[0], 0.0);
  EXPECT_EQ(result.diameter, 0u);
}

TEST(Pipeline, TwoNodes) {
  const auto result = run_distributed_bc(gen::path(2));
  EXPECT_EQ(result.betweenness[0], 0.0);
  EXPECT_EQ(result.betweenness[1], 0.0);
  EXPECT_EQ(result.diameter, 1u);
  EXPECT_NEAR(result.closeness[0], 1.0, 1e-12);
}

TEST(Pipeline, PathGraphExactValues) {
  const auto result = run_distributed_bc(gen::path(5));
  EXPECT_NEAR(result.betweenness[0], 0.0, kTolerance);
  EXPECT_NEAR(result.betweenness[1], 3.0, kTolerance);
  EXPECT_NEAR(result.betweenness[2], 4.0, kTolerance);
  EXPECT_NEAR(result.betweenness[3], 3.0, kTolerance);
  EXPECT_NEAR(result.betweenness[4], 0.0, kTolerance);
  EXPECT_EQ(result.diameter, 4u);
}

TEST(Pipeline, Figure1Example) {
  const auto result = run_distributed_bc(gen::figure1_example());
  EXPECT_NEAR(result.betweenness[1], 3.5, kTolerance);
  EXPECT_EQ(result.diameter, 3u);
}

TEST(Pipeline, StarGraph) {
  const auto result = run_distributed_bc(gen::star(8));
  EXPECT_NEAR(result.betweenness[0], 21.0, kTolerance);  // C(7,2)
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_NEAR(result.betweenness[v], 0.0, kTolerance);
  }
}

TEST(Pipeline, MatchesBrandesOnSuite) {
  for (const auto& [name, graph] : gen::standard_suite(20, 42)) {
    const auto result = run_distributed_bc(graph);
    const auto reference = brandes_bc(graph);
    const auto stats = compare_vectors(result.betweenness, reference, 1e-6);
    EXPECT_LT(stats.max_rel_error, kTolerance)
        << name << ": worst at node " << stats.worst_index;
    EXPECT_EQ(result.diameter, diameter(graph)) << name;
  }
}

TEST(Pipeline, ClosenessAndEccentricityMatchCentralized) {
  Rng rng(5);
  const Graph g = gen::erdos_renyi_connected(24, 0.15, rng);
  const auto result = run_distributed_bc(g);
  const auto cc = closeness_centrality(g);
  const auto cg = graph_centrality(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(result.closeness[v], cc[v], 1e-12);
    EXPECT_NEAR(result.graph_centrality[v], cg[v], 1e-12);
  }
}

TEST(Pipeline, StressMatchesCentralized) {
  Rng rng(6);
  const Graph g = gen::erdos_renyi_connected(20, 0.2, rng);
  const auto result = run_distributed_bc(g);
  const auto reference = stress_centrality(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double ref = static_cast<double>(reference[v]);
    EXPECT_NEAR(static_cast<double>(result.stress[v]), ref,
                kTolerance * std::max(1.0, ref))
        << "node " << v;
  }
}

TEST(Pipeline, ExponentialPathCounts) {
  // 30 diamonds: sigma reaches 2^30 along the chain; 64-bit-safe but well
  // past the 26-bit mantissa, so rounding is genuinely exercised.
  const Graph g = gen::diamond_chain(30);
  const auto result = run_distributed_bc(g);
  const auto reference = brandes_bc_exact(g);
  const auto stats = compare_vectors(result.betweenness, reference, 1e-6);
  EXPECT_LT(stats.max_rel_error, 1e-4);
}

TEST(Pipeline, BeyondDoubleRangePathCounts) {
  // width-6 depth-24 blowup: sigma = 6^24 ~ 2^62; with deeper chains the
  // soft-float keeps working where doubles would still be fine -- the
  // 2^600 case is covered by the error bench; here we stay test-fast.
  const Graph g = gen::layered_blowup(6, 24);
  const auto result = run_distributed_bc(g);
  const auto reference = brandes_bc_exact(g);
  const auto stats = compare_vectors(result.betweenness, reference, 1e-6);
  EXPECT_LT(stats.max_rel_error, 1e-4);
}

TEST(Pipeline, RootChoiceDoesNotChangeResults) {
  const Graph g = gen::figure1_example();
  DistributedBcOptions options;
  std::vector<std::vector<double>> results;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    options.root = root;
    results.push_back(run_distributed_bc(g, options).betweenness);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto stats = compare_vectors(results[i], results[0], 1e-9);
    EXPECT_LT(stats.max_rel_error, 1e-9) << "root " << i;
  }
}

TEST(Pipeline, UnhalvedConvention) {
  DistributedBcOptions options;
  options.halve = false;
  const auto full = run_distributed_bc(gen::path(5), options);
  EXPECT_NEAR(full.betweenness[2], 8.0, kTolerance);
}

TEST(Pipeline, LinearRoundBound) {
  // Theorem 3: O(N) rounds.  With this implementation's constants the
  // total stays below ~8N + 5D + 60 across families (2 DFS pause rounds
  // per node, token twice over each tree edge, and the counting clock
  // replayed once more during aggregation).
  for (const auto& [name, graph] : gen::standard_suite(24, 9)) {
    const auto result = run_distributed_bc(graph);
    const std::uint64_t n = graph.num_nodes();
    EXPECT_LE(result.rounds, 8 * n + 5 * diameter(graph) + 60) << name;
  }
}

TEST(Pipeline, CongestComplianceOnSuite) {
  // Lemmas 3 and 5 + Theorem 2: every message (bundle) fits the budget.
  for (const auto& [name, graph] : gen::standard_suite(20, 11)) {
    const auto result = run_distributed_bc(graph);  // throws on violation
    EXPECT_LE(result.metrics.max_bits_on_edge_round,
              congest_budget_bits(graph.num_nodes()))
        << name;
  }
}

TEST(Pipeline, Lemma4NoAggregationCollisions) {
  // During the aggregation epoch at most ONE logical message crosses any
  // edge per round (Lemma 4) — no bundling ever happens there.
  for (const auto& [name, graph] : gen::standard_suite(20, 13)) {
    const auto result = run_distributed_bc(graph);
    ASSERT_GT(result.aggregation_epoch, 0u) << name;
    EXPECT_EQ(result.metrics.max_logical_on_edge_in(
                  result.aggregation_epoch, result.metrics.rounds),
              1u)
        << name;
  }
}

TEST(Pipeline, SendTimesMatchPaperFormula) {
  // T_s(u) = T_s + D - d(s,u) relative to the aggregation epoch.
  const Graph g = gen::figure1_example();
  DistributedBcOptions options;
  options.keep_tables = true;
  const auto result = run_distributed_bc(g, options);
  const std::uint32_t diam = result.diameter;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& entry : result.tables[v]) {
      if (entry.dist == 0) {
        continue;
      }
      EXPECT_EQ(entry.agg_send_round, result.aggregation_epoch +
                                          entry.t_start + diam - entry.dist)
          << "node " << v << " source " << entry.source;
    }
  }
}

TEST(Pipeline, TablesMatchCentralizedCounts) {
  Rng rng(17);
  const Graph g = gen::erdos_renyi_connected(18, 0.2, rng);
  DistributedBcOptions options;
  options.keep_tables = true;
  const auto result = run_distributed_bc(g, options);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(result.tables[v].size(), g.num_nodes());
    for (const auto& entry : result.tables[v]) {
      const auto dist = bfs_distances(g, entry.source);
      EXPECT_EQ(entry.dist, dist[v]);
      // sigma-hat brackets the exact count from above (ceil rounding).
      const auto sigma = count_shortest_paths(g, entry.source);
      EXPECT_GE(compare_with_big(entry.sigma, sigma[v]), 0);
      // ... within (1+eta)^D.
      const double eta = unit_relative_error(SoftFloatFormat::for_graph(18));
      const double bound = sigma[v].to_double() *
                           std::pow(1 + eta, result.diameter + 1);
      EXPECT_LE(entry.sigma.to_double(), bound);
      // Predecessor sets match Eq. (5).
      auto expected_preds = shortest_path_predecessors(g, entry.source)[v];
      auto actual = entry.preds;
      std::sort(actual.begin(), actual.end());
      std::sort(expected_preds.begin(), expected_preds.end());
      EXPECT_EQ(actual, expected_preds);
    }
  }
}

TEST(Pipeline, WavefrontSeparationHolds) {
  // check_invariants fires an InvariantError inside the run if two waves
  // ever share an edge-round; a clean run is the assertion.
  Rng rng(19);
  const Graph g = gen::erdos_renyi_connected(40, 0.08, rng);
  DistributedBcOptions options;
  options.check_invariants = true;
  EXPECT_NO_THROW(run_distributed_bc(g, options));
}

TEST(Pipeline, WavefrontSeparationViolationThrows) {
  // Node 2 of a 4-node all-sources run receives two wave records from
  // neighbor 1 in one round: two wavefronts crossed one edge.  The same
  // records from two different senders are legal.
  constexpr NodeId kNodes = 4;
  BcProgramConfig config;
  config.wire =
      WireFormat::for_graph(kNodes, SoftFloatFormat::for_graph(kNodes));
  config.sources = SourceRanks(std::vector<bool>(kNodes, true));
  const SoftFloat one =
      SoftFloat::from_u64(1, config.wire.sf, RoundingMode::kUp);
  const auto wave_from = [&](NodeId sender, NodeId source) {
    BitWriter w;
    encode(w, config.wire, WaveMsg{source, 0, one});
    return InboundMessage(sender, w.bytes(), w.bit_size());
  };

  std::vector<InboundMessage> clash;
  clash.push_back(wave_from(1, 1));
  clash.push_back(wave_from(1, 3));
  BcProgram clashing(2, config);
  ScriptedContext clash_ctx(2, kNodes, {1, 3}, 5, std::move(clash));
  try {
    clashing.on_round(clash_ctx);
    ADD_FAILURE() << "two waves from one sender in one round were accepted";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "two BFS wavefronts crossed one edge in the same round"),
              std::string::npos)
        << e.what();
  }

  std::vector<InboundMessage> apart;
  apart.push_back(wave_from(1, 1));
  apart.push_back(wave_from(3, 3));
  BcProgram separated(2, config);
  ScriptedContext apart_ctx(2, kNodes, {1, 3}, 5, std::move(apart));
  EXPECT_NO_THROW(separated.on_round(apart_ctx));
  EXPECT_EQ(separated.table().size(), 2u);
}

TEST(Pipeline, DfsExtraPauseStillCorrect) {
  DistributedBcOptions options;
  options.dfs_extra_pause = 3;
  const auto result = run_distributed_bc(gen::figure1_example(), options);
  EXPECT_NEAR(result.betweenness[1], 3.5, kTolerance);
}

TEST(Pipeline, SequentialAblationCorrectButSlower) {
  const Graph g = gen::path(16);
  DistributedBcOptions fast;
  DistributedBcOptions slow;
  slow.sequential_counting = true;
  const auto fast_result = run_distributed_bc(g, fast);
  const auto slow_result = run_distributed_bc(g, slow);
  const auto stats =
      compare_vectors(slow_result.betweenness, fast_result.betweenness, 1e-9);
  EXPECT_LT(stats.max_rel_error, 1e-9);
  // The drain pauses cost Theta(N*D) extra rounds.
  EXPECT_GT(slow_result.rounds, 2 * fast_result.rounds);
}

TEST(Pipeline, RebasedAggregationSavesRoundsExactly) {
  // Ablation D6: subtracting min_s T_s from every send time preserves all
  // orderings (bit-identical results) while trimming the idle replay.
  const Graph g = gen::path(24);
  DistributedBcOptions literal;
  DistributedBcOptions rebased;
  rebased.rebase_aggregation = true;
  const auto a = run_distributed_bc(g, literal);
  const auto b = run_distributed_bc(g, rebased);
  const auto stats = compare_vectors(b.betweenness, a.betweenness, 1e-12);
  EXPECT_EQ(stats.max_abs_error, 0.0);  // same arithmetic, same order
  EXPECT_LT(b.rounds, a.rounds);
  // Lemma 4 still holds on the rebased schedule.
  EXPECT_EQ(b.metrics.max_logical_on_edge_in(b.aggregation_epoch,
                                             b.metrics.rounds),
            1u);
}

TEST(Pipeline, RejectsDisconnectedGraph) {
  EXPECT_THROW(run_distributed_bc(Graph(4, {{0, 1}, {2, 3}})), InvariantError);
}

TEST(Pipeline, RejectsBadRoot) {
  DistributedBcOptions options;
  options.root = 5;
  EXPECT_THROW(run_distributed_bc(gen::path(3), options), PreconditionError);
}

TEST(Pipeline, MaxRoundsGuard) {
  DistributedBcOptions options;
  options.max_rounds = 10;  // far below what path(8) needs
  EXPECT_THROW(run_distributed_bc(gen::path(8), options), InvariantError);
}

TEST(Pipeline, NodeStateGrowsWithN) {
  // The per-node footprint is Theta(N log N) bits: monotone in N.
  const auto small = run_distributed_bc(gen::path(8));
  const auto large = run_distributed_bc(gen::path(64));
  EXPECT_GT(large.max_node_state_bytes, small.max_node_state_bytes);
  EXPECT_GT(small.max_node_state_bytes, 0u);
}

TEST(Pipeline, SampledNodeStateIndependentOfN) {
  // A k-source run keeps O(deg + k) state per node: the rank index has k
  // entries, not N, so a node stays far below 4 bytes per graph node.
  Rng rng(5);
  const Graph g = gen::barabasi_albert(4000, 2, rng);
  const NodeId n = g.num_nodes();
  std::vector<bool> sources(n, false);
  for (const std::uint64_t s : rng.sample_without_replacement(n, 16)) {
    sources[static_cast<std::size_t>(s)] = true;
  }
  DistributedBcOptions options;
  options.sources = sources;
  const auto result = run_distributed_bc(g, options);
  EXPECT_GT(result.max_node_state_bytes, 0u);
  EXPECT_LT(result.max_node_state_bytes, 4u * n);
}

TEST(Pipeline, TinyBudgetFaults) {
  DistributedBcOptions options;
  options.budget_bits = 4;  // absurd: nothing fits
  EXPECT_THROW(run_distributed_bc(gen::path(4), options), InvariantError);
}

}  // namespace
}  // namespace congestbc
