#include "stream/incremental_bc.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/properties.hpp"

namespace congestbc::stream {

IncrementalBc::IncrementalBc(const Graph& base, IncrementalBcConfig config)
    : config_(std::move(config)), num_nodes_(base.num_nodes()) {
  if (config_.sources.empty()) {
    sources_.resize(num_nodes_);
    for (NodeId v = 0; v < num_nodes_; ++v) {
      sources_[v] = v;
    }
  } else {
    sources_ = config_.sources;
    std::vector<bool> seen(num_nodes_, false);
    for (const NodeId s : sources_) {
      if (s >= num_nodes_) {
        throw std::invalid_argument("source " + std::to_string(s) +
                                    " out of range");
      }
      if (seen[s]) {
        throw std::invalid_argument("duplicate source " + std::to_string(s));
      }
      seen[s] = true;
    }
  }
  summaries_.resize(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    run_source(base, i);
  }
  assemble();
}

bool IncrementalBc::source_is_clean(const std::vector<std::uint32_t>& dist,
                                    const std::vector<GraphDeltaOp>& delta) {
  for (const GraphDeltaOp& op : delta) {
    const std::uint32_t du = dist[op.u];
    const std::uint32_t dv = dist[op.v];
    if (du == kUnreachable || dv == kUnreachable || du != dv) {
      return false;
    }
  }
  return true;
}

IncrementalApplyStats IncrementalBc::apply(
    const Graph& next, const std::vector<GraphDeltaOp>& delta) {
  if (next.num_nodes() != num_nodes_) {
    throw std::invalid_argument("node count changed across a delta batch");
  }
  IncrementalApplyStats stats;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (source_is_clean(summaries_[i].dist, delta)) {
      ++stats.clean_sources;
    } else {
      run_source(next, i);
      ++stats.dirty_sources;
    }
  }
  assemble();
  return stats;
}

void IncrementalBc::run_source(const Graph& g, std::size_t index) {
  DistributedBcOptions options;
  options.halve = config_.halve;
  std::vector<bool> mask(num_nodes_, false);
  mask[sources_[index]] = true;
  options.sources = std::move(mask);
  options.scale_by_sources = false;
  options.max_rounds = config_.max_rounds;
  options.threads = config_.threads;
  DistributedBcResult result = run_distributed_bc(g, options);
  SourceSummary& summary = summaries_[index];
  // With a single source, each node's "max distance to any source" IS
  // its distance from s — the engine hands back the touch-set for free.
  summary.dist = std::move(result.eccentricities);
  summary.betweenness = std::move(result.betweenness);
  summary.stress = std::move(result.stress);
  summary.rounds = result.rounds;
}

void IncrementalBc::assemble() {
  const std::size_t n = num_nodes_;
  const double source_scale =
      config_.scale_by_sources
          ? static_cast<double>(num_nodes_) /
                static_cast<double>(sources_.size())
          : 1.0;
  scores_.betweenness.assign(n, 0.0);
  scores_.stress.assign(n, 0.0L);
  scores_.closeness.assign(n, 0.0);
  scores_.graph_centrality.assign(n, 0.0);
  scores_.eccentricities.assign(n, 0);
  scores_.rounds = 0;
  std::vector<std::uint64_t> dist_sum(n, 0);
  for (const SourceSummary& summary : summaries_) {
    for (std::size_t v = 0; v < n; ++v) {
      scores_.betweenness[v] += summary.betweenness[v];
      scores_.stress[v] += summary.stress[v];
      dist_sum[v] += summary.dist[v];
      scores_.eccentricities[v] =
          std::max(scores_.eccentricities[v], summary.dist[v]);
    }
    scores_.rounds += summary.rounds;
  }
  scores_.diameter = 0;
  for (std::size_t v = 0; v < n; ++v) {
    scores_.betweenness[v] *= source_scale;
    scores_.stress[v] *= static_cast<long double>(source_scale);
    const double scaled_sum =
        static_cast<double>(dist_sum[v]) * source_scale;
    scores_.closeness[v] = scaled_sum > 0 ? 1.0 / scaled_sum : 0.0;
    scores_.graph_centrality[v] =
        scores_.eccentricities[v] > 0
            ? 1.0 / static_cast<double>(scores_.eccentricities[v])
            : 0.0;
    scores_.diameter = std::max(scores_.diameter, scores_.eccentricities[v]);
  }
}

}  // namespace congestbc::stream
