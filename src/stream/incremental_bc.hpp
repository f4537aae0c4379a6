// Incremental BC maintainer — the compute half of the streaming
// subsystem.
//
// IncrementalBc keeps, for a fixed ordered source set, the per-source
// dependency summaries of the last run: the source's BFS distance
// vector (its "tree touch-set" — exactly the information that decides
// whether a mutation touches the source's shortest-path DAG) and its
// betweenness/stress contribution vectors, each produced by a
// single-source run through the existing engine (options.sources =
// {s}, scale_by_sources off).
//
// On a delta batch, sources are classified clean/dirty by one exact
// rule: an op on edge (u, v) is *clean* for source s iff
// d_s(u) == d_s(v).  An equidistant edge connects two nodes on the same
// BFS level, so it lies on no shortest path from s — inserting or
// deleting it changes no distance, no path count, and no dependency;
// it is fully inert for s, which also makes the rule compose across a
// batch (inert ops cannot invalidate each other's distance tests).
// Any op with |d_s(u) - d_s(v)| >= 1 is conservatively dirty: an
// insert between adjacent levels creates new shortest paths (sigma
// changes even when no distance does), a level-crossing delete destroys
// them.  Dirty sources are re-run through the engine; clean sources
// keep their stored summaries untouched.
//
// Differential guarantee (pinned by tests/stream_test.cpp): after any
// mutation sequence, the maintained scores are BIT-IDENTICAL to a
// from-scratch IncrementalBc built at the same version.  That holds
// because (a) clean summaries are provably equal to what a re-run
// would produce, (b) the engine is bit-identical across engines and
// thread counts, and (c) assembly re-sums ALL stored summaries in the
// fixed source order after every apply — contributions are never
// spliced numerically in and out of a running total, which floating-
// point non-associativity would make order-dependent.
//
// The assembled scores follow the engine's own finalize() semantics
// (algo/bc_program.cpp) — betweenness/stress scaled by N/K, closeness
// = 1 / (scaled distance sum), graph centrality = 1 / eccentricity —
// but the cross-source summation happens in double precision here
// rather than inside the soft-float aggregation, so assembled values
// agree with a combined multi-source engine run only up to summation
// rounding.  The incremental product is therefore cached under its own
// tagged fingerprint, never interchangeably with combined-run results.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "graph/graph.hpp"
#include "snapshot/fingerprint.hpp"

namespace congestbc::stream {

struct IncrementalBcConfig {
  /// Fixed ordered source set; empty = every node.  Order is part of
  /// the result identity (assembly sums in this order).
  std::vector<NodeId> sources;
  bool halve = true;
  /// Scale betweenness/stress by N/|sources| and closeness's distance
  /// sum likewise (the engine's sampled-estimator semantics).
  bool scale_by_sources = true;
  std::uint64_t max_rounds = 50'000'000;
  /// Execution-only knob — bit-identical results across all values.
  unsigned threads = 1;
};

/// What one apply() re-ran.
struct IncrementalApplyStats {
  std::uint64_t dirty_sources = 0;
  std::uint64_t clean_sources = 0;
};

/// The maintained score vectors, assembled from the per-source
/// summaries in fixed source order.
struct MaintainedScores {
  std::vector<double> betweenness;
  std::vector<double> closeness;
  std::vector<double> graph_centrality;
  std::vector<long double> stress;
  std::vector<std::uint32_t> eccentricities;  ///< max distance to any source
  std::uint32_t diameter = 0;
  std::uint64_t rounds = 0;  ///< engine rounds across the runs that built this
};

class IncrementalBc {
 public:
  /// Full build: runs every configured source on `base`.  The graph
  /// must be connected (the engine's precondition).  Throws
  /// std::invalid_argument on an out-of-range or duplicate source.
  IncrementalBc(const Graph& base, IncrementalBcConfig config);

  /// Advances the maintained state across one canonical delta batch
  /// (VersionedGraph::delta form): classifies sources against the
  /// stored distances, re-runs the dirty ones on `next` (the graph
  /// AFTER the batch, which must be connected), and re-assembles.
  IncrementalApplyStats apply(const Graph& next,
                              const std::vector<GraphDeltaOp>& delta);

  const MaintainedScores& scores() const { return scores_; }
  const IncrementalBcConfig& config() const { return config_; }
  /// The resolved source order (after the empty = all-nodes default).
  const std::vector<NodeId>& sources() const { return sources_; }

  /// True iff every op of the batch is inert for a source with this
  /// distance vector (see the classification rule above).  Exposed for
  /// the property tests.
  static bool source_is_clean(const std::vector<std::uint32_t>& dist,
                              const std::vector<GraphDeltaOp>& delta);

 private:
  struct SourceSummary {
    std::vector<std::uint32_t> dist;  // d_s(v) for every v
    std::vector<double> betweenness;  // this source's contribution
    std::vector<long double> stress;
    std::uint64_t rounds = 0;  // engine rounds of this source's last run
  };

  void run_source(const Graph& g, std::size_t index);
  void assemble();

  IncrementalBcConfig config_;
  NodeId num_nodes_;
  std::vector<NodeId> sources_;
  std::vector<SourceSummary> summaries_;  // parallel to sources_
  MaintainedScores scores_;
};

}  // namespace congestbc::stream
