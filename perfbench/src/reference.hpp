// The benchmark's own inputs and reference answers.  Nothing here calls
// the program under test: graphs come from a seeded Barabási–Albert
// generator, stream batches from a seeded edge-op generator, and every
// output the program delivers is checked against a plain Brandes or BFS
// written here.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: small, seedable, and independent of the program's Rng.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound), bound >= 1.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Mixes a run seed with a stream tag so each input family draws from
/// its own sequence.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// An undirected simple graph as sorted adjacency lists.
struct RefGraph {
  std::uint32_t n = 0;
  std::vector<std::vector<std::uint32_t>> adj;

  explicit RefGraph(std::uint32_t nodes = 0) : n(nodes), adj(nodes) {}
  std::size_t num_edges() const;
  bool has_edge(std::uint32_t u, std::uint32_t v) const;
  void add_edge(std::uint32_t u, std::uint32_t v);
  void remove_edge(std::uint32_t u, std::uint32_t v);
};

/// Barabási–Albert preferential attachment: a triangle, then every new
/// node attaches to `attach` distinct nodes chosen by degree.  Connected
/// by construction.
RefGraph make_ba(std::uint32_t n, std::uint32_t attach, std::uint64_t seed);

/// "N M" header then one "u v" line per edge (u < v, sorted): the
/// program's plain edge-list format.
std::string edge_list_text(const RefGraph& g);

/// Unnormalised undirected betweenness (each unordered pair once), from
/// every source.
std::vector<double> brandes(const RefGraph& g);

/// Source-restricted Brandes scaled by n/|sources|, the sampled
/// estimator's definition.
std::vector<double> brandes_sources(const RefGraph& g,
                                    const std::vector<std::uint32_t>& sources);

/// Largest BFS eccentricity.
std::uint32_t bfs_diameter(const RefGraph& g);

/// Largest |got - want| / max(|want|, 1) over all nodes; +inf when the
/// lengths differ.
double max_rel_error(const std::vector<double>& got,
                     const std::vector<double>& want);

/// One edge operation of a stream batch (kind 1 = insert, 2 = remove).
struct EdgeOp {
  std::uint8_t kind = 1;
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// Seeded batches of edge ops over one graph.  It removes only edges it
/// inserted itself, so every version keeps the base graph and stays
/// connected; every op in a batch touches a distinct pair and changes
/// the edge set.
class EdgeOpGenerator {
 public:
  EdgeOpGenerator(RefGraph base, std::uint64_t seed);

  /// Draws a batch of `count` ops and applies it to graph().
  std::vector<EdgeOp> next_batch(std::uint32_t count);
  const RefGraph& graph() const { return graph_; }

 private:
  RefGraph graph_;
  Prng rng_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inserted_;
};

/// Checks the references on inputs with known answers: Zachary's karate
/// club (node 0 = 231.0714, networkx), a path and a star (closed forms).
/// Returns an empty string on success, else what failed.
std::string reference_self_test();

}  // namespace perfbench
