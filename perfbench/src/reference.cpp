#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

std::uint64_t Prng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Prng::below(std::uint64_t bound) {
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() -
      std::numeric_limits<std::uint64_t>::max() % bound;
  std::uint64_t x = next();
  while (x >= limit) {
    x = next();
  }
  return x % bound;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Prng mix(seed * 0x2545f4914f6cdd1dULL ^ (tag + 0x632be59bd9b4e019ULL));
  return mix.next();
}

std::size_t RefGraph::num_edges() const {
  std::size_t total = 0;
  for (const auto& a : adj) {
    total += a.size();
  }
  return total / 2;
}

bool RefGraph::has_edge(std::uint32_t u, std::uint32_t v) const {
  return std::binary_search(adj[u].begin(), adj[u].end(), v);
}

void RefGraph::add_edge(std::uint32_t u, std::uint32_t v) {
  adj[u].insert(std::lower_bound(adj[u].begin(), adj[u].end(), v), v);
  adj[v].insert(std::lower_bound(adj[v].begin(), adj[v].end(), u), u);
}

void RefGraph::remove_edge(std::uint32_t u, std::uint32_t v) {
  adj[u].erase(std::lower_bound(adj[u].begin(), adj[u].end(), v));
  adj[v].erase(std::lower_bound(adj[v].begin(), adj[v].end(), u));
}

RefGraph make_ba(std::uint32_t n, std::uint32_t attach, std::uint64_t seed) {
  RefGraph g(n);
  Prng rng(seed);
  std::vector<std::uint32_t> ends;  // every edge endpoint: degree weights
  const std::uint32_t core = std::min<std::uint32_t>(n, attach + 1);
  for (std::uint32_t u = 0; u < core; ++u) {
    for (std::uint32_t v = u + 1; v < core; ++v) {
      g.add_edge(u, v);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  std::vector<std::uint32_t> picked;
  for (std::uint32_t v = core; v < n; ++v) {
    picked.clear();
    while (picked.size() < attach) {
      const std::uint32_t u = ends[rng.below(ends.size())];
      if (std::find(picked.begin(), picked.end(), u) == picked.end()) {
        picked.push_back(u);
      }
    }
    for (const std::uint32_t u : picked) {
      g.add_edge(u, v);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  return g;
}

std::string edge_list_text(const RefGraph& g) {
  std::ostringstream out;
  out << g.n << ' ' << g.num_edges() << '\n';
  for (std::uint32_t u = 0; u < g.n; ++u) {
    for (const std::uint32_t v : g.adj[u]) {
      if (u < v) {
        out << u << ' ' << v << '\n';
      }
    }
  }
  return out.str();
}

namespace {

/// Adds source s's dependencies delta_s(v) to `acc` (Brandes 2001).
void accumulate_source(const RefGraph& g, std::uint32_t s,
                       std::vector<double>& acc) {
  const std::uint32_t n = g.n;
  std::vector<std::int64_t> dist(n, -1);
  std::vector<double> sigma(n, 0.0);
  std::vector<double> delta(n, 0.0);
  std::vector<std::uint32_t> order;
  order.reserve(n);
  dist[s] = 0;
  sigma[s] = 1.0;
  order.push_back(s);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t v = order[head];
    for (const std::uint32_t w : g.adj[v]) {
      if (dist[w] < 0) {
        dist[w] = dist[v] + 1;
        order.push_back(w);
      }
      if (dist[w] == dist[v] + 1) {
        sigma[w] += sigma[v];
      }
    }
  }
  for (std::size_t i = order.size(); i-- > 1;) {
    const std::uint32_t w = order[i];
    for (const std::uint32_t v : g.adj[w]) {
      if (dist[v] == dist[w] - 1) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
    }
    acc[w] += delta[w];
  }
}

}  // namespace

std::vector<double> brandes(const RefGraph& g) {
  std::vector<double> bc(g.n, 0.0);
  for (std::uint32_t s = 0; s < g.n; ++s) {
    accumulate_source(g, s, bc);
  }
  for (double& x : bc) {
    x /= 2.0;
  }
  return bc;
}

std::vector<double> brandes_sources(const RefGraph& g,
                                    const std::vector<std::uint32_t>& sources) {
  std::vector<double> bc(g.n, 0.0);
  for (const std::uint32_t s : sources) {
    accumulate_source(g, s, bc);
  }
  const double scale =
      static_cast<double>(g.n) / static_cast<double>(sources.size()) / 2.0;
  for (double& x : bc) {
    x *= scale;
  }
  return bc;
}

std::uint32_t bfs_diameter(const RefGraph& g) {
  std::uint32_t best = 0;
  std::vector<std::int64_t> dist(g.n);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t s = 0; s < g.n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    queue.assign(1, s);
    dist[s] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t v = queue[head];
      for (const std::uint32_t w : g.adj[v]) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          best = std::max(best, static_cast<std::uint32_t>(dist[w]));
          queue.push_back(w);
        }
      }
    }
  }
  return best;
}

double max_rel_error(const std::vector<double>& got,
                     const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double err =
        std::fabs(got[i] - want[i]) / std::max(std::fabs(want[i]), 1.0);
    worst = std::isnan(err) ? std::numeric_limits<double>::infinity()
                            : std::max(worst, err);
  }
  return worst;
}

EdgeOpGenerator::EdgeOpGenerator(RefGraph base, std::uint64_t seed)
    : graph_(std::move(base)), rng_(seed) {}

std::vector<EdgeOp> EdgeOpGenerator::next_batch(std::uint32_t count) {
  std::vector<EdgeOp> batch;
  const auto touched = [&](std::uint32_t u, std::uint32_t v) {
    for (const EdgeOp& op : batch) {
      if ((op.u == u && op.v == v) || (op.u == v && op.v == u)) {
        return true;
      }
    }
    return false;
  };
  while (batch.size() < count) {
    if (!inserted_.empty() && rng_.below(2) == 0) {
      const std::size_t i = rng_.below(inserted_.size());
      const auto [u, v] = inserted_[i];
      if (touched(u, v)) {
        continue;
      }
      inserted_[i] = inserted_.back();
      inserted_.pop_back();
      graph_.remove_edge(u, v);
      batch.push_back(EdgeOp{2, u, v});
      continue;
    }
    const auto u = static_cast<std::uint32_t>(rng_.below(graph_.n));
    const auto v = static_cast<std::uint32_t>(rng_.below(graph_.n));
    if (u == v || graph_.has_edge(u, v) || touched(u, v)) {
      continue;
    }
    graph_.add_edge(u, v);
    inserted_.emplace_back(u, v);
    batch.push_back(EdgeOp{1, u, v});
  }
  return batch;
}

namespace {

// Zachary's karate club, 34 nodes, 78 edges.
constexpr std::uint32_t kKarate[][2] = {
    {0, 1},   {0, 2},   {0, 3},   {0, 4},   {0, 5},   {0, 6},   {0, 7},
    {0, 8},   {0, 10},  {0, 11},  {0, 12},  {0, 13},  {0, 17},  {0, 19},
    {0, 21},  {0, 31},  {1, 2},   {1, 3},   {1, 7},   {1, 13},  {1, 17},
    {1, 19},  {1, 21},  {1, 30},  {2, 3},   {2, 7},   {2, 8},   {2, 9},
    {2, 13},  {2, 27},  {2, 28},  {2, 32},  {3, 7},   {3, 12},  {3, 13},
    {4, 6},   {4, 10},  {5, 6},   {5, 10},  {5, 16},  {6, 16},  {8, 30},
    {8, 32},  {8, 33},  {9, 33},  {13, 33}, {14, 32}, {14, 33}, {15, 32},
    {15, 33}, {18, 32}, {18, 33}, {19, 33}, {20, 32}, {20, 33}, {22, 32},
    {22, 33}, {23, 25}, {23, 27}, {23, 29}, {23, 32}, {23, 33}, {24, 25},
    {24, 27}, {24, 31}, {25, 31}, {26, 29}, {26, 33}, {27, 33}, {28, 31},
    {28, 33}, {29, 32}, {29, 33}, {30, 32}, {30, 33}, {31, 32}, {31, 33},
    {32, 33}};

bool near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

}  // namespace

std::string reference_self_test() {
  RefGraph karate(34);
  for (const auto& e : kKarate) {
    karate.add_edge(e[0], e[1]);
  }
  if (karate.num_edges() != 78) {
    return "karate edge list is not 78 edges";
  }
  const std::vector<double> kb = brandes(karate);
  if (std::fabs(kb[0] - 231.07142857142856) > 1e-6) {
    return "karate node 0 betweenness " + std::to_string(kb[0]) +
           " != 231.0714";
  }
  if (bfs_diameter(karate) != 5) {
    return "karate diameter != 5";
  }
  const std::uint32_t n = 9;
  RefGraph path(n);
  RefGraph star(n);
  for (std::uint32_t v = 1; v < n; ++v) {
    path.add_edge(v - 1, v);
    star.add_edge(0, v);
  }
  const std::vector<double> pb = brandes(path);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!near(pb[i], static_cast<double>(i) * (n - 1 - i))) {
      return "path node " + std::to_string(i) + " != i(n-1-i)";
    }
  }
  if (bfs_diameter(path) != n - 1) {
    return "path diameter != n-1";
  }
  const std::vector<double> sb = brandes(star);
  if (!near(sb[0], (n - 1) * (n - 2) / 2.0) || !near(sb[1], 0.0)) {
    return "star centre != (n-1)(n-2)/2 or leaf != 0";
  }
  // From the centre as the only source, every path starts at the centre,
  // so it gains nothing; from one leaf it lies on the path to each of the
  // other n-2 leaves.  Scaled by n/1 and halved: n(n-2)/2.
  if (!near(brandes_sources(star, {1})[0], n * (n - 2) / 2.0) ||
      !near(brandes_sources(star, {0})[0], 0.0)) {
    return "source-restricted star centre != n(n-2)/2 from one leaf";
  }
  // Restricted to every source, the estimator is exact.
  std::vector<std::uint32_t> all(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    all[v] = v;
  }
  if (max_rel_error(brandes_sources(path, all), pb) > 1e-12) {
    return "all-source restriction differs from Brandes";
  }
  return {};
}

}  // namespace perfbench
