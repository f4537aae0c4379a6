// The algorithm portfolio: every way this repository can compute
// betweenness centrality, behind one interface (DESIGN.md §15).
//
// A BcBackend owns one algorithm: the paper's exact distributed
// pipeline, the Crescenzi–Fraigniaud–Paz fast algorithm, directed BC
// via Pontecorvi–Ramachandran accumulation, or Bader-style sampled
// approximation.  Callers — the CLI, the serving daemon, the benches —
// pick a backend by BackendId (algo/bc_pipeline.hpp; it lives there so
// it can enter options_fingerprint) and dispatch through
// run_portfolio(); the daemon's admission control additionally resolves
// `backend=auto` per job under load (resolve_auto_backend).
//
// Every backend returns the same RunOutcome shape as the watchdogged
// runner, so everything downstream — result cache, wire encoding,
// report JSON — is backend-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "core/runner.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"

namespace congestbc::portfolio {

/// What a backend can do — the registry's contract with admission
/// control and with the test matrix.
struct BackendCapabilities {
  bool undirected_input = false;
  bool directed_input = false;
  /// Deterministic exact results (within the Theorem-1 soft-float
  /// envelope for the distributed pipeline); false = approximate with a
  /// stated error bound.
  bool exact = true;
  /// Runs on the CONGEST simulator (threads and the legacy reference
  /// engine honored, bit-identical across both); false = round-accounted
  /// simulation with its own cost model.
  bool simulator_engines = false;
  /// One-line when-to-use guidance (README table, `backends` listings).
  std::string_view summary;
};

/// Input of one portfolio run: exactly one of `graph` (undirected
/// backends) or `digraph` (directed backend) is set.  Both must outlive
/// the call.
struct BackendRequest {
  const Graph* graph = nullptr;
  const Digraph* digraph = nullptr;
  DistributedBcOptions options;
};

/// One pluggable betweenness algorithm.
class BcBackend {
 public:
  virtual ~BcBackend() = default;

  virtual BackendId id() const = 0;
  /// Stable lowercase name, equal to to_string(id()).
  virtual std::string_view name() const = 0;
  virtual BackendCapabilities capabilities() const = 0;

  /// Runs the algorithm.  Throws PreconditionError on an input the
  /// backend does not support (wrong graph kind, bad options); every
  /// runtime failure comes back as a classified RunOutcome instead.
  virtual RunOutcome run(const BackendRequest& request) const = 0;
};

/// The process-wide backend table.  All four backends register on first
/// use; the registry is immutable afterwards (lookups are lock-free).
class BackendRegistry {
 public:
  static const BackendRegistry& instance();

  /// nullptr when `id` is kAuto or unknown — auto is a serve-time
  /// placeholder, not an algorithm.
  const BcBackend* find(BackendId id) const;
  const BcBackend* find(std::string_view name) const;

  /// Registration order: paper_exact, cfp, directed, sampled.
  const std::vector<const BcBackend*>& all() const { return views_; }

 private:
  BackendRegistry();

  std::vector<std::unique_ptr<BcBackend>> owned_;
  std::vector<const BcBackend*> views_;
};

/// Parses a CLI/wire backend name ("auto", "paper_exact", "cfp",
/// "directed", "sampled"); nullopt on anything else.
std::optional<BackendId> parse_backend(std::string_view name);

/// The serve-time speed/accuracy policy, shared by the daemon's
/// admission control and the CLI: `auto` runs the paper's exact
/// algorithm, unless the server is under pressure (queue depth or
/// deadline risk — the caller's judgment), in which case it degrades
/// gracefully to the sampled approximation.  Non-auto requests are
/// never overridden.
BackendId resolve_auto_backend(BackendId requested, bool under_pressure);

/// The sampled backend's source budget: `requested` clamped to [1, n],
/// or the default 4·ceil(sqrt(n)) (clamped to [16, n]) when 0.  The
/// default is the latency-first point (~4% of sources on a 10k-node
/// graph: ~10% max BC error at ~35× the exact backend's speed); a 25%
/// budget lands well under 5% max error while staying >5× faster —
/// BENCH_portfolio.json pins both ends of the curve.
std::uint32_t resolve_sample_budget(NodeId num_nodes, std::uint32_t requested);

/// Hoeffding/union-bound error guarantee of the sampled backend: with
/// probability >= 1 - delta, every node's absolute BC error is at most
/// n·(n-2)·sqrt(ln(2n/delta) / (2·samples)) (per-source dependencies
/// lie in [0, n-2]; the estimator scales by n/samples).  Deliberately
/// conservative; tests/portfolio_test.cpp validates observed errors
/// against it across seeds.
double sampled_error_bound(NodeId num_nodes, std::uint32_t samples,
                           double delta);

/// Dispatches to the backend named by request.options.backend.  The
/// caller must have resolved kAuto first; kDirected requires
/// request.digraph, every other backend requires request.graph.
RunOutcome run_portfolio(const BackendRequest& request);

}  // namespace congestbc::portfolio
