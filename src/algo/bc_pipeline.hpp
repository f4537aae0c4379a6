// One-call driver for the distributed centrality pipeline: builds the
// CONGEST network, runs BcProgram on every node, and harvests the
// results plus the simulator metrics.  This is the algorithm-level entry
// point; the repository-level public API (congestbc::Runner) wraps it with
// baselines and validation.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "algo/bc_program.hpp"
#include "congest/metrics.hpp"
#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "fpa/soft_float.hpp"
#include "graph/graph.hpp"
#include "obs/phase_profile.hpp"
#include "obs/recorder.hpp"

namespace congestbc {

/// Which portfolio backend computes the job (src/portfolio).  Lives at
/// the algo layer because it is a *result-determining* option — it
/// enters options_fingerprint() so cached results can never be served
/// across backends — but the algo layer itself only ever runs
/// kPaperExact semantics; dispatch happens in src/portfolio.
enum class BackendId : std::uint8_t {
  /// Serve-time choice: the daemon's admission control resolves this to
  /// kPaperExact, or to kSampled under queue pressure / deadline risk.
  /// Never reaches options_fingerprint() unresolved.
  kAuto = 0,
  /// The paper's exact distributed algorithm (the default; the only
  /// backend before the portfolio existed).
  kPaperExact = 1,
  /// Crescenzi–Fraigniaud–Paz simple/fast BC (arXiv:2001.08108).
  kCfp = 2,
  /// Directed BC, Pontecorvi–Ramachandran accumulation (arXiv:1805.08124).
  kDirected = 3,
  /// Bader-style sampled-source approximation with a tunable budget.
  kSampled = 4,
};

/// Lowercase wire/CLI name ("auto", "paper_exact", "cfp", "directed",
/// "sampled").
const char* to_string(BackendId id);

/// Options of one distributed run.  Defaults reproduce the paper's exact
/// algorithm; the knobs cover the ablations in DESIGN.md.
struct DistributedBcOptions {
  /// Portfolio backend (see BackendId).  The algo-layer pipeline ignores
  /// everything but its fingerprint contribution; src/portfolio
  /// dispatches on it.
  BackendId backend = BackendId::kPaperExact;
  /// Sampled-backend source budget; 0 = resolve_sample_budget(N) default.
  /// Ignored (and fingerprinted as 0) by every other backend.
  std::uint32_t approx_samples = 0;
  /// Seed of the sampled backend's source draw.  Ignored (and
  /// fingerprinted as 0) by every other backend.
  std::uint64_t approx_seed = 0;
  /// Soft-float wire format; defaults to SoftFloatFormat::for_graph(N).
  std::optional<SoftFloatFormat> format;
  NodeId root = 0;
  bool halve = true;
  RoundingMode sigma_rounding = RoundingMode::kUp;
  RoundingMode psi_rounding = RoundingMode::kDown;
  unsigned dfs_extra_pause = 0;
  bool sequential_counting = false;
  /// Source subset for the sampled estimator; default: every node.
  std::optional<std::vector<bool>> sources;
  /// Endpoint subset (see BcProgramConfig::counts_as_target); default all.
  std::optional<std::vector<bool>> targets;
  /// Scale dependency sums by N/|sources| (estimator mode); disable for
  /// restricted-pair computations.
  bool scale_by_sources = true;
  /// Per-edge per-round bit budget; defaults to congest_budget_bits(N).
  /// 0 disables the check.
  std::optional<std::uint64_t> budget_bits;
  bool check_invariants = true;
  /// Keep every node's L_v table in the result (memory-heavy; tests and
  /// the Figure-1 bench enable it).
  bool keep_tables = false;
  /// Undirected edges whose traffic is counted as cut_bits (lower-bound
  /// experiments).
  std::vector<Edge> cut_edges;
  /// Optional message-trace observer (congest/trace.hpp).
  TraceSink* trace = nullptr;
  /// Optional flight recorder (obs/recorder.hpp) fed wall-clock phase
  /// spans by the simulator.  Pure observation — excluded from
  /// options_fingerprint() like `trace`, bit-identical results with it
  /// on or off.  Must outlive the run.
  obs::FlightRecorder* recorder = nullptr;
  /// Stop after the counting phase (distributed APSP mode; betweenness
  /// and stress come back zero).  Prefer run_distributed_apsp().
  bool counting_only = false;
  /// Ablation D6: rebase the aggregation schedule by min_s T_s, trimming
  /// the idle replay of the pre-counting rounds.  Default: off
  /// (paper-literal schedule).
  bool rebase_aggregation = false;
  std::uint64_t max_rounds = 50'000'000;
  /// Fault schedule injected into the simulator (congest/fault.hpp);
  /// empty = the paper's reliable network.
  FaultPlan faults;
  /// Wrap every node's program in the reliable transport
  /// (congest/reliable.hpp): exact BC results survive drop/duplicate/
  /// delay faults at the cost of extra rounds and header bits.  The
  /// CONGEST budget is widened to reliable_budget_bits(inner budget).
  bool reliable_transport = false;
  /// Stall-watchdog window (NetworkConfig::stall_window).  0 = automatic:
  /// 8N + 256 when faults are active (longer than any legitimate quiet
  /// stretch of the aggregation schedule, which idles O(N + D) rounds),
  /// disabled on a fault-free run.
  std::uint64_t stall_window = 0;
  /// Simulator lanes for the node-execution phase (NetworkConfig::
  /// threads): 1 = sequential, 0 = one per hardware thread.  Results are
  /// bit-identical for every value.
  unsigned threads = 1;
  /// Run the legacy sequential allocating simulator engine instead of the
  /// frontier engine (NetworkConfig::legacy_engine) — the reference the
  /// identity tests compare against and the baseline of
  /// `bench_simulator --baseline`; never faster, never different.
  bool legacy_engine = false;
  /// Frontier engine tuning passthrough (NetworkConfig fields of the same
  /// name); results are bit-identical for every value.
  std::size_t frontier_min_parallel_nodes = 256;
  bool frontier_clamp_lanes = true;
  // --- checkpoint / resume (src/snapshot) ---
  /// Write a full snapshot every this many rounds (0 = off; needs
  /// checkpoint_dir).  Atomic write-rename, newest checkpoint_keep_last
  /// files kept.
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  unsigned checkpoint_keep_last = 2;
  /// Path of a snapshot file to resume from ("" = start at round 0).
  /// The graph, budget, and fault plan must match the original run; the
  /// resumed run is bit-identical to the uninterrupted one.
  std::string resume_from;
  /// Suspend the run at the start of this round (0 = never): the
  /// deterministic stand-in for a kill.  The result is partial
  /// (DistributedBcResult::suspended) and, when checkpoint_dir is set,
  /// the suspension state is also written there as a checkpoint.
  std::uint64_t halt_at_round = 0;
  /// Cooperative halt flag (NetworkConfig::halt_request): raise it from
  /// another thread and the run suspends at the next round boundary the
  /// same way halt_at_round does.  The serving daemon's SIGTERM drain and
  /// per-job time budget are built on this.  Must outlive the run.
  const std::atomic<bool>* halt_request = nullptr;
};

/// Aggregate result of one run.
struct DistributedBcResult {
  std::vector<double> betweenness;
  std::vector<double> closeness;
  std::vector<double> graph_centrality;
  std::vector<long double> stress;
  /// Per node: max distance to any *source* (= true eccentricity under
  /// full sampling).
  std::vector<std::uint32_t> eccentricities;
  std::uint32_t diameter = 0;
  std::uint64_t rounds = 0;
  std::uint64_t aggregation_epoch = 0;
  std::uint64_t last_finish_round = 0;
  /// Largest per-node resident state observed (bytes) — the empirical
  /// O(N log N)-bits-per-node footprint.
  std::size_t max_node_state_bytes = 0;
  RunMetrics metrics;
  /// Per node: the round its own BFS wave started (T_v; 0 for non-sources).
  std::vector<std::uint64_t> bfs_start_rounds;
  /// The run's logical phases (tree build + DFS, counting waves,
  /// aggregation) with their round ranges and per-range traffic sums —
  /// derived deterministically from the outputs above (DESIGN.md §11),
  /// so it is bit-identical across engines and thread counts.  Traffic
  /// sums are zero when per-round recording was off.
  std::vector<obs::PhaseStats> phase_profile;
  /// Per node: L_v (only when keep_tables).
  std::vector<std::vector<SourceEntry>> tables;
  /// True when the run stopped at halt_at_round: all outputs above are the
  /// partial state at that boundary, and the suspension snapshot is
  /// available (BcRun::save_snapshot / the checkpoint directory).
  bool suspended = false;
  /// The boundary round this run resumed from, if it resumed.
  std::optional<std::uint64_t> resumed_from_round;
  /// Checkpoint files written, oldest first.
  std::vector<std::string> checkpoints;
};

/// Runs the full pipeline on a connected graph.  Throws InvariantError on
/// any CONGEST/model violation detected by the simulator.
DistributedBcResult run_distributed_bc(const Graph& g,
                                       const DistributedBcOptions& options = {});

/// Fingerprint of every option that determines the *result* of a run on
/// an N-node graph, with defaults resolved first (so an explicit value
/// equal to the default fingerprints identically).  Execution-strategy
/// knobs — threads, the frontier_* tuning, legacy_engine, trace,
/// stall_window, checkpoint/resume/halt plumbing — are deliberately
/// excluded: the simulator guarantees bit-identical results across all
/// of them, so runs that differ only there share a fingerprint (and the
/// service cache serves one from the other).  The fault plan enters via
/// fault_fingerprint(), the same bytes the resume path validates.
std::uint64_t options_fingerprint(const DistributedBcOptions& options,
                                  NodeId num_nodes);

/// Identity of a (graph, options) run: graph_fingerprint() folded with
/// options_fingerprint().  The key of the service result cache, the
/// coalescing map, and the job spool (src/service).
std::uint64_t run_fingerprint(const Graph& g,
                              const DistributedBcOptions& options);

class Digraph;  // graph/digraph.hpp

/// Directed-run identity: digraph_fingerprint() folded with
/// options_fingerprint().  The cache/spool key of directed-backend jobs;
/// the directed tag inside digraph_fingerprint() keeps it disjoint from
/// every undirected run_fingerprint().
std::uint64_t run_fingerprint(const Digraph& g,
                              const DistributedBcOptions& options);

class ReliableProgram;  // congest/reliable.hpp

/// The pipeline split into construct / run / harvest, so a supervising
/// caller can salvage per-node partial state when run() throws — the
/// watchdog runner (core/runner.hpp run_bc_with_watchdog) is the intended
/// user; run_distributed_bc() is the one-call convenience wrapper.
class BcRun {
 public:
  /// Builds the network and one program per node (wrapped in the reliable
  /// transport when options.reliable_transport).  The graph must outlive
  /// the BcRun.
  BcRun(const Graph& g, const DistributedBcOptions& options);
  ~BcRun();

  BcRun(const BcRun&) = delete;
  BcRun& operator=(const BcRun&) = delete;

  /// Executes the network once; throws exactly like Network::run.
  RunMetrics run();

  /// Assembles a DistributedBcResult from whatever the programs hold
  /// right now — complete after a clean run(), partial (per-node state as
  /// of the failure) after run() threw.
  DistributedBcResult harvest() const;

  /// The per-node BC programs (inner programs under reliable transport).
  const std::vector<BcProgram*>& views() const { return views_; }

  /// The stall window the run actually uses (after the 0 = auto rule).
  std::uint64_t effective_stall_window() const {
    return net_config_.stall_window;
  }

  /// True when run() returned because of options.halt_at_round.
  bool suspended() const;

  /// Serializes the suspension snapshot (only valid when suspended()).
  void save_snapshot(std::ostream& out) const;

  /// Total batch retransmissions across all nodes; 0 without the
  /// reliable transport.
  std::uint64_t total_retransmissions() const;

 private:
  const Graph* graph_;
  DistributedBcOptions options_;  // owns the FaultPlan the network reads
  BcProgramConfig config_;        // must outlive the programs
  NetworkConfig net_config_;
  std::optional<Network> network_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<BcProgram*> views_;
  std::vector<ReliableProgram*> transports_;  // empty unless reliable
  RunMetrics metrics_;
};

}  // namespace congestbc
