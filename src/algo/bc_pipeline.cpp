#include "algo/bc_pipeline.hpp"

#include <algorithm>
#include <fstream>

#include "common/assert.hpp"
#include "congest/reliable.hpp"
#include "graph/digraph.hpp"
#include "snapshot/fingerprint.hpp"
#include "snapshot/snapshot.hpp"

namespace congestbc {

BcRun::BcRun(const Graph& g, const DistributedBcOptions& options)
    : graph_(&g), options_(options) {
  const NodeId n = g.num_nodes();
  CBC_EXPECTS(n >= 1, "empty graph");
  CBC_EXPECTS(options_.root < n, "root out of range");

  const SoftFloatFormat sf =
      options_.format.value_or(SoftFloatFormat::for_graph(n));
  config_.wire = WireFormat::for_graph(n, sf);
  config_.root = options_.root;
  config_.sigma_rounding = options_.sigma_rounding;
  config_.psi_rounding = options_.psi_rounding;
  config_.dfs_extra_pause = options_.dfs_extra_pause;
  config_.sequential_counting = options_.sequential_counting;
  config_.check_invariants = options_.check_invariants;
  config_.halve = options_.halve;
  config_.sources =
      SourceRanks(options_.sources.value_or(std::vector<bool>(n, true)));
  CBC_EXPECTS(config_.sources.num_nodes() == n,
              "sources mask must have size N");
  config_.counts_as_target = options_.targets.value_or(std::vector<bool>{});
  config_.scale_by_sources = options_.scale_by_sources;
  config_.counting_only = options_.counting_only;
  config_.rebase_aggregation = options_.rebase_aggregation;

  const std::uint64_t inner_budget =
      options_.budget_bits.value_or(congest_budget_bits(n));
  net_config_.bits_per_edge_per_round =
      options_.reliable_transport && inner_budget != 0
          ? reliable_budget_bits(inner_budget, options_.max_rounds)
          : inner_budget;
  net_config_.max_rounds = options_.max_rounds;
  net_config_.threads = options_.threads;
  net_config_.legacy_engine = options_.legacy_engine;
  net_config_.frontier_min_parallel_nodes = options_.frontier_min_parallel_nodes;
  net_config_.frontier_clamp_lanes = options_.frontier_clamp_lanes;
  net_config_.trace = options_.trace;
  net_config_.recorder = options_.recorder;
  net_config_.faults = options_.faults.empty() ? nullptr : &options_.faults;
  net_config_.stall_window = options_.stall_window;
  if (net_config_.stall_window == 0 && net_config_.faults != nullptr) {
    // Auto window: comfortably longer than the pipeline's longest
    // legitimate quiet stretch (the O(N + D)-round idle replay of the
    // aggregation schedule), short enough to catch real stalls.
    net_config_.stall_window = 8ull * n + 256;
  }
  net_config_.checkpoint.every_rounds = options_.checkpoint_every;
  net_config_.checkpoint.directory = options_.checkpoint_dir;
  net_config_.checkpoint.keep_last = options_.checkpoint_keep_last;
  net_config_.halt_at_round = options_.halt_at_round;
  net_config_.halt_request = options_.halt_request;

  network_.emplace(g, net_config_);
  if (!options_.resume_from.empty()) {
    std::ifstream in(options_.resume_from, std::ios::binary);
    if (!in) {
      throw SnapshotError("cannot open snapshot file: " +
                          options_.resume_from);
    }
    network_->load_snapshot(in);
  }
  if (!options_.cut_edges.empty()) {
    network_->register_cut(options_.cut_edges);
  }

  programs_.reserve(n);
  views_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    auto program = std::make_unique<BcProgram>(v, config_);
    views_.push_back(program.get());
    if (options_.reliable_transport) {
      auto transport =
          std::make_unique<ReliableProgram>(std::move(program), inner_budget);
      transports_.push_back(transport.get());
      programs_.push_back(std::move(transport));
    } else {
      programs_.push_back(std::move(program));
    }
  }
}

BcRun::~BcRun() = default;

RunMetrics BcRun::run() {
  try {
    metrics_ = network_->run(programs_);
  } catch (...) {
    // Keep the partially filled counters (rounds, fault totals) so a
    // post-mortem harvest still reports how far the run got.
    metrics_ = network_->last_metrics();
    throw;
  }
  return metrics_;
}

bool BcRun::suspended() const { return network_->suspended(); }

void BcRun::save_snapshot(std::ostream& out) const {
  network_->save_snapshot(out);
}

std::uint64_t BcRun::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const ReliableProgram* transport : transports_) {
    total += transport->retransmissions();
  }
  return total;
}

DistributedBcResult BcRun::harvest() const {
  const NodeId n = graph_->num_nodes();
  DistributedBcResult result;
  result.metrics = metrics_;
  result.rounds = metrics_.rounds;
  result.suspended = network_->suspended();
  result.resumed_from_round = network_->resumed_from_round();
  result.checkpoints = network_->checkpoints_written();

  result.betweenness.resize(n);
  result.closeness.resize(n);
  result.graph_centrality.resize(n);
  result.stress.resize(n);
  result.eccentricities.resize(n);
  result.bfs_start_rounds.resize(n);
  if (options_.keep_tables) {
    result.tables.resize(n);
  }
  for (NodeId v = 0; v < n; ++v) {
    const NodeOutputs& out = views_[v]->outputs();
    result.betweenness[v] = out.betweenness;
    result.closeness[v] = out.closeness;
    result.graph_centrality[v] = out.graph_centrality;
    result.stress[v] = out.stress;
    result.eccentricities[v] = out.eccentricity;
    result.bfs_start_rounds[v] = views_[v]->bfs_start_round();
    result.max_node_state_bytes =
        std::max(result.max_node_state_bytes, views_[v]->state_bytes());
    result.diameter = out.diameter;
    result.aggregation_epoch = out.aggregation_epoch;
    result.last_finish_round =
        std::max(result.last_finish_round, out.finish_round);
    if (options_.keep_tables) {
      result.tables[v] = views_[v]->table();
    }
  }

  // Phase profile: the logical phase boundaries are pure functions of
  // the harvested outputs — the first counting wave starts at min_s T_s,
  // the aggregation waves at the (broadcast, hence global) epoch — so
  // the profile needs no runtime sampling and inherits the pipeline's
  // bit-identity across engines and thread counts.
  {
    const std::uint64_t total = metrics_.rounds;
    std::uint64_t counting_begin = total;
    for (const std::uint64_t t : result.bfs_start_rounds) {
      if (t > 0 && t < counting_begin) {
        counting_begin = t;
      }
    }
    const bool has_aggregation = result.aggregation_epoch > 0 &&
                                 result.aggregation_epoch <= total;
    const std::uint64_t counting_end =
        has_aggregation && result.aggregation_epoch > counting_begin
            ? result.aggregation_epoch
            : total;
    const auto make_phase = [this](const char* name, std::uint64_t begin,
                                   std::uint64_t end) {
      obs::PhaseStats phase;
      phase.name = name;
      phase.begin_round = begin;
      phase.end_round = end;
      phase.rounds = end > begin ? end - begin : 0;
      const std::uint64_t limit =
          std::min<std::uint64_t>(end, metrics_.per_round.size());
      for (std::uint64_t r = begin; r < limit; ++r) {
        const RoundStats& stats =
            metrics_.per_round[static_cast<std::size_t>(r)];
        phase.physical_messages += stats.physical_messages;
        phase.logical_messages += stats.logical_messages;
        phase.bits += stats.bits;
      }
      return phase;
    };
    result.phase_profile.push_back(make_phase("tree_build", 0, counting_begin));
    result.phase_profile.push_back(
        make_phase("counting", counting_begin, counting_end));
    if (has_aggregation) {
      result.phase_profile.push_back(
          make_phase("aggregation", result.aggregation_epoch, total));
    }
  }
  return result;
}

DistributedBcResult run_distributed_bc(const Graph& g,
                                       const DistributedBcOptions& options) {
  BcRun run(g, options);
  run.run();
  return run.harvest();
}

const char* to_string(BackendId id) {
  switch (id) {
    case BackendId::kAuto:
      return "auto";
    case BackendId::kPaperExact:
      return "paper_exact";
    case BackendId::kCfp:
      return "cfp";
    case BackendId::kDirected:
      return "directed";
    case BackendId::kSampled:
      return "sampled";
  }
  return "unknown";
}

std::uint64_t options_fingerprint(const DistributedBcOptions& options,
                                  NodeId num_nodes) {
  // Bumped on any change to the field walk below — a stale cache entry
  // keyed under an older walk must never be served for a new one.
  // v2: backend id + approximation params joined the walk (portfolio).
  constexpr std::uint64_t kOptionsFingerprintVersion = 2;

  const SoftFloatFormat format =
      options.format.value_or(SoftFloatFormat::for_graph(num_nodes));
  const std::uint64_t budget =
      options.budget_bits.value_or(congest_budget_bits(num_nodes));

  FingerprintBuilder fp;
  fp.mix(kOptionsFingerprintVersion)
      .mix(format.mantissa_bits)
      .mix(format.exponent_bits)
      .mix(options.root)
      .mix_bool(options.halve)
      .mix(static_cast<std::uint64_t>(options.sigma_rounding))
      .mix(static_cast<std::uint64_t>(options.psi_rounding))
      .mix(options.dfs_extra_pause)
      .mix_bool(options.sequential_counting)
      .mix_bool(options.scale_by_sources)
      .mix(budget)
      .mix_bool(options.check_invariants)
      .mix_bool(options.keep_tables)
      .mix_bool(options.counting_only)
      .mix_bool(options.rebase_aggregation)
      .mix(options.max_rounds)
      .mix_bool(options.reliable_transport);
  // Source/target masks, defaults resolved: all-sources and
  // empty-targets are hashed as their explicit equivalents.
  const std::vector<bool> sources =
      options.sources.value_or(std::vector<bool>(num_nodes, true));
  fp.mix(sources.size());
  for (const bool s : sources) {
    fp.mix_bool(s);
  }
  const std::vector<bool> targets =
      options.targets.value_or(std::vector<bool>{});
  fp.mix(targets.size());
  for (const bool t : targets) {
    fp.mix_bool(t);
  }
  fp.mix(options.cut_edges.size());
  for (const Edge& e : options.cut_edges) {
    fp.mix(e.u).mix(e.v);
  }
  fp.mix(fault_fingerprint(options.faults.empty() ? nullptr
                                                  : &options.faults));
  // Portfolio identity.  kAuto is a serve-time placeholder the daemon
  // resolves before fingerprinting; hashing it unresolved would let a
  // downgraded job collide with an exact one, so it is a hard error
  // here.  The approximation params only determine the result under the
  // sampled backend — canonicalize them to 0 elsewhere so e.g. a
  // paper_exact submit with a stray --samples still hits the same cache
  // entry as one without.
  CBC_EXPECTS(options.backend != BackendId::kAuto,
              "backend=auto must be resolved before fingerprinting");
  const bool sampled = options.backend == BackendId::kSampled;
  fp.mix(static_cast<std::uint64_t>(options.backend))
      .mix(sampled ? options.approx_samples : 0)
      .mix(sampled ? options.approx_seed : 0);
  return fp.value();
}

std::uint64_t run_fingerprint(const Graph& g,
                              const DistributedBcOptions& options) {
  FingerprintBuilder fp;
  fp.mix(graph_fingerprint(g))
      .mix(options_fingerprint(options, g.num_nodes()));
  return fp.value();
}

std::uint64_t run_fingerprint(const Digraph& g,
                              const DistributedBcOptions& options) {
  FingerprintBuilder fp;
  fp.mix(digraph_fingerprint(g))
      .mix(options_fingerprint(options, g.num_nodes()));
  return fp.value();
}

}  // namespace congestbc
