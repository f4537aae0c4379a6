// exact_solve and sampled_large: closed loops of library solves through
// portfolio::run_portfolio, one at a time, in this process.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "common/rng.hpp"
#include "graph/io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/recorder.hpp"
#include "portfolio/backend.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using congestbc::BackendId;
using congestbc::Graph;
using congestbc::RunOutcome;
namespace obs = congestbc::obs;

struct SolveSpec {
  std::uint32_t nodes = 0;
  std::uint32_t graphs = 0;  ///< distinct inputs, solved round-robin
  BackendId backend = BackendId::kPaperExact;
  std::uint32_t samples = 0;  ///< sampled-backend source budget
  unsigned lanes = 1;
  double per_second = 1.0;  ///< nominal solves per second of run time
};

SolveSpec spec_for(const std::string& workload) {
  if (workload == "exact_solve") {
    return SolveSpec{300, 4, BackendId::kPaperExact, 0, 2, 3.0};
  }
  return SolveSpec{5000, 8, BackendId::kSampled, 16, 1, 2.0};
}

struct Input {
  std::string path;
  std::uint32_t nodes = 0;
  std::vector<double> want;
  std::uint32_t diameter = 0;
  std::uint64_t sample_seed = 0;
};

/// What one solve delivered, kept for the check after the loop.
struct Delivered {
  std::size_t input = 0;
  bool complete = false;
  std::vector<double> betweenness;
  std::uint32_t diameter = 0;
  std::uint64_t rounds = 0;
};

/// Per-solve layer figures from a traced solve.
struct LayerSample {
  double allocs = 0, faults = 0, node_state = 0, bits = 0;
  double tree_ms = 0, counting_ms = 0, aggregation_ms = 0;
  double dispatch_ms = 0, merge_ms = 0, active_set_ms = 0;
  double msgs_per_s = 0, lane_wait_ms = 0;
};

std::vector<Input> make_inputs(const Options& options, const SolveSpec& spec) {
  std::vector<Input> inputs;
  for (std::uint32_t i = 0; i < spec.graphs; ++i) {
    const RefGraph g = make_ba(spec.nodes, 2, derive_seed(options.seed, 100 + i));
    Input in;
    in.path = options.work_dir + "/" + options.workload + "-" +
              std::to_string(i) + ".txt";
    in.nodes = g.n;
    std::ofstream(in.path) << edge_list_text(g);
    if (spec.backend == BackendId::kSampled) {
      in.sample_seed = derive_seed(options.seed, 200 + i);
      // The backend's own seeded draw (portfolio/sampled.cpp).
      congestbc::Rng rng(in.sample_seed);
      std::vector<std::uint32_t> sources;
      for (const std::uint64_t s :
           rng.sample_without_replacement(g.n, spec.samples)) {
        sources.push_back(static_cast<std::uint32_t>(s));
      }
      in.want = brandes_sources(g, sources);
    } else {
      in.want = brandes(g);
      in.diameter = bfs_diameter(g);
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

std::vector<Graph> read_inputs(const std::vector<Input>& inputs) {
  std::vector<Graph> graphs;
  for (const Input& in : inputs) {
    std::ifstream file(in.path);
    graphs.push_back(congestbc::read_edge_list(file));
  }
  return graphs;
}

RunOutcome solve(const SolveSpec& spec, const Graph& g, const Input& in,
                 unsigned lanes, obs::FlightRecorder* recorder) {
  congestbc::portfolio::BackendRequest request;
  request.graph = &g;
  request.options.backend = spec.backend;
  request.options.threads = lanes;
  request.options.recorder = recorder;
  if (spec.backend == BackendId::kSampled) {
    request.options.approx_samples = spec.samples;
    request.options.approx_seed = in.sample_seed;
  }
  return congestbc::portfolio::run_portfolio(request);
}

Delivered keep(std::size_t input, const RunOutcome& outcome) {
  Delivered d;
  d.input = input;
  d.complete = outcome.complete();
  d.betweenness = outcome.result.betweenness;
  d.diameter = outcome.result.diameter;
  d.rounds = outcome.result.rounds;
  return d;
}

/// Checks one delivered result; returns "" when it holds.
std::string check(const SolveSpec& spec, const Input& in, const Delivered& d) {
  if (!d.complete) {
    return "solve did not complete";
  }
  const double err = max_rel_error(d.betweenness, in.want);
  if (!(err <= 1e-6)) {
    return "betweenness off by " + std::to_string(err) + " relative on " +
           in.path;
  }
  if (spec.backend == BackendId::kPaperExact) {
    if (d.diameter != in.diameter) {
      return "diameter " + std::to_string(d.diameter) + " != BFS " +
             std::to_string(in.diameter);
    }
    const std::uint64_t limit = 8ULL * in.nodes + 5ULL * in.diameter + 60;
    if (d.rounds > limit) {
      return "rounds " + std::to_string(d.rounds) + " > 8N+5D+60 = " +
             std::to_string(limit);
    }
  }
  return {};
}

/// Attributes a traced solve's lane-0 recorder spans to layers and to
/// the logical phases whose round ranges they fall in.
LayerSample layer_sample(const obs::FlightRecorder& recorder,
                         const RunOutcome& outcome, double wall_ms) {
  LayerSample s;
  double lane0_ms = 0.0;
  for (const obs::SpanEvent& e : recorder.snapshot()) {
    if (e.lane != 0) {
      continue;
    }
    const double ms = static_cast<double>(e.duration_ns) / 1e6;
    lane0_ms += ms;
    if (e.phase == obs::Phase::kLaneDispatch) {
      s.dispatch_ms += ms;
    } else if (e.phase == obs::Phase::kMerge) {
      s.merge_ms += ms;
    } else if (e.phase == obs::Phase::kActiveSetBuild) {
      s.active_set_ms += ms;
    }
    for (const obs::PhaseStats& p : outcome.result.phase_profile) {
      if (e.round >= p.begin_round && e.round < p.end_round) {
        if (p.name == "tree_build") {
          s.tree_ms += ms;
        } else if (p.name == "counting") {
          s.counting_ms += ms;
        } else if (p.name == "aggregation") {
          s.aggregation_ms += ms;
        }
        break;
      }
    }
  }
  s.lane_wait_ms = std::max(0.0, wall_ms - lane0_ms);
  s.node_state = static_cast<double>(outcome.result.max_node_state_bytes);
  s.bits = static_cast<double>(outcome.result.metrics.total_bits);
  s.msgs_per_s = s.dispatch_ms > 0.0
                     ? static_cast<double>(
                           outcome.result.metrics.total_logical_messages) /
                           (s.dispatch_ms / 1000.0)
                     : 0.0;
  return s;
}

struct LoopResult {
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::vector<Delivered> delivered;
  std::vector<LayerSample> layers;
  std::uint64_t dropped_spans = 0;
  std::string last_trace;
};

/// `count` solves, one at a time, round-robin over the inputs.
LoopResult solve_loop(const SolveSpec& spec, const std::vector<Graph>& graphs,
                      const std::vector<Input>& inputs, std::uint64_t count,
                      std::uint64_t first_op, obs::FlightRecorder* recorder) {
  LoopResult loop;
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t k = static_cast<std::size_t>(i % graphs.size());
    SpanScope op("solve", first_op + i);
    if (recorder != nullptr) {
      recorder->clear();
      count_allocations(true);
    }
    const std::uint64_t allocs0 = allocations();
    const std::uint64_t faults0 = minor_faults();
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    RunOutcome outcome;
    {
      SpanScope call("portfolio.run_portfolio", first_op + i, op.id());
      outcome = solve(spec, graphs[k], inputs[k], spec.lanes, recorder);
    }
    const std::uint64_t t1 = now_ns();
    loop.cpu_ms += static_cast<double>(process_cpu_ns() - cpu0) / 1e6;
    loop.latency_ms.push_back(ms_between(t0, t1));
    if (recorder != nullptr) {
      count_allocations(false);
      LayerSample s = layer_sample(*recorder, outcome, ms_between(t0, t1));
      s.allocs = static_cast<double>(allocations() - allocs0);
      s.faults = static_cast<double>(minor_faults() - faults0);
      loop.layers.push_back(s);
      loop.dropped_spans += recorder->dropped();
      if (i + 1 == count) {
        loop.last_trace = obs::chrome_trace_json(
            recorder, outcome.result.phase_profile, {}, {});
      }
    }
    loop.delivered.push_back(keep(k, outcome));
  }
  loop.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return loop;
}

double median_of(const std::vector<LayerSample>& samples,
                 double LayerSample::*field) {
  std::vector<double> v;
  for (const LayerSample& s : samples) {
    v.push_back(s.*field);
  }
  return median(v);
}

}  // namespace

Outcome run_solve(const Options& options) {
  const SolveSpec spec = spec_for(options.workload);
  Outcome result;
  const std::vector<Input> inputs = make_inputs(options, spec);

  // Set-up: read the input files with the program's reader and deliver
  // the cold first result.
  std::vector<double> setup_s;
  std::vector<double> read_ms;
  std::vector<Graph> graphs;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::uint64_t t0 = now_ns();
    {
      SpanScope read("graph.read_edge_list", 0);
      graphs = read_inputs(inputs);
    }
    const std::uint64_t t1 = now_ns();
    const RunOutcome first = solve(spec, graphs[0], inputs[0], spec.lanes,
                                   nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    read_ms.push_back(ms_between(t0, t1));
    const std::string bad = check(spec, inputs[0], keep(0, first));
    if (!bad.empty()) {
      result.wrong("set-up solve: " + bad);
    }
  }

  const std::uint64_t count = op_count(options, spec.per_second);
  const auto verify = [&](const LoopResult& loop) {
    for (const Delivered& d : loop.delivered) {
      ++result.attempted;
      if (!d.complete) {
        result.fail("solve of " + inputs[d.input].path + " did not complete");
        continue;
      }
      if (const std::string bad = check(spec, inputs[d.input], d);
          !bad.empty()) {
        result.wrong(bad);
      }
    }
  };

  if (!options.trace) {
    const LoopResult loop =
        solve_loop(spec, graphs, inputs, count, 1, nullptr);
    verify(loop);
    double rounds = 0.0;
    for (const Delivered& d : loop.delivered) {
      rounds += static_cast<double>(d.rounds);
    }
    const double ops = static_cast<double>(loop.delivered.size());
    result.add("setup_s", median(setup_s), "s");
    result.add("p50_ms", median(loop.latency_ms), "ms");
    result.add("tail_ms", tail_value(loop.latency_ms), "ms");
    result.add("ops_per_s", ops / loop.wall_s, "1/s");
    result.add("peak_rss_mb", sample_process(0).peak_rss_mb, "MiB");
    result.add("cpu_ms_per_op", loop.cpu_ms / ops, "ms");
    result.add("sim_rounds", rounds / ops, "rounds");
    return result;
  }

  // Traced run: half the solves untraced, half with the flight recorder,
  // the allocation hook and page-fault counts.
  const std::uint64_t half = std::max<std::uint64_t>(count / 2, 10);
  const LoopResult plain = solve_loop(spec, graphs, inputs, half, 1, nullptr);
  obs::FlightRecorder recorder(std::size_t{1} << 19);
  tracer().enable(true);
  const LoopResult traced =
      solve_loop(spec, graphs, inputs, half, half + 1, &recorder);
  tracer().enable(false);
  verify(plain);
  verify(traced);

  // The single-lane baseline: the same solve at one lane and at two.
  std::vector<double> one_lane;
  std::vector<double> two_lanes;
  for (int rep = 0; rep < 3; ++rep) {
    for (const unsigned lanes : {1u, 2u}) {
      const std::uint64_t t0 = now_ns();
      (void)solve(spec, graphs[0], inputs[0], lanes, nullptr);
      (lanes == 1 ? one_lane : two_lanes).push_back(ms_between(t0, now_ns()));
    }
  }

  const auto& L = traced.layers;
  result.add("graph.read_ms", median(read_ms), "ms");
  result.add("portfolio.heap_allocs", median_of(L, &LayerSample::allocs),
             "count");
  result.add("portfolio.minor_faults", median_of(L, &LayerSample::faults),
             "count");
  result.add("algo.node_state_bytes", median_of(L, &LayerSample::node_state),
             "bytes");
  result.add("algo.tree_ms", median_of(L, &LayerSample::tree_ms), "ms");
  result.add("algo.counting_ms", median_of(L, &LayerSample::counting_ms),
             "ms");
  result.add("algo.aggregation_ms",
             median_of(L, &LayerSample::aggregation_ms), "ms");
  result.add("congest.dispatch_ms", median_of(L, &LayerSample::dispatch_ms),
             "ms");
  result.add("congest.merge_ms", median_of(L, &LayerSample::merge_ms), "ms");
  result.add("congest.active_set_ms",
             median_of(L, &LayerSample::active_set_ms), "ms");
  result.add("congest.msgs_per_s", median_of(L, &LayerSample::msgs_per_s),
             "1/s");
  result.add("congest.bits", median_of(L, &LayerSample::bits), "bits");
  result.add("core.lane_wait_ms", median_of(L, &LayerSample::lane_wait_ms),
             "ms");
  result.add("core.lane_speedup", median(one_lane) / median(two_lanes), "x");
  result.add("obs.overhead",
             median(traced.latency_ms) / median(plain.latency_ms), "x");
  if (traced.dropped_spans != 0) {
    std::cerr << "warning: the flight recorder dropped "
              << traced.dropped_spans << " spans; layer times are partial\n";
  }
  write_trace(options, merge_trace(traced.last_trace));
  return result;
}

}  // namespace perfbench
