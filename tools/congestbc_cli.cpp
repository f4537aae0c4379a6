// congestbc_cli — compute centralities for an edge-list graph with the
// distributed O(N)-round CONGEST algorithm.
//
// Usage:
//   congestbc_cli GRAPH.txt [options]
//   congestbc_cli --generate FAMILY --n N [--seed S] [options]
//
// Input format: "# comments", then "N M", then M lines "u v".
//
// Options:
//   --generate F     synthesize instead of reading a file; F in {path,
//                    cycle, star, grid, tree, er, ba, ws, lollipop, barbell}
//   --n N            node-count target for --generate (default 64)
//   --seed S         RNG seed for random families (default 1)
//   --top K          print only the K highest-betweenness nodes (default 10)
//   --all            print every node
//   --samples K      sampled estimator with K sources (default: exact)
//   --no-check       skip the centralized Brandes cross-check
//   --no-halve       report ordered-pair sums (no /2)
//   --mantissa L     soft-float mantissa bits (default log2(N)+24)
//   --trace          print a per-round activity timeline of the run
//   --trace-out FILE write a Chrome trace-event JSON file (open it in
//                    chrome://tracing or Perfetto): the logical phase
//                    timeline, per-round traffic counters, and the
//                    flight recorder's wall-clock engine spans
//   --json           emit the full report as JSON instead of tables
//   --metrics        print detailed simulator metrics
//   --stats          print graph statistics and exit
//   --apsp           run the counting phase only and print the distance
//                    matrix (small graphs)
//   --weighted       input lines are "u v w" (positive integer weights);
//                    runs the subdivision pipeline
//   --faults SPEC    inject faults, e.g. "drop=0.1,seed=7" or
//                    "crash=3:10-inf,link=0-1:5-20" (see congest/fault.hpp);
//                    runs under the watchdog and reports the classified
//                    outcome instead of asserting reliable delivery
//   --reliable       wrap every node in the self-healing transport
//                    (exact results survive drop/duplicate/delay faults)
//   --stall-window N watchdog window in rounds (default: 8N+256 when
//                    faults are active)
//   --threads T      simulator lanes for the node-execution phase
//                    (default 1; 0 = one per hardware thread; results are
//                    bit-identical for every value)
//   --checkpoint-every N  write a full snapshot every N rounds into
//                    --checkpoint-dir (atomic write-rename; newest
//                    --checkpoint-keep files retained, default 2)
//   --checkpoint-dir D    checkpoint directory (created on first write)
//   --checkpoint-keep K   checkpoints retained on disk (0 = all)
//   --resume FILE    resume a run from a snapshot file; the graph, budget,
//                    and fault plan must match the original run — the
//                    resumed run is bit-identical to the uninterrupted one
//   --halt-at-round R     suspend at the start of round R (deterministic
//                    stand-in for a kill; exit code 3); with
//                    --checkpoint-dir the suspension snapshot is written
//                    there, ready for --resume
//   --dump-graph FILE     write the loaded/generated graph as a canonical
//                    edge list and exit (dataset generation)
//   --backend B      portfolio backend: auto (resolves to paper_exact
//                    locally — no queue to be under pressure from),
//                    paper_exact, cfp, directed, or sampled
//                    (src/portfolio).  `directed` reads the input as a
//                    directed edge list (orientation kept; --generate
//                    supports er and ba); `sampled` honors --samples and
//                    --sample-seed and prints its Hoeffding error bound
//   --sample-seed S  source-sampling seed for --backend sampled
//                    (default 1; distinct from --seed, which drives
//                    graph generation)
//
// Subcommands:
//   congestbc_cli fingerprint GRAPH.txt [--no-halve --faults SPEC
//                    --reliable --mantissa L --backend B --samples K
//                    --sample-seed S]
//                    print the graph / options / run fingerprints — the key
//                    the serving daemon's result cache, coalescing map, and
//                    job spool all share (src/snapshot/fingerprint.hpp)
//   congestbc_cli backends
//                    list the registered portfolio backends and their
//                    capabilities
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>

#include "algo/apsp.hpp"
#include "algo/weighted_bc.hpp"
#include "central/weighted_brandes.hpp"
#include "central/brandes.hpp"
#include "common/args.hpp"
#include "common/table.hpp"
#include "congest/trace.hpp"
#include "core/report_json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/recorder.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "portfolio/backend.hpp"
#include "snapshot/fingerprint.hpp"

namespace {

using namespace congestbc;

constexpr const char* kUsage =
    "usage: congestbc_cli GRAPH.txt [options]\n"
    "       congestbc_cli --generate FAMILY --n N [options]\n"
    "       congestbc_cli fingerprint GRAPH.txt [options]\n"
    "       congestbc_cli backends\n"
    "options: --top K | --all | --samples K | --no-check | --no-halve |\n"
    "         --mantissa L | --metrics | --stats | --apsp | --trace |\n"
    "         --trace-out FILE | --json | --seed S | --faults SPEC |\n"
    "         --reliable |\n"
    "         --stall-window N | --threads T | --checkpoint-every N |\n"
    "         --checkpoint-dir D | --checkpoint-keep K | --resume FILE |\n"
    "         --halt-at-round R | --dump-graph FILE |\n"
    "         --backend B | --sample-seed S\n";

/// Assembles and writes the --trace-out file: deterministic logical
/// tracks (phase timeline, per-round traffic, counting-wave starts) plus
/// the flight recorder's wall-clock engine spans.
void write_trace_out(const std::string& path,
                     const obs::FlightRecorder& recorder,
                     const DistributedBcResult& result) {
  std::vector<obs::CounterSeries> counters;
  if (!result.metrics.per_round.empty()) {
    obs::CounterSeries bits;
    bits.name = "bits_on_wire";
    obs::CounterSeries msgs;
    msgs.name = "physical_messages";
    for (const RoundStats& stats : result.metrics.per_round) {
      bits.values.push_back(stats.bits);
      msgs.values.push_back(stats.physical_messages);
    }
    counters.push_back(std::move(bits));
    counters.push_back(std::move(msgs));
  }
  std::vector<obs::TraceInstant> instants;
  if (result.bfs_start_rounds.size() <= 512) {
    for (std::size_t v = 0; v < result.bfs_start_rounds.size(); ++v) {
      if (result.bfs_start_rounds[v] > 0) {
        instants.push_back(obs::TraceInstant{
            "wave s=" + std::to_string(v), result.bfs_start_rounds[v]});
      }
    }
  }
  std::ofstream out(path);
  CBC_EXPECTS(out.good(), "cannot open " + path + " for writing");
  out << obs::chrome_trace_json(&recorder, result.phase_profile, counters,
                                instants);
  std::cerr << "wrote trace: " << path << " (" << recorder.recorded()
            << " engine spans, " << recorder.dropped() << " dropped)\n";
}

Graph load_graph(const Args& args) {
  if (const auto family = args.get("generate")) {
    const auto n = static_cast<NodeId>(args.get_int_or("n", 64));
    Rng rng(static_cast<std::uint64_t>(args.get_int_or("seed", 1)));
    if (*family == "path") return gen::path(n);
    if (*family == "cycle") return gen::cycle(n);
    if (*family == "star") return gen::star(n);
    if (*family == "grid") {
      const auto side = static_cast<NodeId>(
          std::max(2.0, std::round(std::sqrt(static_cast<double>(n)))));
      return gen::grid(side, side);
    }
    if (*family == "tree") return gen::random_tree(n, rng);
    if (*family == "er") {
      return gen::erdos_renyi_connected(
          n, 2.0 * std::log(static_cast<double>(n)) / static_cast<double>(n),
          rng);
    }
    if (*family == "ba") return gen::barabasi_albert(n, 2, rng);
    if (*family == "ws") return gen::watts_strogatz(n, 2, 0.2, rng);
    if (*family == "lollipop") return gen::lollipop(n / 2, n - n / 2);
    if (*family == "barbell") return gen::barbell(n / 3, n / 4);
    throw PreconditionError("unknown family: " + *family);
  }
  CBC_EXPECTS(args.positional().size() == 1, kUsage);
  std::ifstream file(args.positional()[0]);
  CBC_EXPECTS(file.good(), "cannot open " + args.positional()[0]);
  return read_edge_list(file);
}

Digraph load_digraph(const Args& args) {
  if (const auto family = args.get("generate")) {
    const auto n = static_cast<NodeId>(args.get_int_or("n", 64));
    Rng rng(static_cast<std::uint64_t>(args.get_int_or("seed", 1)));
    if (*family == "er") {
      return gen::directed_erdos_renyi(
          n, 2.0 * std::log(static_cast<double>(n)) / static_cast<double>(n),
          rng);
    }
    if (*family == "ba") return gen::directed_barabasi_albert(n, 2, rng);
    throw PreconditionError("directed --generate supports er and ba, not " +
                            *family);
  }
  CBC_EXPECTS(args.positional().size() == 1, kUsage);
  std::ifstream file(args.positional()[0]);
  CBC_EXPECTS(file.good(), "cannot open " + args.positional()[0]);
  return read_directed_edge_list(file);
}

int run(int argc, char** argv) {
  const Args args = Args::parse(argc, argv,
                                {"generate", "n", "seed", "top", "samples",
                                 "mantissa", "faults", "stall-window",
                                 "threads", "checkpoint-every",
                                 "checkpoint-dir", "checkpoint-keep",
                                 "resume", "halt-at-round", "dump-graph",
                                 "trace-out", "backend", "sample-seed"});
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  if (!args.positional().empty() && args.positional()[0] == "backends") {
    Table table({"backend", "input", "kind", "engines", "summary"});
    for (const portfolio::BcBackend* backend :
         portfolio::BackendRegistry::instance().all()) {
      const portfolio::BackendCapabilities caps = backend->capabilities();
      table.add_row({std::string(backend->name()),
                     caps.directed_input ? "directed" : "undirected",
                     caps.exact ? "exact" : "approximate",
                     caps.simulator_engines ? "yes" : "no",
                     std::string(caps.summary)});
    }
    table.print(std::cout);
    return 0;
  }
  if (!args.positional().empty() && args.positional()[0] == "fingerprint") {
    // The exact key bytes the serving daemon hashes at admission: result
    // cache hits, in-flight coalescing, and spool-resume validation all
    // key on run_fingerprint, so this subcommand lets an operator predict
    // (or debug) whether two submits will share one execution.
    BackendId backend = BackendId::kPaperExact;
    if (const auto backend_name = args.get("backend")) {
      const auto parsed = portfolio::parse_backend(*backend_name);
      CBC_EXPECTS(parsed.has_value(), "unknown --backend: " + *backend_name);
      // No queue here, so auto is never under pressure: paper_exact —
      // the same resolution an idle daemon would make.
      backend = portfolio::resolve_auto_backend(*parsed, false);
    }
    Graph graph(0, {});
    std::optional<Digraph> digraph;
    if (backend == BackendId::kDirected) {
      CBC_EXPECTS(args.positional().size() == 2 || args.get("generate"),
                  "usage: congestbc_cli fingerprint GRAPH.txt [options]");
      if (args.get("generate")) {
        digraph = load_digraph(args);
      } else {
        std::ifstream file(args.positional()[1]);
        CBC_EXPECTS(file.good(), "cannot open " + args.positional()[1]);
        digraph = read_directed_edge_list(file);
      }
    } else if (args.get("generate")) {
      graph = load_graph(args);
    } else {
      CBC_EXPECTS(args.positional().size() == 2,
                  "usage: congestbc_cli fingerprint GRAPH.txt [options]");
      std::ifstream file(args.positional()[1]);
      CBC_EXPECTS(file.good(), "cannot open " + args.positional()[1]);
      graph = read_edge_list(file);
    }
    const NodeId n =
        digraph.has_value() ? digraph->num_nodes() : graph.num_nodes();
    DistributedBcOptions bc_options;
    bc_options.backend = backend;
    if (backend == BackendId::kSampled) {
      bc_options.approx_samples =
          static_cast<std::uint32_t>(args.get_int_or("samples", 0));
      bc_options.approx_seed =
          static_cast<std::uint64_t>(args.get_int_or("sample-seed", 1));
    }
    bc_options.halve = !args.has("no-halve");
    if (const auto spec = args.get("faults")) {
      bc_options.faults = FaultPlan::parse(*spec);
    }
    bc_options.reliable_transport = args.has("reliable");
    if (const auto mantissa = args.get("mantissa")) {
      auto fmt = SoftFloatFormat::for_graph(n);
      fmt.mantissa_bits = static_cast<unsigned>(std::stoul(*mantissa));
      bc_options.format = fmt;
      bc_options.budget_bits = 0;
    }
    const auto hex = [](std::uint64_t fp) {
      char buf[19];
      std::snprintf(buf, sizeof buf, "0x%016llx",
                    static_cast<unsigned long long>(fp));
      return std::string(buf);
    };
    std::cout << "graph fingerprint:   "
              << hex(digraph.has_value() ? digraph_fingerprint(*digraph)
                                         : graph_fingerprint(graph))
              << "\n"
              << "options fingerprint: "
              << hex(options_fingerprint(bc_options, n)) << "\n"
              << "run fingerprint:     "
              << hex(digraph.has_value()
                         ? run_fingerprint(*digraph, bc_options)
                         : run_fingerprint(graph, bc_options))
              << "\n";
    return 0;
  }
  if (args.has("weighted")) {
    CBC_EXPECTS(args.positional().size() == 1,
                "--weighted requires an input file");
    std::ifstream file(args.positional()[0]);
    CBC_EXPECTS(file.good(), "cannot open " + args.positional()[0]);
    const WeightedGraph wg = read_weighted_edge_list(file);
    const auto result = run_distributed_weighted_bc(wg);
    std::vector<NodeId> order(wg.num_nodes());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return result.betweenness[a] > result.betweenness[b];
    });
    const auto count = std::min<std::uint64_t>(
        wg.num_nodes(),
        static_cast<std::uint64_t>(args.get_int_or("top", 10)));
    Table table({"node", "weighted betweenness", "weighted closeness"});
    for (std::uint64_t i = 0; i < count; ++i) {
      const NodeId v = order[i];
      table.add_row({std::to_string(v),
                     format_double(result.betweenness[v], 6),
                     format_double(result.closeness[v], 4)});
    }
    table.print(std::cout);
    std::cout << "\nsubdivided to " << result.subdivided_nodes << " nodes; "
              << result.rounds << " rounds; weighted diameter "
              << result.weighted_diameter << "\n";
    return 0;
  }

  if (const auto backend_name = args.get("backend")) {
    // Portfolio path: any of the four registered backends, dispatched
    // through the same run_portfolio() the serving daemon uses.  `auto`
    // resolves to paper_exact — a local one-shot run has no queue to be
    // under pressure from.
    const auto parsed = portfolio::parse_backend(*backend_name);
    CBC_EXPECTS(parsed.has_value(), "unknown --backend: " + *backend_name);
    const BackendId backend = portfolio::resolve_auto_backend(*parsed, false);

    DistributedBcOptions bc_options;
    bc_options.backend = backend;
    bc_options.halve = !args.has("no-halve");
    bc_options.threads = static_cast<unsigned>(args.get_int_or("threads", 1));
    if (backend == BackendId::kSampled) {
      bc_options.approx_samples =
          static_cast<std::uint32_t>(args.get_int_or("samples", 0));
      bc_options.approx_seed =
          static_cast<std::uint64_t>(args.get_int_or("sample-seed", 1));
    }

    Graph graph(0, {});
    std::optional<Digraph> digraph;
    portfolio::BackendRequest breq;
    if (backend == BackendId::kDirected) {
      digraph = load_digraph(args);
      breq.digraph = &*digraph;
    } else {
      graph = load_graph(args);
      breq.graph = &graph;
    }
    const NodeId n =
        digraph.has_value() ? digraph->num_nodes() : graph.num_nodes();
    if (const auto mantissa = args.get("mantissa")) {
      auto fmt = SoftFloatFormat::for_graph(n);
      fmt.mantissa_bits = static_cast<unsigned>(std::stoul(*mantissa));
      bc_options.format = fmt;
      bc_options.budget_bits = 0;
    }
    breq.options = bc_options;
    const RunOutcome outcome = portfolio::run_portfolio(breq);

    if (args.has("json")) {
      std::cout << to_json(outcome.result) << "\n";
      return outcome.complete() ? 0 : 2;
    }
    const auto count = args.has("all")
                           ? n
                           : std::min<std::uint64_t>(
                                 n, static_cast<std::uint64_t>(
                                        args.get_int_or("top", 10)));
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return outcome.result.betweenness[a] > outcome.result.betweenness[b];
    });
    Table table({"node", "betweenness", "closeness"});
    for (std::uint64_t i = 0; i < count; ++i) {
      const NodeId v = order[i];
      table.add_row({std::to_string(v),
                     format_double(outcome.result.betweenness[v], 6),
                     format_double(outcome.result.closeness[v], 4)});
    }
    table.print(std::cout);
    std::cout << "\nbackend " << to_string(backend) << ": "
              << outcome.result.rounds << " rounds, diameter "
              << outcome.result.diameter << "\n";
    if (backend == BackendId::kSampled) {
      const std::uint32_t budget =
          portfolio::resolve_sample_budget(n, bc_options.approx_samples);
      std::cout << "sampled " << budget << "/" << n
                << " sources (seed " << bc_options.approx_seed
                << "); max abs BC error <= "
                << format_double(portfolio::sampled_error_bound(n, budget, 0.05),
                                 2)
                << " with probability 0.95\n";
    }
    return outcome.complete() ? 0 : 2;
  }

  const Graph graph = load_graph(args);

  if (const auto dump = args.get("dump-graph")) {
    std::ofstream out(*dump);
    CBC_EXPECTS(out.good(), "cannot open " + *dump + " for writing");
    write_edge_list(out, graph);
    std::cout << "wrote " << graph.num_nodes() << " nodes / "
              << graph.num_edges() << " edges to " << *dump << "\n";
    return 0;
  }

  if (args.has("stats")) {
    std::cout << "nodes:     " << graph.num_nodes() << "\n"
              << "edges:     " << graph.num_edges() << "\n"
              << "max deg:   " << graph.max_degree() << "\n"
              << "connected: " << (is_connected(graph) ? "yes" : "no") << "\n";
    if (is_connected(graph) && graph.num_nodes() > 0) {
      std::cout << "diameter:  " << diameter(graph) << "\n"
                << "radius:    " << radius(graph) << "\n";
    }
    return 0;
  }

  if (args.has("apsp")) {
    const auto result = run_distributed_apsp(graph);
    std::cout << "distributed APSP: " << result.rounds << " rounds, diameter "
              << result.diameter << "\n";
    if (graph.num_nodes() <= 32) {
      std::cout << "\ndistance matrix (row = node, col = source):\n";
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        for (NodeId s = 0; s < graph.num_nodes(); ++s) {
          std::cout << result.distances[v][s]
                    << (s + 1 == graph.num_nodes() ? "\n" : " ");
        }
      }
    } else {
      std::cout << "(distance matrix suppressed for N > 32)\n";
    }
    return 0;
  }

  // Checkpoint/resume flags route through the watchdog path too: a
  // suspended or resumed run wants the classified-outcome report, not an
  // exception.
  const bool snapshot_flags =
      args.has("checkpoint-every") || args.has("checkpoint-dir") ||
      args.has("resume") || args.has("halt-at-round");
  if (args.has("faults") || args.has("reliable") || snapshot_flags) {
    DistributedBcOptions bc_options;
    bc_options.halve = !args.has("no-halve");
    if (const auto spec = args.get("faults")) {
      bc_options.faults = FaultPlan::parse(*spec);
    }
    bc_options.reliable_transport = args.has("reliable");
    bc_options.stall_window =
        static_cast<std::uint64_t>(args.get_int_or("stall-window", 0));
    bc_options.threads = static_cast<unsigned>(args.get_int_or("threads", 1));
    bc_options.checkpoint_every =
        static_cast<std::uint64_t>(args.get_int_or("checkpoint-every", 0));
    bc_options.checkpoint_dir = args.get("checkpoint-dir").value_or("");
    bc_options.checkpoint_keep_last =
        static_cast<unsigned>(args.get_int_or("checkpoint-keep", 2));
    bc_options.resume_from = args.get("resume").value_or("");
    bc_options.halt_at_round =
        static_cast<std::uint64_t>(args.get_int_or("halt-at-round", 0));
    std::optional<obs::FlightRecorder> recorder;
    const auto trace_out = args.get("trace-out");
    if (trace_out) {
      recorder.emplace();
      bc_options.recorder = &*recorder;
    }
    if (args.has("json")) {
      // Machine output: the result JSON carries the resume lineage
      // (suspended / resumed_from_round / checkpoints); the exit code
      // still distinguishes complete (0) / suspended (3) / failed (2).
      const RunOutcome outcome = run_bc_with_watchdog(graph, bc_options);
      if (trace_out) {
        write_trace_out(*trace_out, *recorder, outcome.result);
      }
      std::cout << to_json(outcome.result) << "\n";
      if (outcome.status == RunStatus::kSuspended) {
        return 3;
      }
      return outcome.complete() ? 0 : 2;
    }
    std::cout << "fault plan: " << bc_options.faults.describe() << "\n"
              << "transport:  "
              << (bc_options.reliable_transport ? "reliable (self-healing)"
                                                : "bare (paper model)")
              << "\n\n";
    const RunOutcome outcome = run_bc_with_watchdog(graph, bc_options);
    if (trace_out) {
      write_trace_out(*trace_out, *recorder, outcome.result);
    }

    const auto count = args.has("all")
                           ? graph.num_nodes()
                           : std::min<std::uint64_t>(
                                 graph.num_nodes(),
                                 static_cast<std::uint64_t>(
                                     args.get_int_or("top", 10)));
    std::vector<NodeId> order(graph.num_nodes());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return outcome.result.betweenness[a] > outcome.result.betweenness[b];
    });
    Table table({"node", "betweenness", "closeness", "finished"});
    for (std::uint64_t i = 0; i < count; ++i) {
      const NodeId v = order[i];
      table.add_row({std::to_string(v),
                     format_double(outcome.result.betweenness[v], 6),
                     format_double(outcome.result.closeness[v], 4),
                     outcome.completion[v].done ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "\n" << outcome.summary() << "\n";
    const auto& m = outcome.result.metrics;
    std::cout << "fault events: dropped " << m.dropped_messages
              << ", duplicated " << m.duplicated_messages << ", delayed "
              << m.delayed_messages << ", crashed-node rounds "
              << m.crashed_node_rounds << "\n";
    if (outcome.result.resumed_from_round.has_value()) {
      std::cout << "resumed from round " << *outcome.result.resumed_from_round
                << "\n";
    }
    for (const auto& path : outcome.result.checkpoints) {
      std::cout << "checkpoint: " << path << "\n";
    }
    if (outcome.status == RunStatus::kSuspended) {
      return 3;  // resumable suspension, not a failure
    }
    return outcome.complete() ? 0 : 2;
  }

  AnalysisOptions options;
  options.compare_with_brandes = !args.has("no-check");
  options.distributed.halve = !args.has("no-halve");
  options.distributed.threads =
      static_cast<unsigned>(args.get_int_or("threads", 1));
  MessageTrace trace;
  if (args.has("trace")) {
    options.distributed.trace = &trace;
  }
  std::optional<obs::FlightRecorder> recorder;
  const auto trace_out = args.get("trace-out");
  if (trace_out) {
    recorder.emplace();
    options.distributed.recorder = &*recorder;
  }
  if (const auto samples = args.get("samples")) {
    const auto k = static_cast<std::size_t>(std::stoll(*samples));
    CBC_EXPECTS(k >= 1 && k <= graph.num_nodes(), "bad --samples");
    Rng rng(static_cast<std::uint64_t>(args.get_int_or("seed", 1)));
    std::vector<bool> mask(graph.num_nodes(), false);
    for (const auto s : rng.sample_without_replacement(graph.num_nodes(), k)) {
      mask[static_cast<std::size_t>(s)] = true;
    }
    options.distributed.sources = mask;
    options.compare_with_brandes = false;  // estimator: no exact parity
  }
  if (const auto mantissa = args.get("mantissa")) {
    auto fmt = SoftFloatFormat::for_graph(graph.num_nodes());
    fmt.mantissa_bits = static_cast<unsigned>(std::stoul(*mantissa));
    options.distributed.format = fmt;
    options.distributed.budget_bits = 0;
  }

  Runner runner(graph);
  const auto report = runner.analyze(options);
  if (trace_out) {
    write_trace_out(*trace_out, *recorder, report.distributed);
  }

  if (args.has("json")) {
    std::cout << to_json(report) << "\n";
    return 0;
  }

  const auto count = args.has("all")
                         ? graph.num_nodes()
                         : std::min<std::uint64_t>(
                               graph.num_nodes(),
                               static_cast<std::uint64_t>(
                                   args.get_int_or("top", 10)));
  std::vector<NodeId> order(graph.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return report.distributed.betweenness[a] > report.distributed.betweenness[b];
  });

  Table table({"node", "betweenness", "closeness", "graph centrality",
               "stress"});
  for (std::uint64_t i = 0; i < count; ++i) {
    const NodeId v = order[i];
    table.add_row(
        {std::to_string(v),
         format_double(report.distributed.betweenness[v], 6),
         format_double(report.distributed.closeness[v], 4),
         format_double(report.distributed.graph_centrality[v], 4),
         format_double(static_cast<double>(report.distributed.stress[v]), 6)});
  }
  table.print(std::cout);
  std::cout << "\n" << report.summary() << "\n";

  if (args.has("trace")) {
    std::cout << "\nactivity |" << trace.activity_timeline(64) << "| ("
              << trace.total_messages() << " messages over "
              << report.metrics.rounds << " rounds)\n";
  }

  if (args.has("metrics")) {
    const auto& m = report.metrics;
    std::cout << "\nsimulator metrics:\n"
              << "  rounds:                 " << m.rounds << "\n"
              << "  physical messages:      " << m.total_physical_messages
              << "\n"
              << "  logical messages:       " << m.total_logical_messages
              << "\n"
              << "  total bits:             " << m.total_bits << "\n"
              << "  max bits/edge/round:    " << m.max_bits_on_edge_round
              << "\n"
              << "  max bundle size:        " << m.max_logical_on_edge_round
              << "\n"
              << "  aggregation epoch:      "
              << report.distributed.aggregation_epoch << "\n"
              << "  diameter:               " << report.distributed.diameter
              << "\n"
              << "  max node state (bytes): "
              << report.distributed.max_node_state_bytes << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 1;
  }
}
