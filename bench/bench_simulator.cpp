// E12 — engineering throughput of the CONGEST simulator itself.
//
// Two personalities in one binary:
//
//   * default: the google-benchmark suite (wall-clock per full pipeline
//     run and derived message/round throughput).  Not a paper claim; it
//     documents what a downstream user can expect from the substrate.
//
//   * `bench_simulator --engine-report [flags]`: machine-readable engine
//     comparison.  Runs the pipeline under the legacy reference engine
//     and the frontier engine at several thread counts, and
//     writes BENCH_simulator.json with rounds/sec, logical-messages/sec,
//     heap-allocation counts and the largest per-node state per run.
//     Flags:
//       --baseline        legacy engine at threads=1 only (the
//                         reproducible before-picture; diff two reports
//                         with scripts/bench_compare.py)
//       --big             add the scale tier: ba_10k / er_10k (16
//                         sampled sources) and ba_100k (8 sampled
//                         sources), frontier thread curve included
//       --graphs A,B,..   keep only the named graphs (CI smoke uses
//                         --graphs ba_10k)
//       --threads L       override the thread list, e.g. --threads 1,4
//       --snap FILE       ingest a SNAP-style edge list (headerless
//                         "u v" lines, '#' comments) and bench it too
//       --huge            the 10^6-node tier: time generation of the
//                         BA/ER graphs, then simulate an 8-source
//                         sampled solve of ba_1m on one lane (a sampled
//                         node keeps O(deg + k) state; only exact BC,
//                         with its N rows per node, needs terabytes)
//       --out FILE        report path (default BENCH_simulator.json)
//       --repetitions N   repetitions per small-graph row (default 3;
//                         scale-tier rows always run once)
//
//     Every row records the host's hardware_threads so a comparison
//     script can refuse to read a "speedup" off an oversubscribed run.
//     The report also asserts that steady-state heap allocations on the
//     small graphs are thread-count-invariant per engine (a per-round
//     std::function per lane once cost ~300 extra allocations per run
//     at 8 threads; this gate keeps that fixed).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "algo/bc_pipeline.hpp"
#include "algo/bfs_tree.hpp"
#include "central/brandes.hpp"
#include "common/rng.hpp"
#include "core/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

// ------------------------------------------------------------------
// Global heap-allocation counter.  Counts every operator-new call in
// the process — exactly the "allocation count" the engine report
// publishes, because the point of the arena path is to drive this
// number (per pipeline run) down to a warm-up constant.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace congestbc;

// ------------------------------------------------------------ benchmarks

void BM_PipelineGrid(benchmark::State& state) {
  const auto side = static_cast<NodeId>(state.range(0));
  const Graph g = gen::grid(side, side);
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto result = run_distributed_bc(g);
    rounds = result.rounds;
    messages = result.metrics.total_logical_messages;
    benchmark::DoNotOptimize(result.betweenness.data());
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["msgs"] = static_cast<double>(messages);
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PipelineGrid)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(14)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineBa(benchmark::State& state) {
  Rng rng(7);
  const Graph g =
      gen::barabasi_albert(static_cast<NodeId>(state.range(0)), 2, rng);
  for (auto _ : state) {
    const auto result = run_distributed_bc(g);
    benchmark::DoNotOptimize(result.betweenness.data());
  }
}
BENCHMARK(BM_PipelineBa)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_CentralizedBrandes(benchmark::State& state) {
  Rng rng(7);
  const Graph g =
      gen::barabasi_albert(static_cast<NodeId>(state.range(0)), 2, rng);
  for (auto _ : state) {
    const auto bc = brandes_bc(g);
    benchmark::DoNotOptimize(bc.data());
  }
}
BENCHMARK(BM_CentralizedBrandes)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_SimulatorNetworkOnly(benchmark::State& state) {
  // Tree construction alone: isolates simulator overhead from algorithm
  // work (O(D) rounds, N programs).
  const auto side = static_cast<NodeId>(state.range(0));
  const Graph g = gen::grid(side, side);
  const WireFormat fmt =
      WireFormat::for_graph(g.num_nodes(), SoftFloatFormat::for_graph(g.num_nodes()));
  for (auto _ : state) {
    Network net(g,
                NetworkConfig{congest_budget_bits(g.num_nodes()), 100000, true});
    const auto metrics = net.run([&](NodeId v) {
      return std::make_unique<BfsTreeProgram>(v, 0, fmt);
    });
    benchmark::DoNotOptimize(metrics.rounds);
  }
}
BENCHMARK(BM_SimulatorNetworkOnly)->Arg(8)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- engine report

Graph load_dataset(const char* name) {
  for (const std::string prefix : {"data/", "../data/", "../../data/"}) {
    std::ifstream file(prefix + name);
    if (file.good()) {
      return read_edge_list(file);
    }
  }
  std::fprintf(stderr, "bench_simulator: data/%s not found (run from repo root)\n",
               name);
  std::exit(2);
}

/// Marks `k` seed-drawn distinct sources on an n-node graph (the sampled
/// estimator configuration the scale tier runs under).
std::vector<bool> sampled_sources(NodeId n, std::uint64_t k,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> mask(n, false);
  for (const std::uint64_t s : rng.sample_without_replacement(n, k)) {
    mask[static_cast<std::size_t>(s)] = true;
  }
  return mask;
}

struct ReportRow {
  std::string graph;
  std::uint32_t nodes = 0;
  std::string engine;  ///< "legacy" or "frontier"
  unsigned threads = 1;
  unsigned hardware_threads = 1;  ///< of the host that produced the row
  std::uint64_t samples = 0;      ///< sampled sources (0 = every node)
  double seconds = 0;  ///< mean wall-clock per run
  std::uint64_t rounds = 0;
  double rounds_per_sec = 0;
  std::uint64_t logical_messages = 0;
  double messages_per_sec = 0;
  std::uint64_t heap_allocations = 0;  ///< mean operator-new calls per run
  std::uint64_t node_state_bytes = 0;  ///< max_node_state_bytes of the run
};

/// One benchmark graph plus how the report should run it.
struct BenchGraph {
  std::string name;
  Graph graph;
  std::uint64_t samples = 0;  ///< 0 = all-sources exact BC
  bool scale_tier = false;    ///< single repetition, no warm-up run
};

ReportRow measure(const BenchGraph& bg, bool legacy, unsigned threads,
                  int repetitions) {
  DistributedBcOptions options;
  options.legacy_engine = legacy;
  options.threads = threads;
  // Real lanes even when the host has fewer cores: the row carries
  // hardware_threads so readers can gate speedup claims themselves.
  options.frontier_clamp_lanes = false;
  if (bg.samples != 0) {
    options.sources = sampled_sources(bg.graph.num_nodes(), bg.samples, 11);
  }
  if (bg.scale_tier) {
    repetitions = 1;
  } else {
    run_distributed_bc(bg.graph, options);  // warm-up (page-in, pools)
  }

  ReportRow row;
  row.graph = bg.name;
  row.nodes = bg.graph.num_nodes();
  row.engine = legacy ? "legacy" : "frontier";
  row.threads = threads;
  row.hardware_threads = ThreadPool::hardware_threads();
  row.samples = bg.samples;

  double total_seconds = 0;
  std::uint64_t total_allocs = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    const std::uint64_t allocs_before =
        g_heap_allocations.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = run_distributed_bc(bg.graph, options);
    const auto t1 = std::chrono::steady_clock::now();
    total_seconds += std::chrono::duration<double>(t1 - t0).count();
    total_allocs +=
        g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
    row.rounds = result.rounds;
    row.logical_messages = result.metrics.total_logical_messages;
    row.node_state_bytes = result.max_node_state_bytes;
  }
  row.seconds = total_seconds / repetitions;
  row.heap_allocations = total_allocs / static_cast<std::uint64_t>(repetitions);
  row.rounds_per_sec = static_cast<double>(row.rounds) / row.seconds;
  row.messages_per_sec =
      static_cast<double>(row.logical_messages) / row.seconds;
  return row;
}

void write_json(const std::vector<ReportRow>& rows, const std::string& path,
                bool baseline) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_simulator: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << "{\n"
      << "  \"benchmark\": \"congest-simulator-engine\",\n"
      << "  \"mode\": \"" << (baseline ? "baseline" : "full") << "\",\n"
      << "  \"hardware_threads\": " << ThreadPool::hardware_threads() << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ReportRow& r = rows[i];
    char buffer[704];
    std::snprintf(buffer, sizeof buffer,
                  "    {\"graph\": \"%s\", \"nodes\": %u, \"engine\": \"%s\", "
                  "\"threads\": %u, \"hardware_threads\": %u, "
                  "\"samples\": %llu, \"seconds\": %.6f, \"rounds\": %llu, "
                  "\"rounds_per_sec\": %.1f, \"logical_messages\": %llu, "
                  "\"messages_per_sec\": %.1f, \"heap_allocations\": %llu, "
                  "\"node_state_bytes\": %llu}%s\n",
                  r.graph.c_str(), r.nodes, r.engine.c_str(), r.threads,
                  r.hardware_threads,
                  static_cast<unsigned long long>(r.samples), r.seconds,
                  static_cast<unsigned long long>(r.rounds), r.rounds_per_sec,
                  static_cast<unsigned long long>(r.logical_messages),
                  r.messages_per_sec,
                  static_cast<unsigned long long>(r.heap_allocations),
                  static_cast<unsigned long long>(r.node_state_bytes),
                  i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
}

/// Steady-state allocations must not scale with the lane count: the only
/// thread-dependent allocations are one-time lane scratch (contexts,
/// arena blocks, pool queues), bounded here by a small per-lane budget.
/// Applies to the exact-BC small graphs, where every engine row ran.
int check_alloc_invariance(const std::vector<ReportRow>& rows) {
  int failures = 0;
  for (const ReportRow& base : rows) {
    if (base.threads != 1 || base.samples != 0) {
      continue;  // small exact-BC graphs only
    }
    for (const ReportRow& other : rows) {
      if (other.graph != base.graph || other.engine != base.engine ||
          other.threads <= 1 || other.samples != 0) {
        continue;
      }
      const std::uint64_t lo =
          std::min(base.heap_allocations, other.heap_allocations);
      const std::uint64_t hi =
          std::max(base.heap_allocations, other.heap_allocations);
      const std::uint64_t budget = 64 + 16ull * other.threads;
      if (hi - lo > budget) {
        std::fprintf(stderr,
                     "ALLOC DRIFT: %s/%s %llu allocs at 1 thread but %llu at "
                     "%u threads (budget %llu) — a per-round allocation is "
                     "scaling with the lane count\n",
                     base.graph.c_str(), base.engine.c_str(),
                     static_cast<unsigned long long>(base.heap_allocations),
                     static_cast<unsigned long long>(other.heap_allocations),
                     other.threads, static_cast<unsigned long long>(budget));
        ++failures;
      }
    }
  }
  return failures;
}

bool contains(const std::vector<std::string>& list, const std::string& s) {
  for (const std::string& x : list) {
    if (x == s) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) {
        out.push_back(s.substr(start));
      }
      break;
    }
    if (comma > start) {
      out.push_back(s.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return out;
}

/// --huge: the 10^6-node tier.  Times the generators, then simulates a
/// sampled solve of ba_1m: 8 sources drawn as for the ba_100k row, one
/// lane.  A sampled node keeps O(deg + k) state (its k L_v rows and a
/// k-entry rank index) and the run shares one O(N) source table, so this
/// fits in a few GB.  Exact BC keeps N rows on every node — each node
/// ends up knowing the whole distance table, the algorithm's output — so
/// an exact 1M-node simulation would still need terabytes.
void run_huge_tier() {
  const auto time_gen = [](const char* name, auto&& make) {
    const auto t0 = std::chrono::steady_clock::now();
    Graph g = make();
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("huge tier: %-8s %u nodes %zu edges generated in %.2fs\n",
                name, g.num_nodes(), g.num_edges(),
                std::chrono::duration<double>(t1 - t0).count());
    return g;
  };
  const Graph ba = time_gen("ba_1m", [] {
    Rng rng(7);
    return gen::barabasi_albert(1'000'000, 2, rng);
  });
  time_gen("er_1m", [] {
    Rng rng(13);
    return gen::erdos_renyi_sparse(1'000'000, 4.0, rng);
  });

  DistributedBcOptions options;
  options.threads = 1;
  options.sources = sampled_sources(ba.num_nodes(), 8, 11);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = run_distributed_bc(ba, options);
  const auto t1 = std::chrono::steady_clock::now();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf(
      "huge tier: ba_1m    8 sampled sources, 1 lane: %.1fs, %llu rounds, "
      "%llu logical msgs, %llu B max node state, %.2f GB peak RSS\n",
      std::chrono::duration<double>(t1 - t0).count(),
      static_cast<unsigned long long>(result.rounds),
      static_cast<unsigned long long>(result.metrics.total_logical_messages),
      static_cast<unsigned long long>(result.max_node_state_bytes),
      static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e9);
}

int run_engine_report(bool baseline, const std::string& out_path,
                      int repetitions, bool big,
                      const std::vector<std::string>& graph_filter,
                      const std::vector<unsigned>& threads_override,
                      const std::vector<std::string>& snap_paths,
                      bool huge) {
  std::vector<BenchGraph> graphs;
  graphs.push_back({"karate", load_dataset("karate.txt"), 0, false});
  graphs.push_back({"lesmis", load_dataset("lesmis.txt"), 0, false});
  graphs.push_back({"grid14", gen::grid(14, 14), 0, false});
  if (big) {
    Rng ba10(7);
    graphs.push_back(
        {"ba_10k", gen::barabasi_albert(10'000, 2, ba10), 16, true});
    Rng er10(13);
    graphs.push_back(
        {"er_10k", gen::erdos_renyi_sparse(10'000, 4.0, er10), 16, true});
    Rng ba100(7);
    graphs.push_back(
        {"ba_100k", gen::barabasi_albert(100'000, 2, ba100), 8, true});
  }
  for (const std::string& path : snap_paths) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "bench_simulator: cannot read %s\n", path.c_str());
      return 2;
    }
    Graph g = read_snap_edge_list(file);
    const std::size_t slash = path.find_last_of('/');
    const std::string name =
        "snap:" + (slash == std::string::npos ? path : path.substr(slash + 1));
    const std::uint64_t samples = g.num_nodes() > 512 ? 16 : 0;
    const bool scale_tier = g.num_nodes() > 2000;
    graphs.push_back({name, std::move(g), samples, scale_tier});
  }

  std::vector<ReportRow> rows;
  for (const BenchGraph& bg : graphs) {
    if (!graph_filter.empty() && !contains(graph_filter, bg.name)) {
      continue;
    }
    struct Config {
      bool legacy;
      unsigned threads;
    };
    std::vector<Config> configs;
    if (baseline) {
      configs = {{true, 1}};  // the before-picture
    } else if (!bg.scale_tier) {
      configs = {{true, 1}, {false, 1}, {false, 2}, {false, 8}};
    } else {
      // Scale tier: the legacy engine pays O(N) per round across ~10 N
      // rounds.  The frontier curve is the story.
      configs = {{false, 1}, {false, 2}, {false, 4}, {false, 8}};
    }
    if (!threads_override.empty()) {
      std::vector<Config> filtered;
      for (const Config& c : configs) {
        for (const unsigned t : threads_override) {
          if (c.threads == t) {
            filtered.push_back(c);
          }
        }
      }
      configs = filtered;
    }
    for (const Config& c : configs) {
      const ReportRow row = measure(bg, c.legacy, c.threads, repetitions);
      std::printf(
          "%-12s %-8s threads=%u  %10.1f rounds/s  %12.0f msgs/s  %8llu "
          "allocs  %8llu B/node  (%.3fs/run)\n",
          row.graph.c_str(), row.engine.c_str(), row.threads,
          row.rounds_per_sec, row.messages_per_sec,
          static_cast<unsigned long long>(row.heap_allocations),
          static_cast<unsigned long long>(row.node_state_bytes), row.seconds);
      rows.push_back(row);
    }
  }

  const auto find = [&](const std::string& graph, const char* engine,
                        unsigned threads) -> const ReportRow* {
    for (const ReportRow& r : rows) {
      if (r.graph == graph && r.engine == engine && r.threads == threads) {
        return &r;
      }
    }
    return nullptr;
  };
  if (!baseline) {
    // Headline ratios.  Speedup-vs-threads is only meaningful when the
    // host actually has the cores; print it with that caveat attached.
    const unsigned hw = ThreadPool::hardware_threads();
    if (const ReportRow* before = find("grid14", "legacy", 1)) {
      if (const ReportRow* after = find("grid14", "frontier", 1)) {
        std::printf("grid14 speedup (frontier/legacy, threads=1): %.2fx; "
                    "allocations %llu -> %llu\n",
                    before->seconds / after->seconds,
                    static_cast<unsigned long long>(before->heap_allocations),
                    static_cast<unsigned long long>(after->heap_allocations));
      }
    }
    for (const char* graph : {"ba_10k", "ba_100k"}) {
      const ReportRow* one = find(graph, "frontier", 1);
      const ReportRow* eight = find(graph, "frontier", 8);
      if (one != nullptr && eight != nullptr) {
        std::printf("%s frontier speedup (8T vs 1T): %.2fx%s\n", graph,
                    one->seconds / eight->seconds,
                    hw < 8 ? "  [host has fewer cores — not a speedup claim]"
                           : "");
      }
    }
  }

  const int drift = check_alloc_invariance(rows);
  write_json(rows, out_path, baseline);
  std::printf("wrote %s\n", out_path.c_str());
  if (huge) {
    run_huge_tier();
  }
  return drift == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool engine_report = false;
  bool baseline = false;
  bool big = false;
  bool huge = false;
  int repetitions = 3;
  std::string out_path = "BENCH_simulator.json";
  std::vector<std::string> graph_filter;
  std::vector<unsigned> threads_override;
  std::vector<std::string> snap_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--engine-report") {
      engine_report = true;
    } else if (arg == "--baseline") {
      engine_report = true;
      baseline = true;
    } else if (arg == "--big") {
      engine_report = true;
      big = true;
    } else if (arg == "--huge") {
      engine_report = true;
      huge = true;
    } else if (arg == "--graphs" && i + 1 < argc) {
      engine_report = true;
      for (std::string& name : split_commas(argv[++i])) {
        graph_filter.push_back(std::move(name));
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      for (const std::string& t : split_commas(argv[++i])) {
        threads_override.push_back(
            static_cast<unsigned>(std::atoi(t.c_str())));
      }
    } else if (arg == "--snap" && i + 1 < argc) {
      engine_report = true;
      snap_paths.push_back(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--repetitions" && i + 1 < argc) {
      repetitions = std::atoi(argv[++i]);
    }
  }
  if (engine_report) {
    return run_engine_report(baseline, out_path,
                             repetitions < 1 ? 1 : repetitions, big,
                             graph_filter, threads_override, snap_paths, huge);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
