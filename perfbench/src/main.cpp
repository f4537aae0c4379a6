// perfbench — the end-to-end benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --work DIR --daemon BIN --router BIN
//
// Runs one workload (exact_solve, sampled_large, serve_tier,
// stream_writes) and prints, as its last line, one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
// or with --trace 1 the per-layer ones (preceded by the layer table and
// the span self-time table).  perfbench/run.py builds it and supplies
// the paths.
#include <sys/stat.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t op_count(const Options& options, double per_second) {
  return std::max<std::uint64_t>(
      40, static_cast<std::uint64_t>(std::llround(options.seconds * per_second)));
}

void write_trace(const Options& options, const std::string& json) {
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream(path) << json << '\n';
  std::cout << "trace written to " << path << '\n';
}

std::string merge_trace(const std::string& recorder_doc) {
  const std::string ours = tracer().chrome_events();
  if (recorder_doc.empty()) {
    return "{\"traceEvents\":[" + ours + "]}";
  }
  const std::size_t close = recorder_doc.rfind(']');
  const std::size_t last = recorder_doc.find_last_not_of(" \n\t", close - 1);
  const bool empty = last != std::string::npos && recorder_doc[last] == '[';
  return recorder_doc.substr(0, close) + (empty ? "" : ",") + ours +
         recorder_doc.substr(close);
}

namespace {

struct LayerName {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.  A workload in which
/// a layer does no work reports it as 0.
constexpr LayerName kLayers[] = {
    {"graph.read_ms", "ms"},           {"portfolio.heap_allocs", "count"},
    {"portfolio.minor_faults", "count"}, {"algo.node_state_bytes", "bytes"},
    {"algo.tree_ms", "ms"},            {"algo.counting_ms", "ms"},
    {"algo.aggregation_ms", "ms"},     {"congest.dispatch_ms", "ms"},
    {"congest.merge_ms", "ms"},        {"congest.active_set_ms", "ms"},
    {"congest.msgs_per_s", "1/s"},     {"congest.bits", "bits"},
    {"core.lane_wait_ms", "ms"},       {"core.lane_speedup", "x"},
    {"service.submit_rtt_ms", "ms"},   {"service.result_rtt_ms", "ms"},
    {"service.polls_per_result", "count"}, {"service.hit_ratio", "ratio"},
    {"service.executions", "count"},   {"service.job_p99_ms", "ms"},
    {"service.utilization", "ratio"},  {"service.max_ok_rps", "1/s"},
    {"cluster.hop_ms", "ms"},
    {"stream.mutate_rtt_ms", "ms"},    {"stream.read_ms", "ms"},
    {"stream.dirty_share", "ratio"},   {"stream.invalidations", "count"},
    {"bench.lag_ms", "ms"},            {"bench.lag_p50_ms", "ms"},
    {"obs.overhead", "x"},
};

void complete_layers(Outcome& outcome) {
  std::map<std::string, Metric> got;
  for (const Metric& m : outcome.metrics) {
    got[m.name] = m;
  }
  outcome.metrics.clear();
  for (const LayerName& l : kLayers) {
    const auto it = got.find(l.name);
    outcome.metrics.push_back(it != got.end() ? it->second
                                              : Metric{l.name, 0.0, l.unit});
  }
}

constexpr const char* kUsage =
    "usage: perfbench --workload exact_solve|sampled_large|serve_tier|"
    "stream_writes\n"
    "                 --seed N --seconds S --trace 0|1 --work DIR\n"
    "                 --daemon BIN --router BIN\n";

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work") {
      options.work_dir = value;
    } else if (flag == "--daemon") {
      options.daemon_bin = value;
    } else if (flag == "--router") {
      options.router_bin = value;
    } else {
      std::cerr << "unknown flag " << flag << '\n' << kUsage;
      return 2;
    }
  }
  if (options.work_dir.empty() || !(options.seconds > 0.0)) {
    std::cerr << kUsage;
    return 2;
  }
  if (const std::string bad = reference_self_test(); !bad.empty()) {
    std::cerr << "reference self-test failed: " << bad << '\n';
    return 1;
  }
  ::mkdir(options.work_dir.c_str(), 0755);

  Outcome outcome;
  if (options.workload == "exact_solve" ||
      options.workload == "sampled_large") {
    outcome = run_solve(options);
  } else if (options.workload == "serve_tier") {
    outcome = run_serve_tier(options);
  } else if (options.workload == "stream_writes") {
    outcome = run_stream_writes(options);
  } else {
    std::cerr << "unknown workload '" << options.workload << "'\n" << kUsage;
    return 2;
  }

  for (const std::string& p : outcome.problems) {
    std::cerr << "check failed: " << p << '\n';
  }
  if (options.trace) {
    complete_layers(outcome);
    for (const Metric& m : outcome.metrics) {
      std::cout << "layer " << m.name << " = " << m.value << ' ' << m.unit
                << '\n';
    }
    std::cout << tracer().self_time_table();
  }
  std::cout << outcome.json() << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
