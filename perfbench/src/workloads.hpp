// The four workloads.  Each builds its inputs and reference answers from
// the seed, sets the program up kSetups times (setup_s is the median),
// runs a fixed number of operations, checks every output, and returns
// the end-to-end metrics, or with `trace` the per-layer ones.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// Set-ups per run; the last one serves the measured operations.
inline constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;    ///< inputs, spools, logs and traces go here
  std::string daemon_bin;  ///< congestbcd
  std::string router_bin;  ///< congestbc_router
};

/// Operation count of a run: `per_second` operations for each second
/// asked for, and never fewer than 40 so the tail has ten samples beyond
/// it.  Fixed by the arguments alone, so every run of a workload
/// attempts the same whole rounds of operations.
std::uint64_t op_count(const Options& options, double per_second);

/// Writes `json` (a Chrome trace document) next to the run's inputs.
void write_trace(const Options& options, const std::string& json);

/// Merges the benchmark's own spans into a {"traceEvents":[...]}
/// document (or makes one when `recorder_doc` is empty).
std::string merge_trace(const std::string& recorder_doc);

Outcome run_solve(const Options& options);  // exact_solve, sampled_large
Outcome run_serve_tier(const Options& options);
Outcome run_stream_writes(const Options& options);

}  // namespace perfbench
