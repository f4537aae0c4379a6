// Measurement plumbing shared by the workloads: clocks, order
// statistics, process counters read from /proc, the benchmark's own span
// tracer, and the result record perfbench prints.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the same clock obs::FlightRecorder reads).
std::uint64_t now_ns();
double ms_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// CPU time of this process, all threads (CLOCK_PROCESS_CPUTIME_ID).
std::uint64_t process_cpu_ns();

double median(std::vector<double> values);
/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th smallest value.  Needs n >= 40, or it is no tail.
double tail_value(std::vector<double> values);

/// Counters of another process read from /proc/<pid>.
struct ProcSample {
  double cpu_ms = 0.0;   ///< utime + stime
  double peak_rss_mb = 0.0;  ///< VmHWM
};
ProcSample sample_process(int pid);  // pid 0 = this process

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints.  `metrics` are the end-to-end metrics (untraced
/// run) or the per-layer ones (traced run).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit);
  /// Records a check that did not hold; the run reports correct=false.
  void wrong(const std::string& what);
  /// Counts an operation that failed (no result to check) and says why on
  /// standard error; `correct` speaks only of the operations that did not.
  void fail(const std::string& why);
  std::string json() const;
};

/// One benchmark-side span: a layer boundary crossed by one operation.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root of its operation
  std::uint64_t op = 0;      ///< shared by every span of one operation
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Keeps spans in memory while tracing is on; nothing is recorded when
/// it is off.
class Tracer {
 public:
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }
  std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const Span& span);
  std::vector<Span> spans() const;
  /// Lines "span NAME count total_ms self_ms": self time is the span's
  /// duration minus the part its child spans cover.
  std::string self_time_table() const;
  /// Chrome trace "X" events for the spans (pid 3), comma-separated.
  std::string chrome_events() const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

Tracer& tracer();

/// RAII span; a no-op when the tracer is off.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t op, std::uint64_t parent = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool on_;
};

/// Operator-new calls counted by the benchmark's allocation hook while
/// counting is on (alloc_hook.cpp).
void count_allocations(bool on);
std::uint64_t allocations();

/// Minor page faults of this process so far (getrusage).
std::uint64_t minor_faults();

}  // namespace perfbench
