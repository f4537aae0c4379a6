#include "report.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double tail_value(std::vector<double> values) {
  if (values.size() <= 10) {
    return median(std::move(values));
  }
  std::sort(values.begin(), values.end());
  return values[values.size() - 11];
}

ProcSample sample_process(int pid) {
  const std::string base =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  ProcSample sample;
  {
    std::ifstream stat(base + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const std::size_t close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(text.substr(close + 2));
      std::string field;
      double utime = 0.0;
      double stime = 0.0;
      for (int i = 3; i <= 15 && (rest >> field); ++i) {
        if (i == 14) {
          utime = std::stod(field);
        } else if (i == 15) {
          stime = std::stod(field);
        }
      }
      const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
      sample.cpu_ms = (utime + stime) * 1000.0 / tick;
    }
  }
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      sample.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return sample;
}

void Outcome::add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Outcome::wrong(const std::string& what) {
  correct = false;
  if (problems.size() < 20) {
    problems.push_back(what);
  }
}

void Outcome::fail(const std::string& why) {
  ++failed;
  std::cerr << "operation failed: " << why << '\n';
}

std::string Outcome::json() const {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::self_time_table() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& s : all) {
    if (s.parent != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : all) {
    Row& row = rows[s.name];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t kids = it == child_ns.end() ? 0 : it->second;
    ++row.count;
    row.total_ms += static_cast<double>(dur) / 1e6;
    row.self_ms += static_cast<double>(dur > kids ? dur - kids : 0) / 1e6;
  }
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  for (const auto& [name, row] : rows) {
    out << "span " << name << " count=" << row.count
        << " total_ms=" << row.total_ms << " self_ms=" << row.self_ms << '\n';
  }
  return out.str();
}

std::string Tracer::chrome_events() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
         "\"args\":{\"name\":\"benchmark\"}}";
  // Operations run up to four at a time; op % 4 gives each a track.
  for (const Span& s : spans()) {
    out << ",{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":3,\"tid\":"
        << s.op % 4 << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"op\":" << s.op << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << "}}";
  }
  return out.str();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

SpanScope::SpanScope(const char* name, std::uint64_t op, std::uint64_t parent)
    : on_(tracer().enabled()) {
  if (on_) {
    span_.id = tracer().next_id();
    span_.parent = parent;
    span_.op = op;
    span_.name = name;
    span_.start_ns = now_ns();
  }
}

SpanScope::~SpanScope() {
  if (on_) {
    span_.end_ns = now_ns();
    tracer().record(span_);
  }
}

std::uint64_t minor_faults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

}  // namespace perfbench
