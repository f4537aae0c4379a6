// stream_writes: one congestbcd with a spool, serving one namespace of a
// BA graph on one connection.  The connection runs a closed loop of
// cycles; one cycle, the operation, is kBatches CAS MUTATE batches of one,
// two and three edge ops and then one incremental read at the new head.
// One namespace keeps reads from competing with each other for the host's
// cores, which made the tail of two concurrent namespaces swing by a
// quarter from run to run.  Three batches, not more, keep the cycle's
// journal fsyncs, whose time on a shared virtual disk varies from run to
// run, a small part of it, while six edge ops still dirty nearly every
// source, so every read does about the same work.
#include <chrono>
#include <filesystem>
#include <thread>

#include "graph/io.hpp"
#include "procs.hpp"
#include "reference.hpp"
#include "service/client.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = congestbc::service;

constexpr const char* kNamespace = "ns0";
constexpr std::uint32_t kNodes = 200;
constexpr unsigned kBatches = 3;  // MUTATE batches per incremental read
constexpr auto kPoll = std::chrono::milliseconds(5);  // RESULT cadence

/// An incremental read kept for the check after the loop.
struct Read {
  RefGraph graph;  ///< the benchmark's copy of the version read
  std::vector<std::uint8_t> block;
  std::uint64_t block_bits = 0;
};

/// The namespace, its op generator and its connection.
struct Stream {
  explicit Stream(EdgeOpGenerator generator) : gen(std::move(generator)) {}

  EdgeOpGenerator gen;
  svc::Client client;
  std::uint64_t head = 0;
  std::vector<double> latency_ms;  ///< per cycle
  std::vector<double> mutate_ms;
  std::vector<double> read_ms;
  std::vector<Read> reads;
  std::vector<std::string> failures;  ///< reads that never delivered
  std::vector<std::string> problems;  ///< acknowledgements that were wrong
};

/// Incremental SUBMIT at the stream's head, polled until the block is in
/// hand.
void read_head(Stream& stream, std::uint64_t op, std::uint64_t parent) {
  SpanScope span("daemon.incremental_read", op, parent);
  svc::SubmitRequest s;
  s.stream_ns = kNamespace;
  s.stream_version = stream.head;
  s.incremental = true;
  s.backend = 1;  // paper_exact
  const std::uint64_t t0 = now_ns();
  const svc::SubmitReply sub = stream.client.submit(s);
  svc::ResultReply r;
  while (true) {
    r = stream.client.result(sub.job_id);
    if (r.ready || (r.state != svc::JobState::kQueued &&
                    r.state != svc::JobState::kRunning)) {
      break;
    }
    std::this_thread::sleep_for(kPoll);
  }
  stream.read_ms.push_back(ms_between(t0, now_ns()));
  if (!r.ready) {
    stream.failures.push_back("incremental read at v" +
                              std::to_string(stream.head) + ": " + r.detail);
    return;
  }
  stream.reads.push_back(
      Read{stream.gen.graph(), std::move(r.block_bytes), r.block_bits});
}

void create(Stream& stream) {
  svc::MutateRequest m;
  m.ns = kNamespace;
  m.base_version = 0;
  m.base_graph = edge_list_text(stream.gen.graph());
  const svc::MutateReply reply = stream.client.mutate(m);
  if (reply.outcome != svc::MutateOutcome::kCreated || reply.version != 0) {
    stream.problems.push_back("namespace not created: " + reply.detail);
  }
  stream.head = 0;
}

/// One MUTATE batch of `size` ops; it must be acknowledged at exactly
/// head + 1.
void mutate(Stream& stream, std::uint32_t size, std::uint64_t op,
            std::uint64_t parent) {
  SpanScope span("daemon.mutate", op, parent);
  svc::MutateRequest m;
  m.ns = kNamespace;
  m.base_version = stream.head;
  for (const EdgeOp& e : stream.gen.next_batch(size)) {
    m.ops.push_back(svc::MutateOp{e.kind, e.u, e.v});
  }
  const std::uint64_t t0 = now_ns();
  const svc::MutateReply reply = stream.client.mutate(m);
  stream.mutate_ms.push_back(ms_between(t0, now_ns()));
  if (reply.outcome != svc::MutateOutcome::kApplied ||
      reply.version != stream.head + 1 || reply.applied != m.ops.size()) {
    stream.problems.push_back("batch at v" + std::to_string(stream.head) +
                              " acknowledged as " +
                              svc::to_string(reply.outcome) + " v" +
                              std::to_string(reply.version) + ": " +
                              reply.detail);
  }
  stream.head = reply.version;
}

/// Checks every read against Brandes on the benchmark's copy of the
/// version it asked for; returns the summed rounds of the results.
double check_reads(const Stream& stream, Outcome& result) {
  double rounds = 0.0;
  for (const Read& r : stream.reads) {
    const svc::ResultBlock block = decode_block(r.block, r.block_bits);
    const double err = max_rel_error(block.betweenness, brandes(r.graph));
    if (block.run_status != 0 || !(err <= 1e-6)) {
      result.wrong("incremental read off by " + std::to_string(err) +
                   " relative");
    }
    rounds += static_cast<double>(block.rounds);
  }
  return rounds;
}

}  // namespace

Outcome run_stream_writes(const Options& options) {
  Outcome result;
  const RefGraph base = make_ba(kNodes, 2, derive_seed(options.seed, 300));
  const std::uint64_t ops_seed = derive_seed(options.seed, 400);
  Stream stream{EdgeOpGenerator(base, ops_seed)};
  ServerGroup group;
  std::uint16_t port = 0;

  // Set-up: the daemon on a fresh spool, the namespace created, and its
  // cold first incremental read.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    group.stop_all();
    stream.client.close();
    stream.gen = EdgeOpGenerator(base, ops_seed);
    const std::string spool =
        options.work_dir + "/stream-spool-" + std::to_string(rep);
    std::filesystem::remove_all(spool);
    std::filesystem::create_directories(spool);
    const std::uint64_t t0 = now_ns();
    group.spawn({options.daemon_bin, "--port", "0", "--workers", "2",
                 "--spool", spool},
                options.work_dir + "/stream_writes.log");
    port = group.await_listening(0);
    stream.client.connect("127.0.0.1", port);
    create(stream);
    read_head(stream, 0, 0);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const int pid = group.at(0).pid;
  check_reads(stream, result);
  for (const std::string& p : stream.problems) {
    result.wrong("set-up: " + p);
  }
  for (const std::string& f : stream.failures) {
    result.wrong("set-up read not delivered: " + f);
  }
  stream.problems.clear();
  stream.failures.clear();
  stream.read_ms.clear();
  stream.reads.clear();

  const std::uint64_t cycles = op_count(options, 3.0);
  const svc::StatsReply stats0 = stats_of(port);
  const double cpu0 = sample_process(pid).cpu_ms;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    if (options.trace && c == cycles / 2) {
      tracer().enable(true);
    }
    const std::uint64_t op = 1 + c;
    SpanScope cycle("stream.cycle", op);
    const std::uint64_t start = now_ns();
    // The batches of a cycle have 1, 2 and 3 ops whatever the seed, so
    // every cycle writes the same number of edge ops; the seed picks which.
    for (unsigned b = 0; b < kBatches; ++b) {
      mutate(stream, 1 + b, op, cycle.id());
    }
    read_head(stream, op, cycle.id());
    stream.latency_ms.push_back(ms_between(start, now_ns()));
  }
  tracer().enable(false);
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  const double cpu1 = sample_process(pid).cpu_ms;
  const svc::StatsReply stats1 = stats_of(port);
  const double peak_rss = sample_process(pid).peak_rss_mb;
  group.stop_all();

  for (const std::string& p : stream.problems) {
    result.wrong(p);
  }
  for (const std::string& f : stream.failures) {
    result.fail(f);
  }
  const std::vector<double>& latency = stream.latency_ms;
  const double rounds = check_reads(stream, result);
  const auto reads = static_cast<double>(stream.reads.size());
  result.attempted = latency.size();
  const double ops = static_cast<double>(latency.size());

  if (!options.trace) {
    result.add("setup_s", median(setup_s), "s");
    result.add("p50_ms", median(latency), "ms");
    result.add("tail_ms", tail_value(latency), "ms");
    result.add("ops_per_s", ops / wall_s, "1/s");
    result.add("peak_rss_mb", peak_rss, "MiB");
    result.add("cpu_ms_per_op", (cpu1 - cpu0) / ops, "ms");
    result.add("sim_rounds", rounds / reads, "rounds");
    return result;
  }

  const std::string base_text = edge_list_text(base);
  const std::uint64_t r0 = now_ns();
  (void)congestbc::read_edge_list_text(base_text);
  const double read_edge_ms = ms_between(r0, now_ns());
  const double batches = static_cast<double>(stream.mutate_ms.size());
  const auto split = latency.begin() + static_cast<long>(cycles / 2);
  const std::vector<double> untraced(latency.begin(), split);
  const std::vector<double> traced(split, latency.end());
  result.add("graph.read_ms", read_edge_ms, "ms");
  result.add("stream.mutate_rtt_ms", median(stream.mutate_ms), "ms");
  result.add("stream.read_ms", median(stream.read_ms), "ms");
  result.add("stream.dirty_share",
             static_cast<double>(stats1.dirty_sources_rerun -
                                 stats0.dirty_sources_rerun) /
                 (static_cast<double>(kNodes) * reads),
             "ratio");
  result.add("stream.invalidations",
             static_cast<double>(stats1.cache_invalidations -
                                 stats0.cache_invalidations) /
                 batches,
             "count");
  result.add("obs.overhead", median(traced) / median(untraced), "x");
  write_trace(options, merge_trace(""));
  return result;
}

}  // namespace perfbench
