// congestbc_client — command-line client and load generator for the BC
// serving daemon (congestbcd).
//
// Usage:
//   congestbc_client [--host A --port P] COMMAND ...
//
// Commands:
//   submit GRAPH.txt   submit a job (inline graph); prints the admission
//                      disposition, job id, and fingerprint
//       --path NAME    submit by server-side path (daemon --graph-root)
//       --no-halve --faults SPEC --reliable --max-rounds R --threads T
//                      result-shaping / execution options
//       --wait         poll until the result is ready and print it
//       --retry        self-healing submit: retry with backoff + jitter
//                      through transport faults until the result lands
//                      or --deadline MS (default 120000) expires;
//                      implies --wait
//       --ns NS        stream-addressed submit: run against a live stream
//                      namespace instead of sending a graph
//       --version V    which stream version to run at (0 = live head)
//       --incremental  serve from the namespace's incremental maintainer
//       --backend B    portfolio backend (protocol v5): auto, paper_exact,
//                      cfp, directed, sampled.  `auto` lets the daemon's
//                      admission control pick — the reply shows what ran
//                      and whether it was downgraded under pressure
//       --samples K    source budget for --backend sampled (0 = server
//                      default, 4*sqrt(n))
//       --sample-seed S  source-sampling seed for --backend sampled
//   mutate NS          apply edge ops to a stream namespace (protocol v4)
//       --base G.txt   create the namespace with this version-0 graph
//       --version V    expected base version (optimistic concurrency)
//       --ops SPEC     comma-separated ops, "i:u:v" insert / "d:u:v" remove
//   status JOB         query a job's lifecycle state
//   result JOB         fetch (and print) a finished job's result
//   cancel JOB         cancel a queued or running job
//   stats              print the daemon's serving statistics
//   shutdown           begin a graceful drain
//   loadgen            spawn a daemon, fire concurrent mixed submits at
//                      it, drain it, and verify a clean exit — the smoke
//                      e2e wired into ctest (label: service)
//       --daemon BIN   path to the congestbcd binary (required)
//       --graphs A,B   comma-separated edge-list files to rotate through
//       --submits N    total submits (default 50)
//       --concurrency C  client threads (default 8)
//       --spool DIR    hand the spawned daemon a spool directory
//       --chaos SPEC   interpose an in-process chaos proxy with this
//                      ChaosPlan spec between the clients and the daemon
//       --chaos-seed S shorthand for a moderate built-in plan seeded S
//       --retry        wrap workers in the self-healing RetryingClient;
//                      reports attempt counts and retry amplification
//       --deadline MS  per-submit client deadline, propagated to the
//                      daemon's admission control
//       --mutate-mix K interleave one MUTATE per K submits against a live
//                      stream namespace seeded from the first graph, and
//                      report per-version submit latency
//       --backend-mix B1,B2,...  rotate submits across portfolio
//                      backends and report per-backend latency breakdown
//                      (mutually exclusive with --mutate-mix)
//       --cluster N    cluster mode: spawn a congestbc_router plus N
//                      congestbcd workers that --join it, and drive all
//                      traffic through the router; reports cluster-level
//                      p50/p99 (requires --router)
//       --router BIN   path to the congestbc_router binary
//       --kill-one     SIGTERM one worker once half the submits are in
//                      flight — its jobs must migrate and every client
//                      must still be served (zero failed jobs)
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "common/args.hpp"
#include "portfolio/backend.hpp"
#include "service/chaos.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"

namespace {

using namespace congestbc;
using namespace congestbc::service;

constexpr const char* kUsage =
    "usage: congestbc_client [--host A --port P] COMMAND ...\n"
    "commands: submit GRAPH.txt [--path NAME --ns NS --version V\n"
    "          --incremental --no-halve --faults SPEC --reliable\n"
    "          --max-rounds R --threads T --wait --retry\n"
    "          --deadline MS --backend B --samples K --sample-seed S]\n"
    "          mutate NS [--base GRAPH.txt --version V --ops i:u:v,d:u:v]\n"
    "          status JOB | result JOB | cancel JOB | stats | shutdown\n"
    "          loadgen --daemon BIN --graphs A,B [--submits N\n"
    "          --concurrency C --spool DIR --chaos SPEC --chaos-seed S\n"
    "          --retry --deadline MS --mutate-mix K --backend-mix B1,B2\n"
    "          --cluster N --router BIN --kill-one]\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Node count from an edge-list header ("N M"), skipping '#' comments.
std::uint64_t parse_node_count(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream hs(line);
    std::uint64_t n = 0;
    hs >> n;
    return n;
  }
  return 0;
}

std::string hex16(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

SubmitRequest build_submit(const Args& args, const std::string& operand) {
  SubmitRequest request;
  if (args.has("path")) {
    request.source = GraphSource::kPath;
    request.graph = *args.get("path");
  } else if (args.has("ns")) {
    // Stream-addressed: the daemon materializes the namespace's graph at
    // the requested version; no graph travels on the wire.
    request.source = GraphSource::kInline;
    request.stream_ns = *args.get("ns");
    request.stream_version =
        static_cast<std::uint64_t>(args.get_int_or("version", 0));
    request.incremental = args.has("incremental");
  } else {
    request.source = GraphSource::kInline;
    request.graph = read_file(operand);
  }
  request.halve = !args.has("no-halve");
  request.reliable = args.has("reliable");
  request.faults = args.get("faults").value_or("");
  request.max_rounds =
      static_cast<std::uint64_t>(args.get_int_or("max-rounds", 0));
  request.threads = static_cast<std::uint32_t>(args.get_int_or("threads", 0));
  if (const auto backend_name = args.get("backend")) {
    // Parse client-side so a typo fails here, not as a kBadRequest round
    // trip.
    const auto parsed = portfolio::parse_backend(*backend_name);
    if (!parsed) {
      throw std::runtime_error("unknown --backend: " + *backend_name);
    }
    request.backend = static_cast<std::uint8_t>(*parsed);
  }
  request.samples = static_cast<std::uint32_t>(args.get_int_or("samples", 0));
  request.sample_seed =
      static_cast<std::uint64_t>(args.get_int_or("sample-seed", 0));
  return request;
}

void print_result(const ResultReply& reply) {
  std::cout << "state: " << to_string(reply.state)
            << (reply.from_cache ? " (from cache)" : "") << "\n"
            << "fingerprint: " << hex16(reply.fingerprint) << "\n";
  if (!reply.detail.empty()) {
    std::cout << "detail: " << reply.detail << "\n";
  }
  if (!reply.ready) {
    return;
  }
  BitReader reader(reply.block_bytes.data(),
                   static_cast<std::size_t>(reply.block_bits));
  const ResultBlock block = decode_result_block(reader);
  std::cout << "run status: " << static_cast<unsigned>(block.run_status)
            << ", rounds: " << block.rounds << ", diameter: " << block.diameter
            << ", total bits: " << block.total_bits << "\n";
  const std::size_t n = block.betweenness.size();
  std::cout << "betweenness (" << n << " nodes):";
  for (std::size_t v = 0; v < n && v < 8; ++v) {
    std::cout << " " << block.betweenness[v];
  }
  if (n > 8) {
    std::cout << " ...";
  }
  std::cout << "\n";
}

void print_stats(const StatsReply& s) {
  const char* separator = "";
  for (const StatsField& field : kStatsFields) {
    field.visit([&](auto member) {
      std::cout << separator << field.name << "=" << s.*member;
    });
    separator = " ";
  }
  std::cout << "\n";
}

/// Parses "--ops i:1:2,d:3:4" into a MUTATE batch.
std::vector<MutateOp> parse_ops(const std::string& spec) {
  std::vector<MutateOp> ops;
  std::stringstream list(spec);
  std::string item;
  while (std::getline(list, item, ',')) {
    if (item.empty()) {
      continue;
    }
    char kind = 0;
    char c1 = 0;
    char c2 = 0;
    unsigned long long u = 0;
    unsigned long long v = 0;
    std::istringstream is(item);
    if (!(is >> kind >> c1 >> u >> c2 >> v) || c1 != ':' || c2 != ':' ||
        (kind != 'i' && kind != 'd')) {
      throw std::runtime_error("bad op \"" + item +
                               "\" (want i:u:v or d:u:v)");
    }
    MutateOp op;
    op.kind = kind == 'i' ? 1 : 2;
    op.u = static_cast<std::uint32_t>(u);
    op.v = static_cast<std::uint32_t>(v);
    ops.push_back(op);
  }
  return ops;
}

// ------------------------------------------------------------ loadgen

struct SpawnedDaemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// fork/execs a serving binary (congestbcd or congestbc_router) with the
/// given arguments and parses the announced "LISTENING <port>" line from
/// its stdout.
SpawnedDaemon spawn_server(const std::string& binary,
                           std::vector<std::string> argv_strings) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    argv_strings.insert(argv_strings.begin(), binary);
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (auto& s : argv_strings) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::perror("execv");
    _exit(127);
  }
  ::close(out_pipe[1]);
  // Read the child's stdout line by line until the port announcement.
  std::string line;
  SpawnedDaemon daemon;
  daemon.pid = pid;
  char ch;
  while (::read(out_pipe[0], &ch, 1) == 1) {
    if (ch != '\n') {
      line.push_back(ch);
      continue;
    }
    if (line.rfind("LISTENING ", 0) == 0) {
      daemon.port = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
      break;
    }
    line.clear();
  }
  ::close(out_pipe[0]);
  if (daemon.port == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw std::runtime_error(binary + " never announced LISTENING");
  }
  return daemon;
}

SpawnedDaemon spawn_daemon(const std::string& binary,
                           const std::string& spool) {
  std::vector<std::string> argv = {"--port", "0", "--workers", "2"};
  if (!spool.empty()) {
    argv.push_back("--spool");
    argv.push_back(spool);
  }
  return spawn_server(binary, argv);
}

/// A cluster run opens one socket per simulated client plus worker
/// links; lift the fd ceiling so thousands of concurrent clients measure
/// the serving tier, not this process's fd table.
void raise_fd_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

int run_loadgen(const Args& args) {
  const auto binary = args.get("daemon");
  if (!binary) {
    throw std::runtime_error("loadgen requires --daemon BIN");
  }
  std::vector<std::string> graph_texts;
  {
    std::stringstream list(args.get("graphs").value_or(""));
    std::string path;
    while (std::getline(list, path, ',')) {
      if (!path.empty()) {
        graph_texts.push_back(read_file(path));
      }
    }
  }
  if (graph_texts.empty()) {
    throw std::runtime_error("loadgen requires --graphs A[,B...]");
  }
  const int submits = static_cast<int>(args.get_int_or("submits", 50));
  const int concurrency = static_cast<int>(args.get_int_or("concurrency", 8));
  const auto deadline_ms =
      static_cast<std::uint64_t>(args.get_int_or("deadline", 0));
  const bool use_retry = args.has("retry");
  const int mutate_mix = static_cast<int>(args.get_int_or("mutate-mix", 0));
  const int cluster = static_cast<int>(args.get_int_or("cluster", 0));
  const bool kill_one = args.has("kill-one");
  if (cluster > 0 && (args.has("chaos") || args.has("chaos-seed"))) {
    // Router→worker chaos is the cluster test matrix's job (in-process
    // chaosproxy on the worker link); the loadgen keeps the two modes
    // orthogonal.
    throw std::runtime_error("--cluster and --chaos are mutually exclusive");
  }
  if (kill_one && cluster < 2) {
    throw std::runtime_error("--kill-one needs --cluster >= 2");
  }

  // --backend-mix: rotate submits across portfolio backends (protocol
  // v5) and report a per-backend latency breakdown at the end.
  std::vector<std::uint8_t> backend_mix;
  if (const auto spec = args.get("backend-mix")) {
    std::stringstream list(*spec);
    std::string name;
    while (std::getline(list, name, ',')) {
      if (name.empty()) {
        continue;
      }
      const auto parsed = portfolio::parse_backend(name);
      if (!parsed) {
        throw std::runtime_error("unknown backend in --backend-mix: " + name);
      }
      backend_mix.push_back(static_cast<std::uint8_t>(*parsed));
    }
    if (backend_mix.empty()) {
      throw std::runtime_error("--backend-mix lists no backends");
    }
    if (mutate_mix > 0) {
      // Stream submits restrict which backends are legal (no directed,
      // incremental pins paper_exact); keep the two mixes orthogonal.
      throw std::runtime_error(
          "--backend-mix and --mutate-mix are mutually exclusive");
    }
  }

  ChaosPlan plan;
  if (const auto spec = args.get("chaos")) {
    plan = ChaosPlan::parse(*spec);
  } else if (args.has("chaos-seed")) {
    // Moderate built-in adversity: enough corruption and stalling that a
    // non-healing client would fail, mild enough that the retry path must
    // converge on every submit.
    plan = ChaosPlan::parse(
        "seed=" + std::to_string(args.get_int_or("chaos-seed", 1)) +
        ",corrupt=0.02,stall=0.05,stall-ms=20,cut=0.01,partial=512,grace=2");
  }

  // Single-daemon mode spawns one congestbcd; cluster mode spawns a
  // congestbc_router plus N workers that --join it, and all client
  // traffic (submits, stats, shutdown) goes through the router.
  SpawnedDaemon daemon;
  std::vector<SpawnedDaemon> cluster_workers;
  // If anything past this point throws, the spawned tier must not
  // outlive the loadgen: a leaked router or worker keeps the inherited
  // stdout pipe open, and ctest then waits on it until its timeout.
  // The normal teardown path disarms the guard once everything is
  // reaped; the guard itself only fires on the failure paths.
  struct TierReaper {
    SpawnedDaemon* front;
    std::vector<SpawnedDaemon>* members;
    bool armed = true;
    ~TierReaper() {
      if (!armed) {
        return;
      }
      for (const SpawnedDaemon& w : *members) {
        if (w.pid > 0) {
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, nullptr, 0);
        }
      }
      if (front->pid > 0) {
        ::kill(front->pid, SIGKILL);
        ::waitpid(front->pid, nullptr, 0);
      }
    }
  } reaper{&daemon, &cluster_workers};
  if (cluster > 0) {
    const auto router_binary = args.get("router");
    if (!router_binary) {
      throw std::runtime_error("--cluster requires --router BIN");
    }
    raise_fd_limit();
    // The router holds finished blocks itself (--result-cache) so the
    // storm of identical submits and polls collapses to router-local
    // replies instead of serializing on the per-worker links.
    daemon = spawn_server(
        *router_binary, {"--port", "0", "--health-every", "200",
                         "--result-cache", "4096"});
    std::cout << "loadgen: router pid " << daemon.pid << " on port "
              << daemon.port << "\n";
    const std::string join = "127.0.0.1:" + std::to_string(daemon.port);
    const std::string spool_base = args.get("spool").value_or("");
    for (int w = 0; w < cluster; ++w) {
      std::vector<std::string> worker_args = {
          "--port", "0", "--workers", "2", "--join", join,
          "--join-every", "100"};
      if (!spool_base.empty()) {
        const std::string dir =
            spool_base + "/worker" + std::to_string(w);
        ::mkdir(spool_base.c_str(), 0755);
        ::mkdir(dir.c_str(), 0755);
        worker_args.push_back("--spool");
        worker_args.push_back(dir);
      }
      cluster_workers.push_back(spawn_server(*binary, worker_args));
      std::cout << "loadgen: worker " << w << " pid "
                << cluster_workers.back().pid << " on port "
                << cluster_workers.back().port << "\n";
    }
    // Wait for every worker's JOIN heartbeat to land: the aggregate
    // STATS sums each active member's pool (2 threads per worker here).
    const auto ring_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (true) {
      Client probe;
      probe.connect("127.0.0.1", daemon.port);
      if (probe.stats().workers >=
          static_cast<std::uint64_t>(2 * cluster)) {
        break;
      }
      if (std::chrono::steady_clock::now() >= ring_deadline) {
        throw std::runtime_error("cluster ring never filled");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cout << "loadgen: ring complete (" << cluster << " workers)\n";
  } else {
    daemon = spawn_daemon(*binary, args.get("spool").value_or(""));
    std::cout << "loadgen: daemon pid " << daemon.pid << " on port "
              << daemon.port << "\n";
  }

  // With a chaos plan, every worker connection runs through an in-process
  // deterministic chaos proxy; the drain/stats connection at the end goes
  // straight to the daemon so teardown is never a casualty of the test.
  std::unique_ptr<ChaosProxy> proxy;
  std::uint16_t connect_port = daemon.port;
  if (!plan.empty()) {
    proxy = std::make_unique<ChaosProxy>(plan, "127.0.0.1", daemon.port);
    proxy->start();
    connect_port = proxy->port();
    std::cout << "loadgen: chaos proxy on port " << connect_port << " ("
              << plan.describe() << ")\n";
  }

  // --mutate-mix: seed a live stream namespace from the first graph and
  // interleave one MUTATE per K submits with the query traffic.
  // Mutations go straight to the daemon (not through chaos) under one
  // lock, so the expected-version ledger stays exact; MUTATE-under-chaos
  // ambiguity is the stream tests' job.  Inserted chords connect existing
  // nodes (never disconnecting anything), and only chords the daemon
  // confirmed as applied are ever deleted — the seed graph stays a
  // subgraph of every version, so each head remains connected and
  // admissible for submits.
  constexpr const char* kStreamNs = "loadgen";
  std::uint64_t stream_nodes = 0;
  std::mutex stream_mutex;
  std::uint64_t expected_version = 0;
  std::uint64_t chord_step = 0;
  std::vector<MutateOp> deletable;
  std::atomic<std::uint64_t> mutations_done{0};
  std::unique_ptr<Client> mutator;
  if (mutate_mix > 0) {
    stream_nodes = parse_node_count(graph_texts[0]);
    if (stream_nodes < 3) {
      throw std::runtime_error("--mutate-mix needs a graph with >= 3 nodes");
    }
    mutator = std::make_unique<Client>();
    mutator->connect("127.0.0.1", daemon.port);
    MutateRequest create;
    create.ns = kStreamNs;
    create.base_graph = graph_texts[0];
    const MutateReply created = mutator->mutate(create);
    if (created.outcome != MutateOutcome::kCreated) {
      throw std::runtime_error("stream namespace creation failed: " +
                               created.detail);
    }
    std::cout << "loadgen: stream namespace \"" << kStreamNs << "\" at "
              << hex16(created.fingerprint) << "\n";
  }

  // Mixed traffic: rotate graphs, vary the execution hint (threads) so
  // identical result-keys flow in through different execution knobs —
  // exactly what coalescing and the cache must unify.
  std::atomic<int> next{0};
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> backoff_ms{0};
  std::atomic<std::uint64_t> corrupted_frames{0};
  std::mutex lat_mutex;
  std::vector<double> latencies;
  std::map<std::uint64_t, std::vector<double>> version_latencies;
  std::map<std::uint8_t, std::vector<double>> backend_latencies;
  const auto backend_for = [&](int i) -> std::uint8_t {
    return backend_mix.empty()
               ? std::uint8_t{1}  // paper_exact, the wire default
               : backend_mix[static_cast<std::size_t>(i) %
                             backend_mix.size()];
  };
  const auto note_latency = [&](std::chrono::steady_clock::time_point t0,
                                std::uint64_t version, int i) {
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::lock_guard<std::mutex> lock(lat_mutex);
    latencies.push_back(ms);
    if (mutate_mix > 0) {
      version_latencies[version].push_back(ms);
    }
    if (!backend_mix.empty()) {
      backend_latencies[backend_for(i)].push_back(ms);
    }
  };
  std::mutex log_mutex;

  auto make_request = [&](int i) {
    SubmitRequest request;
    request.source = GraphSource::kInline;
    if (mutate_mix > 0) {
      // Stream-addressed at the live head; alternate classic and
      // incremental serving so both fingerprint families flow through
      // coalescing and the cache.
      request.stream_ns = kStreamNs;
      request.incremental = (i % 2 == 1);
    } else {
      request.graph =
          graph_texts[static_cast<std::size_t>(i) % graph_texts.size()];
    }
    request.halve = true;
    request.threads = (i % 3 == 0) ? 2 : 1;
    request.deadline_ms = deadline_ms;
    if (!backend_mix.empty()) {
      request.backend = backend_for(i);
      if (request.backend ==
          static_cast<std::uint8_t>(BackendId::kSampled)) {
        request.sample_seed = 1;  // fixed seed: identical submits coalesce
      }
    }
    return request;
  };

  /// Snapshot of the version ledger, labelling each submit's latency.
  auto head_version = [&]() -> std::uint64_t {
    if (mutate_mix <= 0) {
      return 0;
    }
    std::lock_guard<std::mutex> lock(stream_mutex);
    return expected_version;
  };

  /// Every mutate_mix-th slot applies one chord op at the expected head.
  auto maybe_mutate = [&](int i) {
    if (mutate_mix <= 0 || (i + 1) % mutate_mix != 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(stream_mutex);
    MutateRequest request;
    request.ns = kStreamNs;
    request.base_version = expected_version;
    MutateOp op;
    const std::uint64_t k = chord_step++;
    if (k % 3 == 2 && !deletable.empty()) {
      op = deletable.back();
      deletable.pop_back();
      op.kind = 2;
    } else {
      const std::uint64_t u = k % stream_nodes;
      // Offset in [1, n-1] guarantees v != u.
      const std::uint64_t v =
          (u + 1 + (k * 7) % (stream_nodes - 1)) % stream_nodes;
      op.kind = 1;
      op.u = static_cast<std::uint32_t>(u);
      op.v = static_cast<std::uint32_t>(v);
    }
    request.ops.push_back(op);
    try {
      const MutateReply reply = mutator->mutate(request);
      if (reply.outcome != MutateOutcome::kApplied) {
        throw std::runtime_error(std::string(to_string(reply.outcome)) +
                                 ": " + reply.detail);
      }
      expected_version = reply.version;
      ++mutations_done;
      if (op.kind == 1 && reply.applied == 1) {
        deletable.push_back(op);
      }
    } catch (const std::exception& e) {
      ++failed;
      std::lock_guard<std::mutex> log(log_mutex);
      std::cerr << "loadgen: mutate @v" << request.base_version
                << " failed: " << e.what() << "\n";
    }
  };

  auto retry_worker = [&](unsigned widx) {
    RetryPolicy policy;
    policy.jitter_seed = widx + 1;  // distinct backoff phase per worker
    RetryingClient client("127.0.0.1", connect_port, policy);
    while (true) {
      const int i = next.fetch_add(1);
      if (i >= submits) {
        break;
      }
      maybe_mutate(i);
      const std::uint64_t ver = head_version();
      const auto t0 = std::chrono::steady_clock::now();
      try {
        const ResultReply result = client.submit_and_wait(make_request(i));
        note_latency(t0, ver, i);
        if (result.ready && result.state == JobState::kDone) {
          ++ok;
        } else {
          ++failed;
          std::lock_guard<std::mutex> lock(log_mutex);
          std::cerr << "loadgen: submit " << i << " ended "
                    << to_string(result.state) << ": " << result.detail
                    << "\n";
        }
      } catch (const std::exception& e) {
        note_latency(t0, ver, i);
        ++failed;
        std::lock_guard<std::mutex> lock(log_mutex);
        std::cerr << "loadgen: submit " << i << " gave up: " << e.what()
                  << "\n";
      }
    }
    attempts += client.stats().attempts;
    reconnects += client.stats().reconnects;
    backoff_ms += client.stats().backoff_ms;
    corrupted_frames += client.stats().corrupted_frames;
  };

  auto plain_worker = [&](unsigned) {
    // One persistent connection per simulated client, reused across its
    // whole submit stream — a transport error reconnects and retries the
    // slot instead of killing the thread.  At cluster scale this is what
    // keeps the run measuring the serving tier rather than ephemeral-port
    // churn (a thread-per-submit connect pattern exhausts the local port
    // range long before the daemon saturates).
    Client client;
    bool connected = false;
    while (true) {
      const int i = next.fetch_add(1);
      if (i >= submits) {
        return;
      }
      maybe_mutate(i);
      const std::uint64_t ver = head_version();
      const auto t0 = std::chrono::steady_clock::now();
      bool settled = false;
      std::string transport_error;
      for (int attempt = 0; attempt < 3 && !settled; ++attempt) {
        try {
          if (!connected) {
            client.connect("127.0.0.1", connect_port);
            connected = true;
          }
          ++attempts;
          const SubmitReply submitted = client.submit(make_request(i));
          if (submitted.disposition == SubmitDisposition::kBusy) {
            // Admission control said try later: served backpressure.
            ++ok;
            settled = true;
            break;
          }
          if (submitted.job_id == 0) {
            // Semantic rejection — retrying the same submit cannot help.
            ++failed;
            settled = true;
            std::lock_guard<std::mutex> lock(log_mutex);
            std::cerr << "loadgen: submit " << i << " rejected: "
                      << submitted.detail << "\n";
            break;
          }
          if (i % 7 == 0) {
            (void)client.status(submitted.job_id);  // mix queries in
          }
          const ResultReply result = client.wait_result(submitted.job_id);
          note_latency(t0, ver, i);
          if (result.ready && result.state == JobState::kDone) {
            ++ok;
          } else {
            ++failed;
            std::lock_guard<std::mutex> lock(log_mutex);
            std::cerr << "loadgen: job " << submitted.job_id << " ended "
                      << to_string(result.state) << ": " << result.detail
                      << "\n";
          }
          settled = true;
        } catch (const std::exception& e) {
          client.close();
          connected = false;
          ++reconnects;
          transport_error = e.what();
        }
      }
      if (!settled) {
        ++failed;
        std::lock_guard<std::mutex> lock(log_mutex);
        std::cerr << "loadgen: submit " << i
                  << " gave up after transport errors: " << transport_error
                  << "\n";
      }
    }
  };

  // --kill-one: once half the submits are in flight, SIGTERM the first
  // cluster worker.  Its drain suspends running jobs, MIGRATEs them (and
  // unfetched results) through the router to a survivor, and every
  // client polling a router job id must still get its bytes — the
  // zero-failed-jobs assertion below is the point of the exercise.
  std::atomic<bool> load_done{false};
  std::thread killer;
  if (kill_one) {
    killer = std::thread([&] {
      while (!load_done.load() && next.load() < submits / 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Kill a worker that actually holds state worth migrating:
      // queued/running jobs, or a completed result block (it ships as a
      // kResult transplant).  The ring may legitimately hash every
      // distinct fingerprint onto one worker, so the victim is chosen by
      // polling each worker's STATS directly (the router only exposes
      // the aggregate) rather than fixed up front — killing an idle
      // worker would make the migrated-in assertion below flaky.
      std::size_t victim = 0;
      const auto busy_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      bool found = false;
      while (!found && std::chrono::steady_clock::now() < busy_deadline) {
        for (std::size_t w = 0; w < cluster_workers.size(); ++w) {
          try {
            Client probe;
            probe.connect("127.0.0.1", cluster_workers[w].port);
            const StatsReply s = probe.stats();
            if (s.queue_depth + s.running + s.jobs_completed > 0) {
              victim = w;
              found = true;
              break;
            }
          } catch (const std::exception&) {
          }
        }
        if (!found) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      std::cout << "loadgen: SIGTERM worker " << victim << " (pid "
                << cluster_workers[victim].pid << ") mid-run\n";
      ::kill(cluster_workers[victim].pid, SIGTERM);
    });
  }

  std::vector<std::thread> workers;
  for (int c = 0; c < concurrency; ++c) {
    if (use_retry) {
      workers.emplace_back(retry_worker, static_cast<unsigned>(c));
    } else {
      workers.emplace_back(plain_worker, static_cast<unsigned>(c));
    }
  }
  for (auto& thread : workers) {
    thread.join();
  }
  load_done.store(true);
  if (killer.joinable()) {
    killer.join();
  }

  int exit_code = 0;
  bool cluster_clean = true;
  {
    Client client;
    client.connect("127.0.0.1", daemon.port);
    const StatsReply stats = client.stats();
    print_stats(stats);
    if (stats.coalesced + stats.cache_hits == 0 && submits > 4) {
      std::cerr << "loadgen: expected identical submits to coalesce or hit "
                   "the cache\n";
      exit_code = 1;
    }
    if (mutate_mix > 0 && stats.mutations_applied == 0) {
      std::cerr << "loadgen: expected MUTATE traffic to register in STATS\n";
      exit_code = 1;
    }
    if (cluster > 0) {
      if (kill_one && stats.migrated_in == 0) {
        // The killed worker had jobs in flight; at least one transplant
        // must have landed on a survivor (counted where it arrived).
        std::cerr << "loadgen: --kill-one saw no migrated-in jobs\n";
        exit_code = 1;
      }
      // Drain the workers first, through the live router (their
      // remaining state migrates, then they LEAVE); the router goes last.
      for (std::size_t w = 0; w < cluster_workers.size(); ++w) {
        ::kill(cluster_workers[w].pid, SIGTERM);
      }
      for (std::size_t w = 0; w < cluster_workers.size(); ++w) {
        int wstatus = 0;
        ::waitpid(cluster_workers[w].pid, &wstatus, 0);
        if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
          std::cerr << "loadgen: worker " << w << " exited unclean\n";
          cluster_clean = false;
        }
      }
    }
    const ShutdownReply drain = client.shutdown();
    if (!drain.draining) {
      std::cerr << "loadgen: SHUTDOWN did not begin a drain\n";
      exit_code = 1;
    }
  }
  int status = 0;
  ::waitpid(daemon.pid, &status, 0);
  reaper.armed = false;  // the whole tier is reaped; nothing to clean up
  const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                     cluster_clean;
  if (proxy) {
    proxy->stop();
    const ChaosStats& cs = proxy->stats();
    std::cout << "loadgen: chaos injected corrupted=" << cs.corrupted.load()
              << " stalled=" << cs.stalled.load() << " cut=" << cs.cut.load()
              << " rst=" << cs.rst.load() << " over " << cs.chunks.load()
              << " chunks on " << cs.connections.load() << " connections\n";
  }

  const auto percentile = [&](double p) {
    if (latencies.empty()) {
      return 0.0;
    }
    std::sort(latencies.begin(), latencies.end());
    const double rank =
        p / 100.0 * static_cast<double>(latencies.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, latencies.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return latencies[lo] + (latencies[hi] - latencies[lo]) * frac;
  };
  std::cout << "loadgen: latency_ms p50=" << percentile(50) << " p90="
            << percentile(90) << " p99=" << percentile(99) << "\n";
  if (cluster > 0) {
    // Cluster-level serving percentiles: measured at the client, through
    // the router hop, across every worker — the number a capacity plan
    // for the tier actually needs.
    std::cout << "loadgen: cluster workers=" << cluster
              << (kill_one ? " (one killed mid-run)" : "")
              << " clients=" << concurrency
              << " cluster_p50_ms=" << percentile(50)
              << " cluster_p99_ms=" << percentile(99) << "\n";
  }
  if (mutate_mix > 0) {
    std::cout << "loadgen: mutations=" << mutations_done.load()
              << " head_version=" << expected_version << "\n";
    for (const auto& [version, lat] : version_latencies) {
      double sum = 0.0;
      for (const double ms : lat) {
        sum += ms;
      }
      std::cout << "loadgen: version " << version << " submits=" << lat.size()
                << " mean_ms="
                << (lat.empty() ? 0.0
                                : sum / static_cast<double>(lat.size()))
                << "\n";
    }
    if (mutations_done.load() == 0) {
      std::cerr << "loadgen: no mutation ever applied\n";
      exit_code = 1;
    }
  }
  if (!backend_mix.empty()) {
    for (auto& [backend, lat] : backend_latencies) {
      std::sort(lat.begin(), lat.end());
      double sum = 0.0;
      for (const double ms : lat) {
        sum += ms;
      }
      const double mean =
          lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
      const double p90 =
          lat.empty() ? 0.0
                      : lat[std::min(lat.size() - 1,
                                     static_cast<std::size_t>(
                                         0.9 * static_cast<double>(
                                                   lat.size())))];
      std::cout << "loadgen: backend "
                << to_string(static_cast<BackendId>(backend))
                << " submits=" << lat.size() << " mean_ms=" << mean
                << " p90_ms=" << p90 << "\n";
    }
    if (backend_latencies.empty()) {
      std::cerr << "loadgen: --backend-mix saw no served submits\n";
      exit_code = 1;
    }
  }
  const double amplification =
      submits == 0 ? 0.0
                   : static_cast<double>(attempts.load()) /
                         static_cast<double>(submits);
  std::cout << "loadgen: attempts=" << attempts.load()
            << " retry_amplification=" << amplification
            << " reconnects=" << reconnects.load()
            << " corrupted_frames=" << corrupted_frames.load()
            << " backoff_ms=" << backoff_ms.load() << "\n";
  std::cout << "loadgen: " << ok.load() << "/" << submits << " served, "
            << failed.load() << " failed, daemon exit "
            << (clean ? "clean" : "UNCLEAN") << "\n";
  if (!clean || failed.load() != 0 || ok.load() != submits) {
    exit_code = 1;
  }
  return exit_code;
}

int run(int argc, char** argv) {
  const Args args = Args::parse(
      argc, argv,
      {"host", "port", "path", "faults", "max-rounds", "threads", "daemon",
       "graphs", "submits", "concurrency", "spool", "chaos", "chaos-seed",
       "deadline", "ns", "version", "ops", "base", "mutate-mix", "backend",
       "samples", "sample-seed", "backend-mix", "cluster", "router"});
  if (args.has("help") || args.positional().empty()) {
    std::cout << kUsage;
    return args.has("help") ? 0 : 1;
  }
  const std::string& command = args.positional()[0];
  if (command == "loadgen") {
    return run_loadgen(args);
  }

  if (command == "submit" && args.has("retry")) {
    // Self-healing submit: retry with backoff through transport faults
    // and soft refusals until the result lands or the deadline expires.
    // Implies --wait (submit_and_wait polls the result out).
    const bool by_path = args.has("path") || args.has("ns");
    if (!by_path && args.positional().size() != 2) {
      throw std::runtime_error("submit needs GRAPH.txt (or --path NAME)");
    }
    RetryPolicy policy;
    policy.overall_deadline_ms = static_cast<std::uint64_t>(
        args.get_int_or("deadline", 120'000));
    RetryingClient healing(
        args.get("host").value_or("127.0.0.1"),
        static_cast<std::uint16_t>(args.get_int_or("port", 0)), policy);
    const SubmitRequest request = build_submit(
        args, by_path ? std::string() : args.positional()[1]);
    try {
      print_result(healing.submit_and_wait(request));
      std::cout << "attempts: " << healing.stats().attempts
                << "\nreconnects: " << healing.stats().reconnects
                << "\nbackoff_ms: " << healing.stats().backoff_ms << "\n";
      return 0;
    } catch (const RetryError& e) {
      std::cerr << "congestbc_client: " << e.what()
                << (e.retryable_cause() ? " (retry budget exhausted)"
                                        : " (not retryable)")
                << "\n";
      return 1;
    }
  }

  Client client;
  client.connect(args.get("host").value_or("127.0.0.1"),
                 static_cast<std::uint16_t>(args.get_int_or("port", 0)));

  if (command == "mutate") {
    if (args.positional().size() != 2) {
      throw std::runtime_error("mutate needs a NAMESPACE");
    }
    MutateRequest request;
    request.ns = args.positional()[1];
    request.base_version =
        static_cast<std::uint64_t>(args.get_int_or("version", 0));
    if (const auto base = args.get("base")) {
      request.base_graph = read_file(*base);
    }
    request.ops = parse_ops(args.get("ops").value_or(""));
    const MutateReply reply = client.mutate(request);
    std::cout << "outcome: " << to_string(reply.outcome)
              << "\nversion: " << reply.version
              << "\nfingerprint: " << hex16(reply.fingerprint)
              << "\napplied: " << reply.applied
              << "\ndropped: " << reply.dropped << "\n";
    if (!reply.detail.empty()) {
      std::cout << "detail: " << reply.detail << "\n";
    }
    return reply.outcome == MutateOutcome::kApplied ||
                   reply.outcome == MutateOutcome::kCreated
               ? 0
               : 1;
  }
  if (command == "submit") {
    const bool by_path = args.has("path") || args.has("ns");
    if (!by_path && args.positional().size() != 2) {
      throw std::runtime_error("submit needs GRAPH.txt (or --path NAME)");
    }
    const SubmitRequest request = build_submit(
        args, by_path ? std::string() : args.positional()[1]);
    const SubmitReply reply = client.submit(request);
    std::cout << "disposition: " << to_string(reply.disposition)
              << "\njob: " << reply.job_id
              << "\nfingerprint: " << hex16(reply.fingerprint) << "\n";
    if (reply.backend != 0) {
      std::cout << "backend: "
                << to_string(static_cast<BackendId>(reply.backend))
                << (reply.downgraded ? " (downgraded from auto)" : "")
                << "\n";
    }
    if (!reply.detail.empty()) {
      std::cout << "detail: " << reply.detail << "\n";
    }
    if (reply.job_id != 0 && args.has("wait")) {
      print_result(client.wait_result(reply.job_id));
    }
    return reply.job_id != 0 ? 0 : 1;
  }
  if (command == "status" || command == "result" || command == "cancel") {
    if (args.positional().size() != 2) {
      throw std::runtime_error(command + " needs a JOB id");
    }
    const std::uint64_t job_id = std::stoull(args.positional()[1]);
    if (command == "status") {
      const StatusReply reply = client.status(job_id);
      std::cout << "state: " << to_string(reply.state)
                << "\nfingerprint: " << hex16(reply.fingerprint)
                << "\nqueue position: " << reply.queue_position << "\n";
      if (!reply.detail.empty()) {
        std::cout << "detail: " << reply.detail << "\n";
      }
      if (!reply.phase_timeline.empty()) {
        std::cout << "phases: " << reply.phase_timeline << "\n";
      }
      return 0;
    }
    if (command == "result") {
      const ResultReply reply = client.result(job_id);
      if (!reply.ready) {
        std::cout << "not ready (state: " << to_string(reply.state) << ")\n";
        return 2;
      }
      print_result(reply);
      return 0;
    }
    const CancelReply reply = client.cancel(job_id);
    std::cout << "cancel: " << to_string(reply.outcome) << "\n";
    return reply.outcome == CancelOutcome::kCancelled ||
                   reply.outcome == CancelOutcome::kRequested
               ? 0
               : 1;
  }
  if (command == "stats") {
    print_stats(client.stats());
    return 0;
  }
  if (command == "shutdown") {
    const ShutdownReply reply = client.shutdown();
    std::cout << (reply.draining ? "draining" : "not draining") << "\n";
    return 0;
  }
  throw std::runtime_error("unknown command: " + command);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "congestbc_client: " << e.what() << "\n" << kUsage;
    return 1;
  }
}
