// congestbcd — the BC serving daemon (src/service/daemon.hpp).
//
// Listens on a TCP port, accepts SUBMIT/STATUS/RESULT/CANCEL/STATS/
// SHUTDOWN frames (src/service/protocol.hpp), runs each admitted job
// through the watchdogged pipeline on a worker pool, caches results by
// run fingerprint, and — with a spool directory — survives kill/restart
// by checkpointing in-flight jobs and resuming them on the next start.
//
// The same port also answers plaintext `GET /metrics` (Prometheus text
// format 0.0.4) with the live counters, gauges, and latency/round
// histograms — `curl http://HOST:PORT/metrics` scrapes a running daemon
// without any client tooling.  Connections are sniffed: anything that
// does not start with "GET " is treated as CBCP frames.  The socket
// loop is service::FrameServer, the same one congestbc_router runs.
//
// Usage:
//   congestbcd [options]
//
// Options:
//   --host A          listen address (default 127.0.0.1)
//   --port P          listen port (default 0 = ephemeral; the bound port
//                     is announced as "LISTENING <port>" on stdout)
//   --workers W       concurrent job executions (default 2; 0 = one per
//                     hardware thread)
//   --queue-limit Q   max jobs queued but not running; beyond it submits
//                     get a typed BUSY reply (default 16)
//   --cache N         result-cache entries (default 64; 0 disables)
//   --spool DIR       durability root: admitted jobs are persisted and
//                     checkpointed here; a restarted daemon resumes them
//   --graph-root DIR  allow path-form submits resolved under DIR
//   --checkpoint-every N   checkpoint cadence in rounds while a job runs
//                     (default 0 = only the drain-time suspension
//                     checkpoint); needs --spool
//   --checkpoint-keep K    checkpoints kept per job (default 2)
//   --max-rounds R    admission cap on any job's round budget
//   --time-budget MS  wall-clock budget per job; over-budget jobs are
//                     halted and failed (default 0 = unlimited)
//   --threads T       default simulator lanes per job (default 1)
//   --job-retention MS     how long finished/failed/cancelled jobs stay
//                     addressable by STATUS/RESULT before they answer
//                     kUnknown (default 300000; 0 = no time limit, a
//                     count cap still bounds the table)
//   --metrics-file F  periodic JSON metrics dump (service/metrics.hpp)
//   --metrics-every MS     dump cadence (default 1000)
//   --join HOST:PORT  announce this daemon to a congestbc_router and
//                     keep re-announcing (the JOIN heartbeat); at drain
//                     time suspended jobs migrate through the router to
//                     a surviving worker
//   --advertise HOST  address the router should dial back (default: the
//                     --host value; set it when binding 0.0.0.0)
//   --join-every MS   JOIN heartbeat cadence (default 1000; 0 = once)
//
// SIGTERM/SIGINT begin a graceful drain: stop admitting, halt running
// jobs at their next round boundary (writing suspension checkpoints),
// flush the cache index, exit 0.
#include <csignal>
#include <iostream>

#include "common/args.hpp"
#include "service/daemon.hpp"

namespace {

congestbc::service::Daemon* g_daemon = nullptr;

extern "C" void handle_term(int) {
  if (g_daemon != nullptr) {
    g_daemon->request_drain();  // async-signal-safe: one pipe write
  }
}

constexpr const char* kUsage =
    "usage: congestbcd [--host A --port P --workers W --queue-limit Q\n"
    "                   --cache N --spool DIR --graph-root DIR\n"
    "                   --checkpoint-every N --checkpoint-keep K\n"
    "                   --max-rounds R --time-budget MS --threads T\n"
    "                   --job-retention MS --metrics-file F\n"
    "                   --metrics-every MS --join HOST:PORT\n"
    "                   --advertise HOST --join-every MS]\n";

int run(int argc, char** argv) {
  using congestbc::Args;
  const Args args = Args::parse(
      argc, argv,
      {"host", "port", "workers", "queue-limit", "cache", "spool",
       "graph-root", "checkpoint-every", "checkpoint-keep", "max-rounds",
       "time-budget", "threads", "job-retention", "metrics-file",
       "metrics-every", "join", "advertise", "join-every"});
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }

  congestbc::service::DaemonConfig config;
  config.host = args.get("host").value_or("127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_int_or("port", 0));
  config.workers = static_cast<unsigned>(args.get_int_or("workers", 2));
  config.queue_limit =
      static_cast<std::size_t>(args.get_int_or("queue-limit", 16));
  config.cache_capacity = static_cast<std::size_t>(args.get_int_or("cache", 64));
  config.spool_dir = args.get("spool").value_or("");
  config.graph_root = args.get("graph-root").value_or("");
  config.checkpoint_every =
      static_cast<std::uint64_t>(args.get_int_or("checkpoint-every", 0));
  config.checkpoint_keep =
      static_cast<unsigned>(args.get_int_or("checkpoint-keep", 2));
  config.max_rounds_cap = static_cast<std::uint64_t>(
      args.get_int_or("max-rounds", 50'000'000));
  config.job_time_budget_ms =
      static_cast<std::uint64_t>(args.get_int_or("time-budget", 0));
  config.default_threads = static_cast<unsigned>(args.get_int_or("threads", 1));
  config.job_retention_ms =
      static_cast<std::uint64_t>(args.get_int_or("job-retention", 300'000));
  config.metrics_path = args.get("metrics-file").value_or("");
  config.metrics_every_ms =
      static_cast<std::uint64_t>(args.get_int_or("metrics-every", 1000));
  config.join_router = args.get("join").value_or("");
  config.advertise_host = args.get("advertise").value_or("");
  config.join_every_ms =
      static_cast<std::uint64_t>(args.get_int_or("join-every", 1000));

  congestbc::service::Daemon daemon(config);
  daemon.start();
  g_daemon = &daemon;
  std::signal(SIGTERM, handle_term);
  std::signal(SIGINT, handle_term);
  std::signal(SIGPIPE, SIG_IGN);

  // The contract scripts and the loadgen parse this exact line.
  std::cout << "LISTENING " << daemon.port() << std::endl;

  daemon.serve();  // returns once a drain completes
  g_daemon = nullptr;
  std::cout << "drained; exiting" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "congestbcd: " << e.what() << "\n" << kUsage;
    return 1;
  }
}
