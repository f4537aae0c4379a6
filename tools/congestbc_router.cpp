// congestbc_router — the cluster front-end (src/cluster/router.hpp).
//
// Speaks CBCP v6 to clients on one port and routes every job to a tier
// of congestbcd workers by run fingerprint over a consistent-hash ring,
// so each worker's result cache and in-flight coalescing stay as hot as
// in a single-daemon deployment.  Workers are seeded statically
// (--workers) and/or announce themselves with `congestbcd --join`; the
// router health-checks them, evicts dead ones from the ring, and heals
// the eviction on the next JOIN.  A SIGTERMed worker MIGRATEs its
// suspended jobs through the router to a surviving worker, which
// resumes them bit-identically — clients polling their router job ids
// never notice the host change.
//
// The same port answers plaintext `GET /metrics` with the router's own
// counters (congestbc_router_*: routed submits, spillovers, cross-worker
// hits, migrations, membership, link and protocol errors) — the daemon's
// socket loop (service::FrameServer) and its "GET " sniff.  STATS over
// CBCP stays the aggregate of the workers' counters.
//
// Usage:
//   congestbc_router [options]
//
// Options:
//   --host A          listen address (default 127.0.0.1)
//   --port P          listen port (default 0 = ephemeral; the bound port
//                     is announced as "LISTENING <port>" on stdout)
//   --workers LIST    comma-separated static worker seed list
//                     ("host:port,host:port"); may be empty when workers
//                     --join dynamically
//   --health-every MS health-check cadence (default 500; 0 disables)
//   --evict-after N   consecutive link failures before ring eviction
//                     (default 3)
//   --link-timeout MS per-call budget on worker links (default 30000)
//   --grace MS        how long jobs on an unreachable worker answer
//                     kQueued ("migration pending") before failing
//                     (default 10000)
//   --no-lookup       disable the cross-worker cache probe on fresh
//                     submits
//   --vnodes V        virtual ring points per worker (default 64)
//   --result-cache N  hold up to N finished result blocks in the router
//                     itself, keyed by routing fingerprint, so repeat
//                     submits/polls skip the worker links entirely
//                     (default 0 = disabled; workers stay the sole cache)
//
// SIGTERM/SIGINT drain the router (in-flight replies flush, then exit);
// the workers are independent processes and keep serving.
#include <sys/resource.h>

#include <csignal>
#include <iostream>
#include <sstream>

#include "cluster/router.hpp"
#include "common/args.hpp"

namespace {

congestbc::cluster::Router* g_router = nullptr;

extern "C" void handle_term(int) {
  if (g_router != nullptr) {
    g_router->request_drain();  // async-signal-safe: one pipe write
  }
}

constexpr const char* kUsage =
    "usage: congestbc_router [--host A --port P --workers H:P,H:P\n"
    "                         --health-every MS --evict-after N\n"
    "                         --link-timeout MS --grace MS --no-lookup\n"
    "                         --vnodes V --result-cache N]\n";

/// A router fronts thousands of client sockets plus one persistent link
/// per worker; lift the fd ceiling to the hard limit up front instead of
/// failing accepts mid-run.
void raise_fd_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

int run(int argc, char** argv) {
  using congestbc::Args;
  const Args args = Args::parse(
      argc, argv,
      {"host", "port", "workers", "health-every", "evict-after",
       "link-timeout", "grace", "vnodes", "result-cache"});
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }

  congestbc::cluster::RouterConfig config;
  config.host = args.get("host").value_or("127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_int_or("port", 0));
  {
    std::stringstream list(args.get("workers").value_or(""));
    std::string address;
    while (std::getline(list, address, ',')) {
      if (!address.empty()) {
        config.workers.push_back(address);
      }
    }
  }
  config.health_every_ms =
      static_cast<std::uint64_t>(args.get_int_or("health-every", 500));
  config.eviction_threshold =
      static_cast<unsigned>(args.get_int_or("evict-after", 3));
  config.worker_timeout_ms =
      static_cast<int>(args.get_int_or("link-timeout", 30'000));
  config.migration_grace_ms =
      static_cast<std::uint64_t>(args.get_int_or("grace", 10'000));
  config.cross_worker_lookup = !args.has("no-lookup");
  config.ring_vnodes = static_cast<unsigned>(args.get_int_or("vnodes", 64));
  config.result_cache_entries =
      static_cast<std::size_t>(args.get_int_or("result-cache", 0));

  raise_fd_limit();

  congestbc::cluster::Router router(config);
  router.start();
  g_router = &router;
  std::signal(SIGTERM, handle_term);
  std::signal(SIGINT, handle_term);
  std::signal(SIGPIPE, SIG_IGN);

  // The contract scripts and the loadgen parse this exact line.
  std::cout << "LISTENING " << router.port() << std::endl;

  router.serve();  // returns once a drain completes
  g_router = nullptr;
  std::cout << "drained; exiting" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "congestbc_router: " << e.what() << "\n" << kUsage;
    return 1;
  }
}
