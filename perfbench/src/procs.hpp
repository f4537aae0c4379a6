// Child processes of the serving workloads: congestbcd workers and the
// congestbc_router, started from their binaries and stopped again before
// the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Server {
  int pid = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;
};

/// Owns every server it started; whatever is still running when it is
/// destroyed is killed and reaped, so no failure path leaks a process.
class ServerGroup {
 public:
  ServerGroup() = default;
  ~ServerGroup();
  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;

  /// Forks and execs `argv` (argv[0] is the binary) with stdout on a
  /// pipe and stderr appended to `log_path`.  Returns at once; call
  /// await_listening() for the port.
  std::size_t spawn(const std::vector<std::string>& argv,
                    const std::string& log_path);
  /// Blocks until server `i` prints "LISTENING <port>" (30 s limit).
  std::uint16_t await_listening(std::size_t i);
  Server& at(std::size_t i) { return servers_.at(i); }

  /// Sends SHUTDOWN to every server, last started first, and reaps them;
  /// one that has not exited after 10 s is killed.
  void stop_all();

 private:
  std::vector<Server> servers_;
};

}  // namespace perfbench
