#include "procs.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "service/client.hpp"

namespace perfbench {

namespace {

bool reap(int pid, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (true) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || done < 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void kill_and_reap(Server& s) {
  if (s.pid > 0) {
    ::kill(s.pid, SIGKILL);
    ::waitpid(s.pid, nullptr, 0);
    s.pid = -1;
  }
  if (s.stdout_fd >= 0) {
    ::close(s.stdout_fd);
    s.stdout_fd = -1;
  }
}

}  // namespace

ServerGroup::~ServerGroup() {
  for (Server& s : servers_) {
    kill_and_reap(s);
  }
}

std::size_t ServerGroup::spawn(const std::vector<std::string>& argv,
                               const std::string& log_path) {
  int out[2];
  if (::pipe(out) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDERR_FILENO);
    }
    ::close(out[0]);
    ::close(out[1]);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  servers_.push_back(Server{pid, out[0], 0});
  return servers_.size() - 1;
}

std::uint16_t ServerGroup::await_listening(std::size_t i) {
  Server& s = servers_.at(i);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::string line;
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{s.stdout_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) {
      continue;
    }
    char c = 0;
    if (::read(s.stdout_fd, &c, 1) != 1) {
      throw std::runtime_error("server exited before LISTENING");
    }
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    if (line.rfind("LISTENING ", 0) == 0) {
      s.port = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
      return s.port;
    }
    line.clear();
  }
  throw std::runtime_error("server never announced LISTENING");
}

void ServerGroup::stop_all() {
  for (auto it = servers_.rbegin(); it != servers_.rend(); ++it) {
    Server& s = *it;
    if (s.pid <= 0) {
      continue;
    }
    try {
      congestbc::service::Client client;
      client.connect("127.0.0.1", s.port, 5000);
      (void)client.shutdown();
    } catch (const std::exception&) {
      ::kill(s.pid, SIGTERM);
    }
    if (reap(s.pid, std::chrono::seconds(10))) {
      s.pid = -1;
    }
    kill_and_reap(s);
  }
  servers_.clear();
}

}  // namespace perfbench
