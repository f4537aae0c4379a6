#include "service/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace congestbc::service {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Remaining poll budget in ms; 0 the instant the deadline passes, so a
/// poll() woken by EINTR re-enters with the shrunken remainder rather
/// than the original timeout.
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) {
    return 0;
  }
  return left.count() > 3600'000 ? 3600'000 : static_cast<int>(left.count());
}

/// poll() one fd for `events` until the deadline.  Returns revents, or
/// throws on timeout / poll failure.  EINTR recomputes the remainder.
short poll_until(int fd, short events, Clock::time_point deadline,
                 const char* what) {
  while (true) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int budget = remaining_ms(deadline);
    const int rc = ::poll(&pfd, 1, budget);
    if (rc > 0) {
      return pfd.revents;
    }
    if (rc == 0) {
      if (budget == 0) {
        throw std::runtime_error(std::string(what) + ": deadline exceeded");
      }
      continue;  // spurious zero with budget left: re-poll the remainder
    }
    if (errno == EINTR) {
      continue;
    }
    throw_errno(std::string(what) + ": poll()");
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

bool split_host_port(const std::string& address, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= address.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long value =
      std::strtoul(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return false;
  }
  host = address.substr(0, colon);
  port = static_cast<std::uint16_t>(value);
  return true;
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

void Client::connect(const std::string& host, std::uint16_t port,
                     int timeout_ms) {
  close();
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw_errno("socket()");
  }
  try {
    set_nonblocking(fd_);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("bad daemon address: " + host);
    }
    int rc;
    do {
      rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      if (errno != EINPROGRESS) {
        throw_errno("connect()");
      }
      poll_until(fd_, POLLOUT, deadline, "connect()");
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        throw_errno("getsockopt(SO_ERROR)");
      }
      if (err != 0) {
        errno = err;
        throw_errno("connect()");
      }
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  } catch (...) {
    close();
    throw;
  }
  io_timeout_ms_ = timeout_ms;
}

void Client::send_frame(const Request& request, Deadline deadline) {
  const std::vector<std::uint8_t> bytes = frame_bytes(encode_request(request));
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      poll_until(fd_, POLLOUT, deadline, "send()");
      continue;
    }
    throw_errno("send()");
  }
}

Reply Client::read_reply(Deadline deadline) {
  while (true) {
    try {
      if (auto frame = decoder_.next()) {
        return decode_reply(*frame);
      }
    } catch (const ProtocolError& e) {
      // A reply header whose magic or version bytes do not parse is wire
      // corruption from this side: the daemon already accepted our frame
      // on this connection, so "wrong version" cannot be a genuine
      // version dispute.  Genuine disputes arrive as typed ERROR replies
      // and keep their original code.  Reclassifying lets the retry
      // layer treat a garbled header like any other torn frame.
      if (e.code() == ProtoError::kBadMagic ||
          e.code() == ProtoError::kBadVersion) {
        throw ProtocolError(ProtoError::kCorrupted,
                            std::string("reply frame header corrupted: ") +
                                e.what());
      }
      throw;
    }
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      throw std::runtime_error("daemon closed the connection");
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      poll_until(fd_, POLLIN, deadline, "recv()");
      continue;
    }
    throw_errno("recv()");
  }
}

Reply Client::call(const Request& request) {
  if (fd_ < 0) {
    throw std::runtime_error("client is not connected");
  }
  // One deadline covers the whole round trip: partial writes and
  // trickled replies spend from the same budget.
  const Deadline deadline =
      Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
  send_frame(request, deadline);
  Reply reply = read_reply(deadline);
  if (reply.type == MsgType::kError) {
    throw ProtocolError(reply.error.code, reply.error.message);
  }
  return reply;
}

SubmitReply Client::submit(const SubmitRequest& request) {
  return call(make_submit(request)).submit;
}

MutateReply Client::mutate(const MutateRequest& request) {
  return call(make_mutate(request)).mutate;
}

StatusReply Client::status(std::uint64_t job_id) {
  return call(make_job_request(MsgType::kStatus, job_id)).status;
}

ResultReply Client::result(std::uint64_t job_id) {
  return call(make_job_request(MsgType::kResult, job_id)).result;
}

CancelReply Client::cancel(std::uint64_t job_id) {
  return call(make_job_request(MsgType::kCancel, job_id)).cancel;
}

StatsReply Client::stats() { return call(make_plain(MsgType::kStats)).stats; }

JoinReply Client::join(const JoinRequest& request) {
  return call(make_join(request)).join;
}

LeaveReply Client::leave(const LeaveRequest& request) {
  return call(make_leave(request)).leave;
}

MigrateReply Client::migrate(const MigrateRequest& request) {
  return call(make_migrate(request)).migrate;
}

LookupReply Client::lookup(std::uint64_t fingerprint) {
  return call(make_lookup(fingerprint)).lookup;
}

ShutdownReply Client::shutdown() {
  return call(make_plain(MsgType::kShutdown)).shutdown;
}

ResultReply Client::wait_result(std::uint64_t job_id, int poll_ms,
                                int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    ResultReply reply = result(job_id);
    if (reply.ready || (reply.state != JobState::kQueued &&
                        reply.state != JobState::kRunning)) {
      return reply;
    }
    if (Clock::now() >= deadline) {
      throw std::runtime_error("timed out waiting for job " +
                               std::to_string(job_id));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

}  // namespace congestbc::service
