#include "service/frame_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace congestbc::service {

namespace {

// The router fronts the whole tier: a cluster loadgen opens a thousand
// client sockets in one burst, and a backlog shorter than that burst
// drops SYNs into retransmit purgatory on a busy box.
constexpr int kListenBacklog = 4096;

constexpr int kPollTimeoutMs = 50;

// Hard cap on a buffered HTTP request: /metrics needs one short line,
// so anything larger is hostile.
constexpr std::size_t kMaxHttpRequestBytes = 8192;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

struct FrameServer::Session {
  /// What the first bytes said this connection speaks: CBCP frames, or
  /// HTTP ("GET ...") for the plaintext /metrics endpoint.  Sniffed
  /// before anything reaches the FrameDecoder (which would answer
  /// kBadMagic).
  enum class Mode : std::uint8_t { kUnknown, kFrames, kHttp };

  int fd = -1;
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  bool close_after_flush = false;
  bool dead = false;
  Mode mode = Mode::kUnknown;
  /// Bytes buffered while the mode is unknown; for kHttp, the request
  /// accumulates here until the blank line.
  std::vector<std::uint8_t> sniff;

  explicit Session(int fd_in) : fd(fd_in) {}

  /// Reply bytes appended but not yet written to the socket.
  std::size_t pending_out() const { return out.size() - out_pos; }
};

FrameServer::FrameServer(std::size_t session_out_limit)
    : session_out_limit_(session_out_limit) {}

FrameServer::~FrameServer() {
  request_drain();
  wait();
  for (auto& session : sessions_) {
    close_fd(session->fd);
  }
  sessions_.clear();
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
}

void FrameServer::listen_on(const std::string& host, std::uint16_t port) {
  if (wake_pipe_[0] >= 0) {
    return;
  }
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("pipe() failed: " + std::string(std::strerror(errno)));
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad listen address: " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("bind() failed: " + std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    throw std::runtime_error("listen() failed: " + std::string(std::strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);
}

void FrameServer::serve_async() {
  serve_thread_ = std::thread([this] { serve(); });
}

void FrameServer::wait() {
  if (serve_thread_.joinable()) {
    serve_thread_.join();
  }
}

void FrameServer::request_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  wake();
}

void FrameServer::wake() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

// --------------------------------------------------------- poll loop

void FrameServer::serve() {
  std::vector<pollfd> fds;
  while (true) {
    fds.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    int listen_idx = -1;
    if (!loop_draining_ && listen_fd_ >= 0) {
      listen_idx = static_cast<int>(fds.size());
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    }
    const std::size_t base = fds.size();
    for (const auto& session : sessions_) {
      short events = 0;
      // Backpressure: a session sitting on too much un-flushed reply data
      // stops being read (and TCP pushes back on the peer) until the
      // backlog drains.
      if (!session->close_after_flush &&
          session->pending_out() <= session_out_limit_) {
        events |= POLLIN;
      }
      if (session->out_pos < session->out.size()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{session->fd, events, 0});
    }

    const int rc = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (rc < 0 && errno != EINTR) {
      break;  // unrecoverable poll failure; fall through to drain
    }

    if (fds[0].revents & POLLIN) {
      std::uint8_t buf[64];
      while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
      }
    }
    if (drain_requested_.load(std::memory_order_relaxed) && !loop_draining_) {
      loop_draining_ = true;
      close_fd(listen_fd_);
      begin_drain();
    }
    if (!loop_draining_ && listen_idx >= 0 &&
        (fds[static_cast<std::size_t>(listen_idx)].revents & POLLIN)) {
      accept_clients();
    }
    for (std::size_t i = 0; i < sessions_.size() && base + i < fds.size(); ++i) {
      Session& session = *sessions_[i];
      const short revents = fds[base + i].revents;
      if (revents & (POLLIN | POLLERR | POLLHUP)) {
        handle_session_input(session);
      }
      // Run the dispatch loop every tick, not just on input: frames held
      // back by output backpressure resume once the backlog drains.
      if (!session.dead && !session.close_after_flush) {
        process_session_frames(session);
      }
      if (!session.dead && session.out_pos < session.out.size()) {
        flush_session_output(session);
      }
    }
    sessions_.erase(
        std::remove_if(sessions_.begin(), sessions_.end(),
                       [](const std::unique_ptr<Session>& s) {
                         if (s->dead) {
                           int fd = s->fd;
                           close_fd(fd);
                           return true;
                         }
                         return false;
                       }),
        sessions_.end());

    tick();

    if (loop_draining_ && drain_complete()) {
      break;
    }
  }
  before_final_flush();
  // Best-effort flush of replies already queued (e.g. the SHUTDOWN ack),
  // bounded so a stuck client cannot wedge the exit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  bool pending = true;
  while (pending && std::chrono::steady_clock::now() < deadline) {
    pending = false;
    for (auto& session : sessions_) {
      if (!session->dead && session->out_pos < session->out.size()) {
        flush_session_output(*session);
        pending |= !session->dead && session->out_pos < session->out.size();
      }
    }
    if (pending) {
      ::poll(nullptr, 0, 10);
    }
  }
  for (auto& session : sessions_) {
    close_fd(session->fd);
  }
  sessions_.clear();
  after_sessions_closed();
}

void FrameServer::accept_clients() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN/EWOULDBLOCK or transient accept failure
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sessions_.push_back(std::make_unique<Session>(fd));
  }
}

void FrameServer::handle_session_input(Session& session) {
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::recv(session.fd, buf, sizeof buf, 0);
    if (n > 0) {
      feed_session_bytes(session, buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) {
        break;
      }
      continue;
    }
    if (n == 0) {
      session.dead = true;  // peer closed; nothing more to serve
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    session.dead = true;
    return;
  }
}

void FrameServer::feed_session_bytes(Session& session, const std::uint8_t* data,
                                     std::size_t n) {
  if (session.mode == Session::Mode::kFrames) {
    session.decoder.feed(data, n);
    return;
  }
  session.sniff.insert(session.sniff.end(), data, data + n);
  if (session.mode == Session::Mode::kUnknown) {
    if (session.sniff.size() < 4) {
      return;  // not enough bytes to tell HTTP from CBCP yet
    }
    if (std::memcmp(session.sniff.data(), "GET ", 4) == 0) {
      session.mode = Session::Mode::kHttp;
    } else {
      session.mode = Session::Mode::kFrames;
      session.decoder.feed(session.sniff.data(), session.sniff.size());
      session.sniff.clear();
      session.sniff.shrink_to_fit();
      return;
    }
  }
  if (session.sniff.size() > kMaxHttpRequestBytes) {
    session.dead = true;
  }
}

void FrameServer::process_http_request(Session& session) {
  static constexpr char kTerminator[] = "\r\n\r\n";
  const auto end = std::search(session.sniff.begin(), session.sniff.end(),
                               kTerminator, kTerminator + 4);
  if (end == session.sniff.end()) {
    return;  // headers still arriving
  }
  // Request line: "GET <path> HTTP/1.x".
  std::string line(session.sniff.begin(),
                   std::find(session.sniff.begin(), session.sniff.end(), '\r'));
  std::string path;
  const std::size_t sp1 = line.find(' ');
  if (sp1 != std::string::npos) {
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    path = line.substr(sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                                         : sp2 - sp1 - 1);
  }
  std::string status = "200 OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::optional<std::string> body = http_get(path);
  if (!body) {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found; try /metrics\n";
  }
  std::string response = "HTTP/1.1 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body->size()) +
                         "\r\nConnection: close\r\n\r\n" + *body;
  session.out.insert(session.out.end(), response.begin(), response.end());
  session.sniff.clear();
  session.close_after_flush = true;  // one request per connection
}

// Deframe + dispatch.  Any protocol violation gets one typed ERROR
// frame, then the connection is closed after the flush — a hostile or
// corrupted stream cannot be resynchronized safely.  The loop pauses
// while the session's un-flushed output exceeds its backpressure limit;
// buffered frames stay in the decoder until the backlog drains.
void FrameServer::process_session_frames(Session& session) {
  if (session.mode == Session::Mode::kHttp) {
    process_http_request(session);
    return;
  }
  try {
    while (session.pending_out() <= session_out_limit_) {
      auto frame = session.decoder.next();
      if (!frame) {
        break;
      }
      const Request request = decode_request(*frame);
      append_reply(session, dispatch(request));
    }
  } catch (const ProtocolError& e) {
    count_protocol_error();
    Reply reply;
    reply.type = MsgType::kError;
    reply.error.code = e.code();
    reply.error.message = e.what();
    append_reply(session, reply);
    session.close_after_flush = true;
  } catch (const std::exception& e) {
    // Never-crash backstop: anything that escapes the typed path (an
    // allocation failure on a hostile size, an invariant trip) costs the
    // offending session its connection, not the process its life.
    count_protocol_error();
    Reply reply;
    reply.type = MsgType::kError;
    reply.error.code = ProtoError::kBadRequest;
    reply.error.message = std::string("internal error: ") + e.what();
    append_reply(session, reply);
    session.close_after_flush = true;
  }
}

void FrameServer::append_reply(Session& session, const Reply& reply) {
  const std::vector<std::uint8_t> bytes = frame_bytes(encode_reply(reply));
  session.out.insert(session.out.end(), bytes.begin(), bytes.end());
}

void FrameServer::flush_session_output(Session& session) {
  while (session.out_pos < session.out.size()) {
    const ssize_t n =
        ::send(session.fd, session.out.data() + session.out_pos,
               session.out.size() - session.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      session.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    session.dead = true;
    return;
  }
  session.out.clear();
  session.out_pos = 0;
  if (session.close_after_flush) {
    session.dead = true;
  }
}

}  // namespace congestbc::service
