// The one TCP server loop behind congestbcd and congestbc_router
// (DESIGN.md §10, §16): one io thread, one poll(2) set over a self-pipe,
// the listener and every session.  A connection's first four bytes pick
// its protocol: "GET " is one plaintext HTTP request (/metrics), anything
// else is CBCP frames.  The loop decides nothing about requests: Daemon
// and Router derive from FrameServer and answer its hooks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"

namespace congestbc::service {

/// Default write-side backpressure limit of a session.
constexpr std::size_t kDefaultSessionOutLimit = 64u << 20;

class FrameServer {
 public:
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// The bound port (once listening).
  std::uint16_t port() const { return port_; }

  /// Runs the poll loop in the calling thread; returns once a drain
  /// completes.
  void serve();

  /// serve() on an internal thread; pair with wait().
  void serve_async();
  void wait();

  /// Begins the graceful drain.  Thread-safe, idempotent and
  /// async-signal-safe (a lock-free atomic store and one write(2) on a
  /// nonblocking pipe), so SIGTERM handlers call it.
  void request_drain();

  bool draining() const {
    return drain_requested_.load(std::memory_order_relaxed);
  }

 protected:
  explicit FrameServer(std::size_t session_out_limit = kDefaultSessionOutLimit);
  /// A derived server must wait() in its own destructor, before its
  /// members go: the loop calls its hooks.
  ~FrameServer();

  /// Creates the wake pipe, binds and listens (port 0 = ephemeral).
  /// Throws std::runtime_error on socket failure.
  void listen_on(const std::string& host, std::uint16_t port);
  /// Wakes the loop from another thread (a finished job).
  void wake();

  // --- hooks, all called on the serving thread ---
  /// A ProtocolError thrown here is answered with a typed ERROR frame
  /// and closes the session.
  virtual Reply dispatch(const Request& request) = 0;
  /// Body of the 200 answer to `GET <path>`; nullopt answers 404.
  virtual std::optional<std::string> http_get(const std::string& path) = 0;
  /// A session's bytes drew an ERROR frame and cost it its connection.
  virtual void count_protocol_error() = 0;
  /// Once per loop iteration, after every session was served.
  virtual void tick() = 0;
  /// Once, when the loop first sees the drain (the listener is closed).
  virtual void begin_drain() {}
  /// Asked after each iteration once draining; true ends the loop.
  virtual bool drain_complete() { return true; }
  /// After the loop, before the bounded flush of the last replies.
  virtual void before_final_flush() {}
  /// After that flush, once every session is closed.
  virtual void after_sessions_closed() {}

 private:
  struct Session;

  void accept_clients();
  void handle_session_input(Session& session);
  /// Routes received bytes by the session's mode (sniffing on first
  /// contact).
  void feed_session_bytes(Session& session, const std::uint8_t* data,
                          std::size_t n);
  void process_session_frames(Session& session);
  /// Answers one buffered HTTP request and closes the connection after
  /// the flush.
  void process_http_request(Session& session);
  void flush_session_output(Session& session);
  void append_reply(Session& session, const Reply& reply);

  const std::size_t session_out_limit_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> drain_requested_{false};
  bool loop_draining_ = false;  ///< drain observed by the io thread
  std::vector<std::unique_ptr<Session>> sessions_;
  std::thread serve_thread_;
};

}  // namespace congestbc::service
