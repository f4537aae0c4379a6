// Blocking client for the BC serving daemon (service/daemon.hpp).
//
// One TCP connection, strict request/reply: every call sends one frame
// and blocks for exactly one reply frame (the protocol guarantees the
// daemon answers in order).  An ERROR reply from the daemon is rethrown
// as the ProtocolError it encodes; socket failures and timeouts throw
// std::runtime_error.  Both the congestbc_client tool and the in-process
// service tests drive the daemon through this class, so the wire path is
// exercised even when client and daemon share an address space.
//
// Deadline accounting: the socket is non-blocking and every operation —
// including connect() itself — runs a poll(2) loop against an absolute
// deadline computed once at entry.  A partial read or write never
// resets the clock (the old SO_RCVTIMEO scheme restarted the timer on
// every syscall, so a trickling peer could stretch one "30 s" call
// indefinitely), and EINTR recomputes the remaining budget from the
// original deadline instead of retrying with a stale timeout.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "service/protocol.hpp"

namespace congestbc::service {

/// "host:port" → parts (the form of --join and router seed addresses);
/// false on anything that does not parse.
bool split_host_port(const std::string& address, std::string& host,
                     std::uint16_t& port);

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects within `timeout_ms` (a blocking ::connect to a dead host
  /// could otherwise hang for minutes); the same value becomes the
  /// per-call I/O deadline until set_io_timeout() changes it.
  void connect(const std::string& host, std::uint16_t port,
               int timeout_ms = 30000);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Per-call deadline for subsequent call()s, in ms from call entry.
  void set_io_timeout(int timeout_ms) { io_timeout_ms_ = timeout_ms; }
  int io_timeout() const { return io_timeout_ms_; }

  /// One round trip: send the request frame, block for the reply frame.
  Reply call(const Request& request);

  // Typed wrappers over call().
  SubmitReply submit(const SubmitRequest& request);
  MutateReply mutate(const MutateRequest& request);
  StatusReply status(std::uint64_t job_id);
  ResultReply result(std::uint64_t job_id);
  CancelReply cancel(std::uint64_t job_id);
  StatsReply stats();
  ShutdownReply shutdown();
  // v6 cluster calls (router <-> worker links).
  JoinReply join(const JoinRequest& request);
  LeaveReply leave(const LeaveRequest& request);
  MigrateReply migrate(const MigrateRequest& request);
  LookupReply lookup(std::uint64_t fingerprint);

  /// Polls RESULT every `poll_ms` until the reply is ready or the job
  /// reaches a state polling cannot cure (failed lookups, cancellation,
  /// drain suspension are returned to the caller to inspect).  Throws
  /// std::runtime_error after `timeout_ms`.
  ResultReply wait_result(std::uint64_t job_id, int poll_ms = 20,
                          int timeout_ms = 120000);

 private:
  using Deadline = std::chrono::steady_clock::time_point;

  void send_frame(const Request& request, Deadline deadline);
  Reply read_reply(Deadline deadline);

  int fd_ = -1;
  int io_timeout_ms_ = 30000;
  FrameDecoder decoder_;
};

}  // namespace congestbc::service
