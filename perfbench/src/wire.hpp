// A pipelined CBCP connection: requests are written as soon as they are
// due, and replies are matched to them in order (the daemon and the
// router answer each connection in order).  service::Client waits for
// each reply before the next request, which would turn an open-loop
// generator into a closed one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace perfbench {

class Pipeline {
 public:
  Pipeline() = default;
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  void connect(std::uint16_t port);
  /// Encodes and writes one request frame in full.
  void send(const congestbc::service::Request& request);
  /// Waits up to `timeout_ns` for bytes, then appends every complete
  /// reply to `out`.  Throws on a closed or failed socket.
  void receive(std::uint64_t timeout_ns,
               std::vector<congestbc::service::Reply>& out);

 private:
  int fd_ = -1;
  congestbc::service::FrameDecoder decoder_;
};

/// Decodes a delivered RESULT block.
congestbc::service::ResultBlock decode_block(
    const std::vector<std::uint8_t>& bytes, std::uint64_t bits);

/// One STATS round trip on a fresh connection.
congestbc::service::StatsReply stats_of(std::uint16_t port);

}  // namespace perfbench
