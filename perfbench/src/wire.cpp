#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "service/client.hpp"

namespace perfbench {

namespace svc = congestbc::service;

Pipeline::~Pipeline() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Pipeline::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw std::runtime_error("connect() failed");
  }
}

void Pipeline::send(const svc::Request& request) {
  const std::vector<std::uint8_t> bytes =
      svc::frame_bytes(svc::encode_request(request));
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error("send() failed");
    }
    done += static_cast<std::size_t>(n);
  }
}

void Pipeline::receive(std::uint64_t timeout_ns, std::vector<svc::Reply>& out) {
  pollfd pfd{fd_, POLLIN, 0};
  const timespec wait{static_cast<time_t>(timeout_ns / 1'000'000'000ULL),
                      static_cast<long>(timeout_ns % 1'000'000'000ULL)};
  const int ready = ::ppoll(&pfd, 1, &wait, nullptr);
  if (ready < 0 && errno != EINTR) {
    throw std::runtime_error("ppoll() failed");
  }
  if (ready > 0) {
    std::uint8_t buf[1 << 16];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) {
      throw std::runtime_error("peer closed the connection");
    }
    if (n < 0 && errno != EAGAIN && errno != EINTR) {
      throw std::runtime_error("recv() failed");
    }
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
  }
  while (auto frame = decoder_.next()) {
    out.push_back(svc::decode_reply(*frame));
  }
}

svc::ResultBlock decode_block(const std::vector<std::uint8_t>& bytes,
                              std::uint64_t bits) {
  congestbc::BitReader reader(bytes.data(), static_cast<std::size_t>(bits));
  return svc::decode_result_block(reader);
}

svc::StatsReply stats_of(std::uint16_t port) {
  svc::Client client;
  client.connect("127.0.0.1", port, 10000);
  return client.stats();
}

}  // namespace perfbench
