// Minimal RAII TCP helpers for the shard-job protocol.
//
// Everything here is deadline-driven: connects, accepts, sends and
// receives all take a timeout and fail with a NetError naming the peer
// and the operation instead of blocking forever — a wedged or vanished
// worker must surface as a retryable error in the dispatcher, never as a
// hung orchestrator.  Connected sockets are non-blocking and driven with
// poll(2); frames use the 4-byte length prefix from frame.hpp.  Every fd
// here is close-on-exec, so a forked child (a cts_shardd job) holds no
// listener or connection of its parent.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cts/util/error.hpp"

namespace cts::net {

/// A network operation failed (refused, reset, closed, malformed address).
class NetError : public util::Error {
 public:
  using Error::Error;
};

/// A network operation exceeded its deadline.
class NetTimeout : public NetError {
 public:
  using NetError::NetError;
};

/// Move-only owning file-descriptor wrapper.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// One worker address.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  std::string str() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port,host:port,..." (the --workers= value); throws
/// InvalidArgument naming the offending entry on a missing/invalid port.
std::vector<Endpoint> parse_worker_list(const std::string& csv);

/// Opens a listening TCP socket on `port` (0 picks an ephemeral port) on
/// all interfaces; the actually bound port is stored in *actual_port.
/// The listener itself blocks, so threads can wait in accept_blocking.
/// Throws NetError on failure.
Socket listen_on(std::uint16_t port, std::uint16_t* actual_port);

/// Blocks in accept(2) until a connection arrives.  Any number of threads
/// may wait on one listener; the kernel wakes one per connection.  Returns
/// an invalid Socket once the listener is shut down (shutdown(2) with
/// SHUT_RD wakes every waiter).  Throws NetError on listener failure.
Socket accept_blocking(const Socket& listener);

/// Connects to `ep` within the deadline.  Throws NetTimeout / NetError.
Socket connect_to(const Endpoint& ep, double timeout_s);

/// Sends one framed payload.  Throws NetTimeout / NetError.
void send_frame(const Socket& sock, const std::string& payload,
                double timeout_s);

/// Receives one complete framed payload.  Throws NetTimeout on deadline,
/// NetError on EOF or transport failure.
std::string recv_frame(const Socket& sock, double timeout_s);

}  // namespace cts::net
