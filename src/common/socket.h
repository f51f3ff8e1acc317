// Thin POSIX socket helpers for the cross-process serving tier.
//
// The RPC layer (serve/rpc/) needs exactly four things from the OS:
// parse an endpoint spec, listen on it, connect to it, and move whole
// buffers with deadlines. Everything here is a direct RAII wrapper over
// those syscalls — no framing, no protocol, no buffering policy; that
// lives in serve/rpc/wire.h where it can be unit-tested without a
// kernel in the loop.
//
// Endpoints come in two flavors, chosen by the spec string:
//   "host:port"        TCP (port 0 binds an ephemeral port; the resolved
//                      port is readable from ListenSocket::local())
//   "unix:/some/path"  Unix-domain stream socket (the listener unlinks
//                      the path on close)
//
// Deadlines: recv_all/send_all take a timeout in milliseconds (-1 blocks
// forever) implemented with poll(), so a dead peer turns into a
// muffin::Error instead of a hung thread. All sends use MSG_NOSIGNAL —
// a vanished peer is an exception, never a SIGPIPE.
//
// Thread safety: a Socket may be used by one reader thread and one
// writer thread concurrently (the full-duplex pattern the RPC client
// uses); readable() may be polled from any thread (the shard server's
// drain does, while the connection's own thread serves it), and
// shutdown_both() may be called from any thread to wake them all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace muffin::common {

/// A parsed endpoint spec: TCP "host:port" or Unix-domain "unix:/path".
struct Endpoint {
  bool unix_domain = false;
  std::string host;         ///< TCP host, or the socket path for unix
  std::uint16_t port = 0;   ///< TCP only; 0 asks the kernel for a port

  /// Parse "host:port" or "unix:/path"; throws muffin::Error on anything
  /// else (missing colon, non-numeric or out-of-range port, empty path).
  [[nodiscard]] static Endpoint parse(const std::string& spec);

  [[nodiscard]] std::string to_string() const;
};

/// RAII stream socket (one file descriptor).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Send the whole buffer; throws muffin::Error on any failure or if
  /// the deadline expires mid-buffer.
  void send_all(const void* data, std::size_t n, int timeout_ms = -1);

  /// Receive exactly `n` bytes. Returns false on a clean EOF before the
  /// first byte (peer closed between messages); throws muffin::Error on
  /// mid-buffer EOF, socket error, or deadline expiry.
  [[nodiscard]] bool recv_all(void* data, std::size_t n, int timeout_ms = -1);

  /// Poll for readability (data, EOF, or error pending) without
  /// consuming anything. Lets a reader interleave deadline checks with
  /// blocking receives.
  [[nodiscard]] bool readable(int timeout_ms);

  /// shutdown(SHUT_RDWR): wakes any thread blocked in recv/send on this
  /// socket (they observe EOF / error). Safe to call from another thread;
  /// safe on an invalid socket.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// Connect to `endpoint` with a connect deadline; throws muffin::Error
/// on failure (refused, unreachable, timeout).
[[nodiscard]] Socket connect_endpoint(const Endpoint& endpoint,
                                      int timeout_ms);

/// RAII listening socket (TCP with SO_REUSEADDR, or Unix-domain; the
/// Unix path is unlinked when the listener closes).
class ListenSocket {
 public:
  explicit ListenSocket(const Endpoint& endpoint, int backlog = 64);
  ~ListenSocket();

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// The bound endpoint with the kernel-resolved port (for port-0 binds).
  [[nodiscard]] const Endpoint& local() const { return local_; }

  /// Wait up to `timeout_ms` for one connection (-1 blocks forever).
  /// Returns an invalid Socket on timeout or once the listener is closed.
  [[nodiscard]] Socket accept(int timeout_ms);

  /// Wake a concurrently blocked accept() (it returns invalid) without
  /// invalidating the descriptor. Safe from any thread; the fd is only
  /// released by close()/the destructor, which must run after the
  /// accepting thread has been joined.
  void interrupt();

  /// Stop listening (idempotent); future accepts return invalid. Not
  /// safe concurrently with a blocked accept() — interrupt() first.
  void close();

 private:
  int fd_ = -1;
  Endpoint local_;
};

}  // namespace muffin::common
