#pragma once

/// \file socket.hpp
/// Minimal RAII TCP wrappers for the daemon and its clients: a nonblocking
/// listener for the epoll front-end, and a stream with the two primitives a
/// blocking framed client needs — read exactly N bytes, write all of a
/// buffer. IPv4 only (the daemon binds loopback or a single address; no
/// name resolution beyond dotted quads and "localhost").
///
/// Failure surfaces as SocketError (with errno text). A clean peer close at
/// a frame boundary is not an error: read_exact returns false.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace spotbid::net {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what_arg) : std::runtime_error{what_arg} {}
};

/// One connected TCP stream (either side). Move-only owner of the fd.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;
  ~TcpStream();

  /// Connect to host:port ("127.0.0.1" / "localhost" / dotted quad).
  [[nodiscard]] static TcpStream connect(const std::string& host, std::uint16_t port);

  /// Read exactly buffer.size() bytes. Returns false on a clean EOF before
  /// the first byte; throws SocketError on errors or EOF mid-buffer.
  [[nodiscard]] bool read_exact(std::span<std::uint8_t> buffer);

  /// Write the whole buffer (retrying short writes). Throws SocketError.
  void write_all(std::span<const std::uint8_t> buffer);

  /// Switch the fd to O_NONBLOCK (for a readiness-driven client loop;
  /// read_exact/write_all are no longer usable afterwards).
  void set_nonblocking();

  void close() noexcept;
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// A bound, listening, nonblocking TCP socket (registered in an epoll set;
/// accepts only through try_accept()).
class TcpListener {
 public:
  /// Bind and listen on host:port; port 0 picks an ephemeral port (read it
  /// back with port()).
  TcpListener(const std::string& host, std::uint16_t port);
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// Accept without blocking: an invalid stream when no connection is
  /// pending (readiness was already reported by epoll).
  [[nodiscard]] TcpStream try_accept();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace spotbid::net
