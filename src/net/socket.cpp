#include "spotbid/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace spotbid::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw SocketError{what + ": " + std::strerror(errno)};
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string dotted = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, dotted.c_str(), &addr.sin_addr) != 1)
    throw SocketError{"not an IPv4 address: " + host};
  return addr;
}

/// Batching happens at the frame level (one write per frame), so Nagle only
/// adds latency between a request frame and its reply.
void disable_nagle(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpStream::TcpStream(TcpStream&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpStream::~TcpStream() { close(); }

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = make_address(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  // spotbid-lint: allow(S-net-rawwire) sockaddr is the kernel's ABI, not wire data
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect to " + host + ":" + std::to_string(port));
  }
  disable_nagle(fd);
  return TcpStream{fd};
}

bool TcpStream::read_exact(std::span<std::uint8_t> buffer) {
  std::size_t done = 0;
  while (done < buffer.size()) {
    const ssize_t n = ::read(fd_, buffer.data() + done, buffer.size() - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (done == 0) return false;  // clean close at a frame boundary
      throw SocketError{"peer closed mid-frame (" + std::to_string(done) + " of " +
                        std::to_string(buffer.size()) + " bytes)"};
    }
    if (errno == EINTR) continue;
    fail("read");
  }
  return true;
}

void TcpStream::write_all(std::span<const std::uint8_t> buffer) {
  std::size_t done = 0;
  while (done < buffer.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE ->
    // SocketError, not a process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd_, buffer.data() + done, buffer.size() - done, MSG_NOSIGNAL);
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    fail("write");
  }
}

void TcpStream::set_nonblocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0)
    fail("fcntl(O_NONBLOCK)");
}

void TcpStream::close() noexcept {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = make_address(host, port);
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail("socket");
  int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // spotbid-lint: allow(S-net-rawwire) sockaddr is the kernel's ABI, not wire data
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail("bind/listen on " + host + ":" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  // spotbid-lint: allow(S-net-rawwire) sockaddr is the kernel's ABI, not wire data
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) fail("getsockname");
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) (void)::close(fd_);
}

TcpStream TcpListener::try_accept() {
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED)
      return TcpStream{};
    fail("accept4");
  }
  disable_nagle(fd);
  return TcpStream{fd};
}

}  // namespace spotbid::net
