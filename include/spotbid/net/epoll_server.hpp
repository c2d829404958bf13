#pragma once

/// \file epoll_server.hpp
/// The spotbid TCP front-end: a sharded epoll event loop serving the
/// docs/PROTOCOL.md wire protocol with a fixed thread budget. It is the
/// only place the protocol's frames are dispatched: one REQUEST frame maps
/// 1:1 onto one serve::Request whose reply comes back on the same
/// connection in submission order (PROTOCOL §5).
///
/// Threading model: N I/O shard threads (default = hardware concurrency),
/// each owning one epoll instance. Accepted connections are assigned
/// round-robin and PINNED to a shard for their lifetime, so all of a
/// connection's decode state, reply queue, and write buffer are touched by
/// exactly one thread — per-connection FIFO reply ordering (PROTOCOL §5)
/// is preserved by construction, with no per-connection locks. The
/// listener lives in shard 0's epoll set (no acceptor thread, no accept
/// polling); shard 0 drains accept4 bursts and hands new connections to
/// their shard through a mutex-protected inbox plus an eventfd wake.
///
/// Sockets are nonblocking with edge-triggered readiness. Reads land in a
/// per-connection FrameAssembler ring (partial frames are first-class);
/// replies ready in one drain tick are coalesced into a single writev,
/// with short writes parked in a per-connection carry buffer until the
/// next EPOLLOUT edge. BidService completions return to the owning shard
/// over the same eventfd channel, so response encoding also happens on
/// the shard thread.
///
/// The server owns no model state: it is a codec shim over a BidService,
/// which owns admission control, batching and determinism (docs/SERVE.md).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "spotbid/net/socket.hpp"
#include "spotbid/serve/service.hpp"

namespace spotbid::net {

struct EpollServerConfig {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read back with port()).
  std::uint16_t port = 0;
  /// I/O shard threads (0 = hardware concurrency, at least 1).
  int shards = 0;
};

class EpollServer {
 public:
  /// Binds and listens immediately (so port() is valid and a client can
  /// connect as soon as the constructor returns); start() launches the
  /// shard threads. The service must outlive the server.
  EpollServer(serve::BidService& service, const EpollServerConfig& config = {});

  /// stop()s if still running.
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Launch the shard threads. Call once.
  void start();

  /// Stop accepting, resolve every in-flight request, flush what the
  /// peers will take, close every connection, and join the shards.
  /// Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Shard threads serving (valid after construction).
  [[nodiscard]] int shards() const { return shard_count_; }
  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return accepted_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard;
  struct Conn;

  void shard_loop(Shard& shard);
  void process_events(Shard& shard, int count);
  void process_inbox(Shard& shard);
  void accept_burst(Shard& shard);
  void register_conn(Shard& shard, TcpStream stream);
  void on_readable(Shard& shard, Conn& conn);
  bool process_frames(Shard& shard, Conn& conn);
  bool handle_payload(Shard& shard, Conn& conn, std::span<const std::uint8_t> payload);
  void flush(Shard& shard, Conn& conn);
  void flush_dirty(Shard& shard);
  void destroy_conn(Shard& shard, std::uint64_t id);
  void drain_and_close_all(Shard& shard);

  serve::BidService* service_;
  TcpListener listener_;
  int shard_count_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_count_{0};
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<std::uint64_t> next_conn_id_{2};  ///< 0/1 tag listener/eventfd
  /// Completions between their inbox push and their eventfd wake; stop()
  /// may not tear the shards down while any is mid-flight.
  std::atomic<std::uint64_t> callbacks_in_flight_{0};
};

}  // namespace spotbid::net
