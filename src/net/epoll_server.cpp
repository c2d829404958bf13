#include "spotbid/net/epoll_server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "spotbid/core/metrics.hpp"
#include "spotbid/net/frame_assembler.hpp"
#include "spotbid/net/wire.hpp"

namespace spotbid::net {

namespace {

/// epoll_event.data.u64 tags below the first connection id.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventFdTag = 1;

/// Most events one epoll_wait returns per wake-up (a drain tick bound).
constexpr int kMaxEvents = 256;

/// Frames coalesced per writev call; kernels cap iovec counts at IOV_MAX
/// (>= 1024 by POSIX) and a drain tick rarely readies more than this.
constexpr std::size_t kMaxIov = 512;

/// Bucket bounds for the writev coalescing histogram (frames per call).
constexpr double kWritevBounds[] = {1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5};

/// Wire-surface counters plus the shard plumbing. Everything
/// scheduling-dependent — response-vs-error splits and output volume
/// (they depend on overload timing), wakeups, completion routing, write
/// coalescing — carries a .sched. segment, excluded from
/// metrics::Snapshot::deterministic().
struct EpollMetrics {
  metrics::Counter& connections;
  metrics::Counter& frames_hello;
  metrics::Counter& frames_request;
  metrics::Counter& bytes_in;
  metrics::Counter& decode_errors;
  metrics::Counter& frames_response;
  metrics::Counter& frames_error;
  metrics::Counter& bytes_out;
  metrics::Counter& shards_started;
  metrics::Counter& shard_wakeups;
  metrics::Counter& shard_completions;
  metrics::Counter& shard_writev_calls;
  metrics::Counter& shard_short_writes;
  metrics::Histogram& writev_frames;
};

EpollMetrics& em() {
  static EpollMetrics m{
      metrics::Registry::global().counter("serve.net.connections"),
      metrics::Registry::global().counter("serve.net.frames.hello"),
      metrics::Registry::global().counter("serve.net.frames.request"),
      metrics::Registry::global().counter("serve.net.bytes_in"),
      metrics::Registry::global().counter("serve.net.decode_errors"),
      metrics::Registry::global().counter("serve.net.sched.frames.response"),
      metrics::Registry::global().counter("serve.net.sched.frames.error"),
      metrics::Registry::global().counter("serve.net.sched.bytes_out"),
      metrics::Registry::global().counter("serve.net.shard.started"),
      metrics::Registry::global().counter("serve.net.shard.sched.wakeups"),
      metrics::Registry::global().counter("serve.net.shard.sched.completions"),
      metrics::Registry::global().counter("serve.net.shard.sched.writev_calls"),
      metrics::Registry::global().counter("serve.net.shard.sched.short_writes"),
      metrics::Registry::global().histogram("serve.net.sched.writev_frames_per_call",
                                            kWritevBounds),
  };
  return m;
}

/// One reply slot in a connection's FIFO. Slots are queued at frame-decode
/// time in submission order and flushed strictly front-first, so replies
/// can never overtake each other no matter when their completions land.
struct Ready {
  std::uint64_t ticket = 0;  ///< position in the connection's FIFO
  std::uint64_t seq = 0;     ///< echoed into the reply frame
  /// Request frame's version; the reply is encoded at it (per-frame
  /// versioning, docs/PROTOCOL.md §3).
  std::uint8_t version = kProtocolVersion;
  bool ready = false;
  bool is_error = false;
  std::vector<std::uint8_t> frame;
};

}  // namespace

struct EpollServer::Conn {
  std::uint64_t id = 0;
  TcpStream stream;
  FrameAssembler assembler;
  std::deque<Ready> replies;
  /// Bytes a short writev left behind; flushed before anything newer.
  std::vector<std::uint8_t> carry;
  std::size_t carry_off = 0;
  std::uint64_t next_ticket = 0;
  bool reading_done = false;  ///< EOF or protocol error; no more reads
  bool close_after_flush = false;
  bool dirty = false;  ///< queued for this tick's flush pass
};

struct EpollServer::Shard {
  int index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;

  /// Cross-thread inbox: shard 0 parks newly accepted connections here and
  /// service completions land here; the eventfd wakes the owner.
  std::mutex mutex;
  std::vector<TcpStream> incoming;
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t ticket = 0;
    serve::Response response;
  };
  std::vector<Completion> completions;

  // Shard-thread-private state below.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::vector<std::uint64_t> dirty;  ///< conns to flush this drain tick
  std::vector<epoll_event> events;
  std::uint64_t unresolved = 0;  ///< submitted requests awaiting completion
  bool accept_ready = false;

  ~Shard() {
    if (epoll_fd >= 0) (void)::close(epoll_fd);
    if (event_fd >= 0) (void)::close(event_fd);
  }

  void wake() { (void)::eventfd_write(event_fd, 1); }
};

EpollServer::EpollServer(serve::BidService& service, const EpollServerConfig& config)
    : service_(&service),
      listener_(config.host, config.port),
      shard_count_(config.shards > 0
                       ? config.shards
                       : std::max(1, static_cast<int>(std::thread::hardware_concurrency()))) {}

EpollServer::~EpollServer() { stop(); }

void EpollServer::start() {
  if (started_) return;
  started_ = true;
  for (int i = 0; i < shard_count_; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (shard->epoll_fd < 0 || shard->event_fd < 0)
      throw SocketError{"epoll_create1/eventfd failed"};
    shard->events.resize(kMaxEvents);
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.u64 = kEventFdTag;
    if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &wake) != 0)
      throw SocketError{"epoll_ctl(eventfd) failed"};
    if (i == 0) {
      // The listener is just another fd in shard 0's set — no acceptor
      // thread and no accept poll interval.
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = kListenerTag;
      if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &lev) != 0)
        throw SocketError{"epoll_ctl(listener) failed"};
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    em().shards_started.increment();
    shard->thread = std::thread([this, raw = shard.get()] { shard_loop(*raw); });
  }
}

void EpollServer::stop() {
  if (!started_ || stopping_.exchange(true)) return;
  for (auto& shard : shards_) shard->wake();
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
  // A completion may still sit between its inbox push and its eventfd
  // wake; the eventfds must stay open until the last one leaves.
  while (callbacks_in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}

void EpollServer::shard_loop(Shard& shard) {
  for (;;) {
    const int count =
        ::epoll_wait(shard.epoll_fd, shard.events.data(), kMaxEvents, -1);
    if (count < 0) {
      if (errno == EINTR) continue;
      break;  // epoll set torn down under us; only possible at shutdown
    }
    process_events(shard, count);
    process_inbox(shard);
    if (shard.accept_ready) {
      shard.accept_ready = false;
      if (!stopping_.load(std::memory_order_acquire)) accept_burst(shard);
    }
    flush_dirty(shard);
    // Drain protocol: every submitted request resolves exactly once (the
    // service guarantees it), so once unresolved hits zero nothing else
    // can become ready — flush what the peers will take and leave.
    if (stopping_.load(std::memory_order_acquire) && shard.unresolved == 0) {
      drain_and_close_all(shard);
      return;
    }
  }
}

void EpollServer::process_events(Shard& shard, int count) {
  for (int i = 0; i < count; ++i) {
    const epoll_event& event = shard.events[static_cast<std::size_t>(i)];
    const std::uint64_t id = event.data.u64;
    if (id == kEventFdTag) {
      eventfd_t value = 0;
      (void)::eventfd_read(shard.event_fd, &value);
      em().shard_wakeups.increment();
      continue;
    }
    if (id == kListenerTag) {
      shard.accept_ready = true;
      continue;
    }
    const auto it = shard.conns.find(id);
    if (it == shard.conns.end()) continue;  // closed earlier this tick
    Conn& conn = *it->second;
    if ((event.events & (EPOLLERR | EPOLLHUP)) != 0) {
      destroy_conn(shard, id);
      continue;
    }
    if ((event.events & (EPOLLIN | EPOLLRDHUP)) != 0) on_readable(shard, conn);
    // on_readable may have destroyed the conn; re-check before touching it.
    if ((event.events & EPOLLOUT) != 0 && shard.conns.count(id) != 0 && !conn.dirty) {
      conn.dirty = true;
      shard.dirty.push_back(id);
    }
  }
}

void EpollServer::process_inbox(Shard& shard) {
  std::vector<TcpStream> incoming;
  std::vector<Shard::Completion> completions;
  {
    const std::lock_guard<std::mutex> lock{shard.mutex};
    incoming.swap(shard.incoming);
    completions.swap(shard.completions);
  }
  for (TcpStream& stream : incoming) register_conn(shard, std::move(stream));
  for (Shard::Completion& completion : completions) {
    --shard.unresolved;
    em().shard_completions.increment();
    const auto it = shard.conns.find(completion.conn_id);
    if (it == shard.conns.end()) continue;  // connection died first
    Conn& conn = *it->second;
    if (conn.replies.empty()) continue;  // unreachable; defensive
    // Tickets are dense, so the slot sits at its distance from the head.
    const std::uint64_t head = conn.replies.front().ticket;
    Ready& slot = conn.replies[completion.ticket - head];
    // Rejections surface as typed ERROR frames (PROTOCOL §4.4).
    const serve::Response& response = completion.response;
    switch (response.status) {
      case serve::Status::kOverloaded:
        slot.frame = encode_error(slot.seq, ErrorCode::kOverloaded,
                                  "admission control rejected the request", slot.version);
        slot.is_error = true;
        break;
      case serve::Status::kShutdown:
        slot.frame = encode_error(slot.seq, ErrorCode::kShuttingDown,
                                  "service is draining", slot.version);
        slot.is_error = true;
        break;
      default:
        // Encoded at the REQUEST frame's version: a v1 client keeps
        // receiving byte-identical v1 response bodies.
        slot.frame = encode_response(slot.seq, response, slot.version);
        break;
    }
    slot.ready = true;
    if (!conn.dirty) {
      conn.dirty = true;
      shard.dirty.push_back(conn.id);
    }
  }
}

void EpollServer::accept_burst(Shard& shard) {
  for (;;) {
    TcpStream accepted = listener_.try_accept();
    if (!accepted.valid()) return;
    em().connections.increment();
    accepted_count_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target = next_shard_.fetch_add(1, std::memory_order_relaxed) %
                               static_cast<std::uint64_t>(shard_count_);
    if (target == static_cast<std::size_t>(shard.index)) {
      register_conn(shard, std::move(accepted));
    } else {
      Shard& other = *shards_[target];
      {
        const std::lock_guard<std::mutex> lock{other.mutex};
        other.incoming.push_back(std::move(accepted));
      }
      other.wake();
    }
  }
}

void EpollServer::register_conn(Shard& shard, TcpStream stream) {
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->stream = std::move(stream);
  epoll_event ev{};
  // Registered once with both directions edge-triggered: EPOLLOUT edges
  // arrive exactly when a previously full socket drains, which is the only
  // time the flush path needs a nudge.
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, conn->stream.fd(), &ev) != 0)
    return;  // fd exhausted or dying; the stream closes with the unique_ptr
  const std::uint64_t id = conn->id;
  shard.conns.emplace(id, std::move(conn));
}

void EpollServer::on_readable(Shard& shard, Conn& conn) {
  if (conn.reading_done) return;
  const std::uint64_t id = conn.id;
  for (;;) {
    const auto spans = conn.assembler.write_spans();
    iovec iov[2];
    int iov_count = 0;
    for (const auto& span : spans) {
      if (span.empty()) continue;
      iov[iov_count].iov_base = span.data();
      iov[iov_count].iov_len = span.size();
      ++iov_count;
    }
    if (iov_count == 0) return;  // unreachable: a drained ring always has room
    const ssize_t n = ::readv(conn.stream.fd(), iov, iov_count);
    if (n > 0) {
      conn.assembler.commit(static_cast<std::size_t>(n));
      em().bytes_in.add(static_cast<std::uint64_t>(n));
      if (!process_frames(shard, conn)) return;  // protocol over for this conn
      continue;
    }
    if (n == 0) {
      // Clean close from the peer: answer what is already in flight, then
      // close once the reply queue drains.
      conn.reading_done = true;
      if (conn.replies.empty() && conn.carry_off >= conn.carry.size())
        destroy_conn(shard, id);
      else
        conn.close_after_flush = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    destroy_conn(shard, id);  // peer reset
    return;
  }
}

bool EpollServer::process_frames(Shard& shard, Conn& conn) {
  std::vector<std::uint8_t> payload;
  for (;;) {
    bool have = false;
    try {
      have = conn.assembler.next_payload(payload);
    } catch (const WireError& e) {
      // Framing is lost; nothing further can be parsed: reply with a
      // malformed error and close.
      em().decode_errors.increment();
      Ready slot;
      slot.ticket = conn.next_ticket++;
      slot.ready = true;
      slot.is_error = true;
      slot.frame = encode_error(0, ErrorCode::kMalformed, e.what());
      conn.replies.push_back(std::move(slot));
      conn.reading_done = true;
      conn.close_after_flush = true;
      if (!conn.dirty) {
        conn.dirty = true;
        shard.dirty.push_back(conn.id);
      }
      return false;
    }
    if (!have) return true;
    if (!handle_payload(shard, conn, payload)) return false;
  }
}

bool EpollServer::handle_payload(Shard& shard, Conn& conn,
                                 std::span<const std::uint8_t> payload) {
  const std::uint64_t conn_id = conn.id;
  const auto push_ready = [&](std::uint64_t seq, std::vector<std::uint8_t> frame,
                              bool is_error, bool close_after) {
    Ready slot;
    slot.ticket = conn.next_ticket++;
    slot.seq = seq;
    slot.ready = true;
    slot.is_error = is_error;
    slot.frame = std::move(frame);
    conn.replies.push_back(std::move(slot));
    if (close_after) {
      conn.reading_done = true;
      conn.close_after_flush = true;
    }
    if (!conn.dirty) {
      conn.dirty = true;
      shard.dirty.push_back(conn_id);
    }
  };

  Frame frame;
  try {
    frame = decode_frame(payload);
  } catch (const WireError& e) {
    em().decode_errors.increment();
    push_ready(0, encode_error(0, ErrorCode::kMalformed, e.what()), true, true);
    return false;
  }
  switch (frame.type) {
    case FrameType::kHello: {
      em().frames_hello.increment();
      // Negotiate downward: a peer speaking a newer version gets our
      // maximum back and continues at it; only a version below the floor
      // is a mismatch (docs/PROTOCOL.md §3).
      if (frame.version < kMinProtocolVersion) {
        push_ready(frame.seq,
                   encode_error(frame.seq, ErrorCode::kVersionMismatch,
                                "server speaks versions " +
                                    std::to_string(int{kMinProtocolVersion}) + ".." +
                                    std::to_string(int{kProtocolVersion})),
                   true, true);
        return false;
      }
      const std::uint8_t negotiated =
          std::min<std::uint8_t>(frame.version, kProtocolVersion);
      push_ready(frame.seq, encode_hello(frame.seq, negotiated), false, false);
      return true;
    }
    case FrameType::kRequest: {
      em().frames_request.increment();
      serve::Request request;
      try {
        request = decode_request_body(frame);
      } catch (const WireVersionError& e) {
        // Framing is intact — the body just needs a newer version. Report
        // the typed mismatch and keep the connection alive.
        em().decode_errors.increment();
        push_ready(frame.seq,
                   encode_error(frame.seq, ErrorCode::kVersionMismatch, e.what(),
                                frame.version),
                   true, false);
        return true;
      } catch (const WireError& e) {
        em().decode_errors.increment();
        push_ready(frame.seq, encode_error(frame.seq, ErrorCode::kMalformed, e.what()),
                   true, true);
        return false;
      }
      Ready slot;
      slot.ticket = conn.next_ticket++;
      slot.seq = frame.seq;
      slot.version = frame.version;
      const std::uint64_t ticket = slot.ticket;
      conn.replies.push_back(std::move(slot));
      ++shard.unresolved;
      Shard* owner = &shard;
      callbacks_in_flight_.fetch_add(1, std::memory_order_acq_rel);
      service_->submit(
          std::move(request), [this, owner, conn_id, ticket](serve::Response response) {
            {
              const std::lock_guard<std::mutex> lock{owner->mutex};
              owner->completions.push_back(
                  Shard::Completion{conn_id, ticket, std::move(response)});
            }
            // Wake and release strictly after the lock scope: the eventfd
            // write is a syscall, and the in-flight count gates teardown.
            owner->wake();
            callbacks_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
          });
      return true;
    }
    case FrameType::kResponse:
    case FrameType::kError: {
      // Only servers send these; a client doing so violates the spec.
      em().decode_errors.increment();
      push_ready(frame.seq,
                 encode_error(frame.seq, ErrorCode::kMalformed,
                              std::string{frame_type_name(frame.type)} +
                                  " frames are server-to-client only"),
                 true, true);
      return false;
    }
  }
  return false;
}

void EpollServer::flush_dirty(Shard& shard) {
  // One writev per connection per drain tick: every reply that became
  // ready while processing this tick's events goes out in one syscall.
  for (const std::uint64_t id : shard.dirty) {
    const auto it = shard.conns.find(id);
    if (it == shard.conns.end()) continue;
    it->second->dirty = false;
    flush(shard, *it->second);
  }
  shard.dirty.clear();
}

void EpollServer::flush(Shard& shard, Conn& conn) {
  const std::uint64_t id = conn.id;
  // Finish bytes a previous short write left behind first; nothing newer
  // may pass them.
  while (conn.carry_off < conn.carry.size()) {
    const ssize_t n = ::send(conn.stream.fd(), conn.carry.data() + conn.carry_off,
                             conn.carry.size() - conn.carry_off, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.carry_off += static_cast<std::size_t>(n);
      em().bytes_out.add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // next EPOLLOUT edge
    destroy_conn(shard, id);
    return;
  }
  conn.carry.clear();
  conn.carry_off = 0;

  while (!conn.replies.empty() && conn.replies.front().ready) {
    // Collect the ready prefix of the FIFO (bounded by the iovec cap).
    std::vector<std::vector<std::uint8_t>> frames;
    while (!conn.replies.empty() && conn.replies.front().ready &&
           frames.size() < kMaxIov) {
      Ready& slot = conn.replies.front();
      (slot.is_error ? em().frames_error : em().frames_response).increment();
      frames.push_back(std::move(slot.frame));
      conn.replies.pop_front();
    }
    std::vector<iovec> iov(frames.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      iov[i].iov_base = frames[i].data();
      iov[i].iov_len = frames[i].size();
      total += frames[i].size();
    }
    em().shard_writev_calls.increment();
    em().writev_frames.observe(static_cast<double>(frames.size()));
    ssize_t n = ::writev(conn.stream.fd(), iov.data(), static_cast<int>(iov.size()));
    while (n < 0 && errno == EINTR)
      n = ::writev(conn.stream.fd(), iov.data(), static_cast<int>(iov.size()));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        n = 0;  // park everything in the carry buffer
      } else {
        destroy_conn(shard, id);
        return;
      }
    }
    em().bytes_out.add(static_cast<std::uint64_t>(n));
    std::size_t written = static_cast<std::size_t>(n);
    if (written < total) {
      // Short write: the unsent tail (possibly spanning frames) parks in
      // the carry buffer until the socket signals writable again.
      em().shard_short_writes.increment();
      for (const std::vector<std::uint8_t>& frame : frames) {
        if (written >= frame.size()) {
          written -= frame.size();
          continue;
        }
        conn.carry.insert(conn.carry.end(),
                          frame.begin() + static_cast<std::ptrdiff_t>(written),
                          frame.end());
        written = 0;
      }
      return;
    }
  }
  if (conn.close_after_flush && conn.replies.empty() &&
      conn.carry_off >= conn.carry.size())
    destroy_conn(shard, id);
}

void EpollServer::destroy_conn(Shard& shard, std::uint64_t id) {
  // Outstanding service completions for this connection still arrive; the
  // inbox pass drops them when the id lookup misses. Closing the fd (with
  // the Conn) removes it from the epoll set.
  shard.conns.erase(id);
}

void EpollServer::drain_and_close_all(Shard& shard) {
  // Push what the peers will take right now, then close. A peer that
  // stopped reading loses its undelivered tail.
  std::vector<std::uint64_t> ids;
  ids.reserve(shard.conns.size());
  for (const auto& [id, conn] : shard.conns) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = shard.conns.find(id);  // flush may erase dead peers
    if (it == shard.conns.end()) continue;
    Conn& conn = *it->second;
    if (!conn.replies.empty() || conn.carry_off < conn.carry.size())
      flush(shard, conn);
  }
  shard.conns.clear();
}

}  // namespace spotbid::net
