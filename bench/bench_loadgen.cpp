// bench_loadgen — the daemon-smoke storm client (docs/SERVE.md "Load
// generation"). It drives an external spotbidd in two passes, a deep one
// (20,000 requests over 8 connections, 128 in flight on each) and a storm
// (32,768 requests over 1,024 connections, 4 in flight on each), and exits
// 1 unless each pass conserves every request: each comes back exactly once
// as ok / not-found / overloaded, and nothing else comes back. The storm
// runs only after the deep pass conserves.
//
//   SPOTBID_LOADGEN_CONNECT=HOST:PORT SPOTBID_LOADGEN_KEYS=K[,K...] ./bench_loadgen
//
// Sockets are nonblocking and poll()-multiplexed on one thread, so the
// storm loads the daemon's connection handling, not the client's thread
// count.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include "spotbid/net/frame_assembler.hpp"
#include "spotbid/net/socket.hpp"
#include "spotbid/net/wire.hpp"
#include "spotbid/serve/request.hpp"

namespace {

using namespace spotbid;
using Clock = std::chrono::steady_clock;

/// A pass whose connections all go this long without a reply gives up on
/// them, so a daemon that drops a reply fails the conservation gate instead
/// of hanging the client.
constexpr auto kStallTimeout = std::chrono::seconds{10};

/// Share of requests issued as v2 portfolio_bid queries, in percent.
constexpr std::uint64_t kPortfolioPct = 2;

struct Pass {
  const char* name;
  int connections;
  std::uint64_t requests;
  int window;  ///< requests in flight per connection
};
constexpr Pass kPasses[] = {{"deep", 8, 20000, 128}, {"storm", 1024, 32768, 4}};

/// One nonblocking connection inside the multiplexed driver, with its own
/// deterministic request stream.
struct MuxConn {
  net::TcpStream stream;
  net::FrameAssembler assembler;
  std::mt19937_64 rng;
  std::discrete_distribution<std::size_t> zipf;  ///< key popularity
  std::vector<std::uint8_t> out;                 ///< encoded-but-unsent request bytes
  std::size_t out_off = 0;
  std::uint64_t quota = 0;     ///< requests this connection still owes
  std::uint64_t awaiting = 0;  ///< replies outstanding
  std::uint64_t seq = 0;
  bool failed = false;
};

/// The next request of the mix: Zipf(1)-skewed keys, four closed-form
/// kinds, one optimizer query per ~1024 requests, kPortfolioPct portfolio
/// queries.
serve::Request next_request(MuxConn& conn, const std::vector<std::string>& keys) {
  static constexpr serve::Kind kCheap[] = {
      serve::Kind::kRunLength, serve::Kind::kExpectedCost,
      serve::Kind::kPersistentFeasibility, serve::Kind::kProviderPrice};
  std::uniform_real_distribution<double> unit;
  const auto uniform = [&] { return unit(conn.rng); };
  const std::uint64_t r = conn.rng();
  serve::Request q;
  q.key = keys[conn.zipf(conn.rng)];
  q.kind = r % 1024 == 0 ? serve::Kind::kOptimalBid : kCheap[(r >> 10) % 4];
  q.mode = (r >> 12) % 2 == 0 ? serve::BidMode::kOneTime : serve::BidMode::kPersistent;
  q.bid = Money{0.01 + 0.99 * uniform()};
  q.job = bidding::JobSpec{Hours{0.5 + 4.0 * uniform()}, Hours::from_seconds(30.0)};
  q.demand = 0.5 + uniform();
  if ((r >> 13) % 100 < kPortfolioPct) {
    q.kind = serve::Kind::kPortfolioBid;
    q.deadline = Hours{q.job.execution_time.hours() * (1.5 + 2.0 * uniform())};
    q.epsilon = 0.01 + 0.2 * uniform();
    q.levels = static_cast<std::uint8_t>(1 + (r >> 40) % 8);
  }
  return q;
}

struct ReplyCounts {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t not_found = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t unexpected = 0;  ///< any other status or error frame
  [[nodiscard]] std::uint64_t replies() const { return ok + not_found + overloaded + unexpected; }
  /// Every submitted request came back exactly once, as an expected kind.
  [[nodiscard]] bool conserved() const { return unexpected == 0 && replies() == submitted; }
};

/// Encode requests until the window is full or the quota is spent.
void mux_arm(MuxConn& conn, const std::vector<std::string>& keys, int window,
             ReplyCounts& counts) {
  while (conn.quota > 0 && conn.awaiting < static_cast<std::uint64_t>(window)) {
    const std::vector<std::uint8_t> frame =
        net::encode_request(conn.seq++, next_request(conn, keys));
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    --conn.quota;
    ++conn.awaiting;
    ++counts.submitted;
  }
}

/// Push buffered request bytes until EAGAIN; false on a hard socket error.
bool mux_flush(MuxConn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.stream.fd(), conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    conn.out_off += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

/// Count every complete reply frame buffered in the assembler.
void mux_drain(MuxConn& conn, ReplyCounts& counts) {
  std::vector<std::uint8_t> payload;
  while (conn.assembler.next_payload(payload)) {
    if (conn.awaiting > 0) --conn.awaiting;
    const net::Frame frame = net::decode_frame(payload);
    if (frame.type == net::FrameType::kResponse) {
      switch (net::decode_response_body(frame).status) {
        case serve::Status::kOk: ++counts.ok; break;
        case serve::Status::kNotFound: ++counts.not_found; break;
        default: ++counts.unexpected; break;
      }
    } else if (frame.type == net::FrameType::kError &&
               net::decode_error_body(frame).code == net::ErrorCode::kOverloaded) {
      ++counts.overloaded;
    } else {
      ++counts.unexpected;
    }
  }
}

/// Read until EAGAIN; false on a hard error or an unexpectedly early EOF.
bool mux_read(MuxConn& conn, ReplyCounts& counts) {
  for (;;) {
    // Every commit is drained, so the ring holds less than one frame and
    // has room; a full ring would mean the framing wedged.
    const auto spans = conn.assembler.write_spans();
    if (spans[0].empty()) return false;
    const ssize_t n = ::recv(conn.stream.fd(), spans[0].data(), spans[0].size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    if (n == 0) return conn.awaiting == 0 && conn.quota == 0;  // EOF
    conn.assembler.commit(static_cast<std::size_t>(n));
    mux_drain(conn, counts);
  }
}

/// Drive a pass's connections: arm → flush → poll → read until every
/// connection has spent its quota and seen every reply. A failed or stalled
/// socket stops participating; its missing replies trip the conservation
/// gate.
ReplyCounts run_mux_group(std::vector<MuxConn>& conns, const std::vector<std::string>& keys,
                          int window) {
  ReplyCounts counts;
  std::vector<pollfd> pfds(conns.size());
  std::uint64_t replies_seen = 0;
  auto last_progress = Clock::now();
  for (;;) {
    bool live = false;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      MuxConn& conn = conns[i];
      pfds[i] = pollfd{-1, 0, 0};
      if (conn.failed) continue;
      mux_arm(conn, keys, window, counts);
      if (!mux_flush(conn)) {
        conn.failed = true;
        continue;
      }
      const bool sending = conn.out_off < conn.out.size();
      if (conn.awaiting == 0 && conn.quota == 0 && !sending) continue;  // done
      live = true;
      pfds[i].fd = conn.stream.fd();
      pfds[i].events =
          static_cast<short>((conn.awaiting > 0 ? POLLIN : 0) | (sending ? POLLOUT : 0));
    }
    if (!live) break;
    if (::poll(pfds.data(), pfds.size(), 1000) < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (pfds[i].fd < 0 || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      MuxConn& conn = conns[i];
      try {
        if (!mux_read(conn, counts)) conn.failed = true;
      } catch (const net::WireError&) {
        conn.failed = true;  // un-parsable reply stream
      }
    }
    if (counts.replies() != replies_seen) {
      replies_seen = counts.replies();
      last_progress = Clock::now();
    } else if (Clock::now() - last_progress >= kStallTimeout) {
      for (MuxConn& conn : conns) conn.failed = true;  // the gate counts what is owed
    }
  }
  return counts;
}

/// Connect a pass's sockets and run it.
ReplyCounts run_mux_load(const std::string& host, std::uint16_t port,
                         const std::vector<std::string>& keys, const Pass& pass) {
  std::vector<double> weights(keys.size());
  for (std::size_t k = 0; k < weights.size(); ++k) weights[k] = 1.0 / static_cast<double>(k + 1);
  const auto n = static_cast<std::uint64_t>(pass.connections);
  std::vector<MuxConn> conns(n);
  for (std::uint64_t c = 0; c < n; ++c) {
    MuxConn& conn = conns[c];
    conn.stream = net::TcpStream::connect(host, port);
    conn.stream.set_nonblocking();
    conn.rng.seed(0x5343'414c'4530'3030ull ^ (n << 32) ^ c);  // one stream per pass and socket
    conn.zipf = std::discrete_distribution<std::size_t>(weights.begin(), weights.end());
    conn.quota = pass.requests / n + (c < pass.requests % n ? 1 : 0);
  }
  return run_mux_group(conns, keys, pass.window);
}

std::string required_env(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') throw std::runtime_error{std::string{name} + " is required"};
  return raw;
}

}  // namespace

int main() {
  try {
    const std::string connect = required_env("SPOTBID_LOADGEN_CONNECT");
    std::vector<std::string> keys;
    std::istringstream csv{required_env("SPOTBID_LOADGEN_KEYS")};
    for (std::string key; std::getline(csv, key, ',');)
      if (!key.empty()) keys.push_back(key);
    if (keys.empty()) throw std::runtime_error{"SPOTBID_LOADGEN_KEYS names no key"};
    const std::size_t colon = connect.rfind(':');
    char* end = nullptr;
    const unsigned long port =
        colon == std::string::npos ? 0 : std::strtoul(connect.c_str() + colon + 1, &end, 10);
    if (port == 0 || port > 65535 || *end != '\0')
      throw std::runtime_error{"SPOTBID_LOADGEN_CONNECT must be HOST:PORT"};

    // The storm's 1,024 sockets exceed the common soft limit of 1,024 fds:
    // lift it to the hard limit, best-effort.
    rlimit limit{};
    if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 && limit.rlim_cur != limit.rlim_max) {
      limit.rlim_cur = limit.rlim_max;
      (void)::setrlimit(RLIMIT_NOFILE, &limit);
    }

    for (const Pass& pass : kPasses) {
      const ReplyCounts c = run_mux_load(connect.substr(0, colon),
                                         static_cast<std::uint16_t>(port), keys, pass);
      // A failed or stalled connection leaves the rest of its requests owed.
      const std::uint64_t owed = pass.requests - std::min(pass.requests, c.replies());
      std::cout << pass.name << " (" << pass.connections << " connections, window "
                << pass.window << "): " << c.submitted << " submitted, ok " << c.ok
                << ", not-found " << c.not_found << ", overloaded " << c.overloaded
                << ", unexpected " << c.unexpected << ", owed " << owed << "\n";
      if (c.submitted != pass.requests || !c.conserved()) {
        std::cerr << "FATAL: the " << pass.name << " pass did not conserve every request\n";
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "FATAL: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
