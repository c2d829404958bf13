// Tests for the TCP front-end on a single I/O shard (spotbidd --shards 1):
// shard 0 owns the listener and every connection, so accepts, frame
// decoding, completion wake-ups and reply writes all interleave on one
// event-loop thread. test_epoll_server.cpp runs the server at the host's
// shard count and at four shards; these pin the one-shard case on every
// host. Responses over the wire must be bit-identical to
// engine::execute_one, replies on one connection must come back in
// submission order (the docs/PROTOCOL.md §5 guarantee — including when
// overload rejections interleave with accepted requests), kOverloaded /
// kShutdown must surface as typed ERROR frames, and malformed input must get
// a typed error reply, never a hang or a crash.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "net_test_support.hpp"
#include "spotbid/net/client.hpp"
#include "spotbid/net/epoll_server.hpp"
#include "spotbid/net/wire.hpp"
#include "spotbid/serve/engine.hpp"

namespace spotbid::net {
namespace {

EpollServerConfig one_shard() {
  EpollServerConfig config;
  config.shards = 1;
  return config;
}

TEST(NetServer, EveryKindIsBitIdenticalToTheEngine) {
  EpollDaemon daemon{{}, one_shard()};
  BidClient client{"127.0.0.1", daemon.server.port()};
  const auto snapshot = test_store().find("us-east-1/r3.xlarge");
  ASSERT_NE(snapshot, nullptr);
  for (const serve::Kind kind :
       {serve::Kind::kOptimalBid, serve::Kind::kExpectedCost, serve::Kind::kRunLength,
        serve::Kind::kPersistentFeasibility, serve::Kind::kProviderPrice}) {
    for (const serve::BidMode mode :
         {serve::BidMode::kOneTime, serve::BidMode::kPersistent}) {
      serve::Request q = base_request(kind);
      q.mode = mode;
      const serve::Response over_wire = client.ask(q);
      const serve::Response direct = serve::execute_one(snapshot.get(), q);
      EXPECT_EQ(over_wire, direct) << serve::kind_name(kind);
    }
  }
}

TEST(NetServer, PipelinedRepliesComeBackInSubmissionOrder) {
  EpollDaemon daemon{{}, one_shard()};
  BidClient client{"127.0.0.1", daemon.server.port()};
  // Distinct bids so each reply is attributable to its request.
  constexpr int kCount = 256;
  std::vector<std::uint64_t> seqs;
  std::vector<serve::Request> requests;
  for (int i = 0; i < kCount; ++i) {
    serve::Request q = base_request(serve::Kind::kRunLength);
    q.bid = Money{0.05 + 0.001 * i};
    requests.push_back(q);
    seqs.push_back(client.send(q));
  }
  const auto snapshot = test_store().find("us-east-1/r3.xlarge");
  for (int i = 0; i < kCount; ++i) {
    const BidClient::Reply reply = client.receive();
    ASSERT_EQ(reply.type, FrameType::kResponse) << i;
    EXPECT_EQ(reply.seq, seqs[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(reply.response,
              serve::execute_one(snapshot.get(), requests[static_cast<std::size_t>(i)]))
        << i;
  }
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST(NetServer, OverloadSurfacesAsTypedErrorFramesInOrder) {
  // Manual dispatch (no workers) makes admission deterministic: with
  // capacity 8, pipelining 20 requests admits exactly the first 8 and
  // rejects the rest, and all 20 replies still come back in submission
  // order once we drain the queue.
  serve::ServiceConfig config;
  config.start_workers = false;
  config.queue_capacity = 8;
  config.high_watermark = 8;
  config.low_watermark = 1;
  serve::BidService service{test_store(), config};
  EpollServer server{service, one_shard()};
  server.start();
  BidClient client{"127.0.0.1", server.port()};

  constexpr int kCount = 20;
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < kCount; ++i)
    seqs.push_back(client.send(base_request(serve::Kind::kRunLength)));

  // Admission happens on the shard thread; wait until every frame has been
  // submitted (accepted + rejected) before draining.
  while (service.accepted() + service.rejected() < static_cast<std::uint64_t>(kCount))
    std::this_thread::yield();
  EXPECT_EQ(service.accepted(), 8u);
  EXPECT_EQ(service.rejected(), 12u);
  while (service.poll_once()) {
  }

  int ok = 0;
  int overloaded = 0;
  for (int i = 0; i < kCount; ++i) {
    const BidClient::Reply reply = client.receive();
    EXPECT_EQ(reply.seq, seqs[static_cast<std::size_t>(i)]) << i;  // strict order
    if (reply.type == FrameType::kResponse) {
      EXPECT_EQ(reply.response.status, serve::Status::kOk);
      ++ok;
    } else {
      EXPECT_EQ(reply.error.code, ErrorCode::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 8);           // conservation: accepted all answered
  EXPECT_EQ(overloaded, 12);  // rejected all surfaced as typed errors
  server.stop();
  service.stop();
}

TEST(NetServer, ShutdownSurfacesAsTypedErrorFrame) {
  serve::BidService service{test_store(), {}};
  EpollServer server{service, one_shard()};
  server.start();
  BidClient client{"127.0.0.1", server.port()};
  // Drain the service while the server still accepts frames: every request
  // submitted after stop() must come back as a SHUTTING_DOWN error.
  service.stop();
  const serve::Response r = client.ask(base_request(serve::Kind::kRunLength));
  EXPECT_EQ(r.status, serve::Status::kShutdown);
  server.stop();
}

TEST(NetServer, MalformedFrameGetsTypedErrorThenClose) {
  EpollDaemon daemon{{}, one_shard()};
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  // A length prefix beyond kMaxFramePayload: framing is unrecoverable.
  const std::vector<std::uint8_t> junk{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00};
  raw.write_all(junk);

  std::uint8_t prefix[4];
  ASSERT_TRUE(raw.read_exact(prefix));
  const std::uint32_t length = decode_frame_length(std::span<const std::uint8_t, 4>{prefix});
  std::vector<std::uint8_t> payload(length);
  ASSERT_TRUE(raw.read_exact(payload));
  const Frame frame = decode_frame(payload);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(decode_error_body(frame).code, ErrorCode::kMalformed);
  // ... and the server closes the connection.
  std::uint8_t byte[1];
  EXPECT_FALSE(raw.read_exact(byte));
}

TEST(NetServer, GarbageBodyGetsTypedErrorWithEchoedSeq) {
  EpollDaemon daemon{{}, one_shard()};
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  // Valid envelope (version 1, REQUEST, seq 77) but an empty body.
  const std::vector<std::uint8_t> frame{10, 0, 0, 0, 1, 2, 77, 0, 0, 0, 0, 0, 0, 0};
  raw.write_all(frame);
  std::uint8_t prefix[4];
  ASSERT_TRUE(raw.read_exact(prefix));
  std::vector<std::uint8_t> payload(
      decode_frame_length(std::span<const std::uint8_t, 4>{prefix}));
  ASSERT_TRUE(raw.read_exact(payload));
  const Frame reply = decode_frame(payload);
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.seq, 77u);
  EXPECT_EQ(decode_error_body(reply).code, ErrorCode::kMalformed);
}

TEST(NetServer, ManyConnectionsServeConcurrently) {
  // Every connection lands on the one shard that also owns the listener.
  EpollDaemon daemon{{}, one_shard()};
  EXPECT_EQ(daemon.server.shards(), 1);
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  const auto snapshot = test_store().find("eu-west-1/r3.xlarge");
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BidClient client{"127.0.0.1", daemon.server.port()};
      for (int i = 0; i < 50; ++i) {
        serve::Request q = base_request(serve::Kind::kExpectedCost);
        q.key = "eu-west-1/r3.xlarge";
        q.bid = Money{0.05 + 0.002 * c + 0.0001 * i};
        const serve::Response over_wire = client.ask(q);
        if (over_wire != serve::execute_one(snapshot.get(), q)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(daemon.server.connections_accepted(), static_cast<std::uint64_t>(kClients));
}

TEST(NetServer, PortfolioBidIsBitIdenticalToTheEngine) {
  EpollDaemon daemon{{}, one_shard()};
  BidClient client{"127.0.0.1", daemon.server.port()};
  EXPECT_EQ(client.negotiated_version(), kProtocolVersion);
  const auto snapshot = test_store().find("us-east-1/r3.xlarge");
  ASSERT_NE(snapshot, nullptr);
  for (const int levels : {1, 4, 8}) {
    serve::Request q = portfolio_request();
    q.levels = static_cast<std::uint8_t>(levels);
    const serve::Response over_wire = client.ask(q);
    const serve::Response direct = serve::execute_one(snapshot.get(), q);
    EXPECT_EQ(over_wire, direct) << "K=" << levels;
    EXPECT_EQ(over_wire.status, serve::Status::kOk);
  }
}

TEST(NetServer, StopFlushesAndClientSeesEof) {
  auto daemon = std::make_unique<EpollDaemon>(serve::ServiceConfig{}, one_shard());
  BidClient client{"127.0.0.1", daemon->server.port()};
  const serve::Response r = client.ask(base_request(serve::Kind::kRunLength));
  EXPECT_EQ(r.status, serve::Status::kOk);
  daemon.reset();  // server.stop() + service.stop()
  EXPECT_THROW((void)client.ask(base_request(serve::Kind::kRunLength)),
               std::runtime_error);  // SocketError: connection closed
}

}  // namespace
}  // namespace spotbid::net
