// Tests for the sharded epoll front-end, the daemon's one wire front-end:
// responses over the wire must be bit-identical to engine::execute_one, and
// the reply bytes for a given input byte script must equal the frames the
// wire codec encodes for it — HELLO negotiation, v1 and v2 bodies, typed
// errors — while many connections share a fixed thread budget. Covers
// incremental reassembly over real TCP (frames dribbled one byte at a
// time), pipelined submission-order replies (PROTOCOL §5), deterministic
// overload errors under manual dispatch, version negotiation and
// mismatches, malformed-stream rejection on the nonblocking path,
// cross-shard fan-out, and a slow reader forcing short writes through the
// carry buffer.

#include "spotbid/net/epoll_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net_test_support.hpp"
#include "spotbid/net/client.hpp"
#include "spotbid/net/wire.hpp"
#include "spotbid/serve/engine.hpp"

namespace spotbid::net {
namespace {

TEST(EpollServer, EveryKindIsBitIdenticalToTheEngine) {
  EpollDaemon daemon;
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

TEST(EpollServer, UnknownKeyIsNotFoundNotAnErrorFrame) {
  EpollDaemon daemon;
  BidClient client{"127.0.0.1", daemon.server.port()};
  serve::Request q = base_request(serve::Kind::kRunLength);
  q.key = "nowhere/void.metal";
  const serve::Response r = client.ask(q);
  EXPECT_EQ(r.status, serve::Status::kNotFound);
  EXPECT_EQ(r.kind, serve::Kind::kRunLength);
}

/// Drive a byte script into the server and return every reply byte until
/// the server closes the connection.
std::vector<std::uint8_t> reply_bytes(std::uint16_t port,
                                      const std::vector<std::uint8_t>& script) {
  TcpStream raw = TcpStream::connect("127.0.0.1", port);
  raw.write_all(script);
  std::vector<std::uint8_t> all;
  std::uint8_t byte[1];
  while (raw.read_exact(byte)) all.push_back(byte[0]);
  return all;
}

void append(std::vector<std::uint8_t>& to, std::span<const std::uint8_t> bytes) {
  to.insert(to.end(), bytes.begin(), bytes.end());
}

/// The message of the WireError `decode` throws: the text the server puts
/// in its ERROR frame for the same bytes.
template <class Decode>
std::string wire_error_text(Decode decode) {
  try {
    decode();
  } catch (const WireError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the decoder accepted bytes the server must reject";
  return {};
}

/// A version-0 HELLO, hand-built: encode_hello refuses to make one.
constexpr std::uint8_t kAncientHello[] = {10, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0};

TEST(EpollServer, ReplyBytesMatchExpectedFramesBitForBit) {
  // The reply stream for a pipelined script is exactly the concatenation of
  // the frames the codec encodes for each answer, in submission order.
  EpollDaemon daemon;
  const auto snapshot = test_store().find("us-east-1/r3.xlarge");
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::uint8_t> script;
  std::vector<std::uint8_t> expected;
  append(script, encode_hello(1));
  append(expected, encode_hello(1));
  serve::Request q = base_request(serve::Kind::kRunLength);
  std::uint64_t seq = 2;
  for (const serve::Kind kind :
       {serve::Kind::kRunLength, serve::Kind::kExpectedCost, serve::Kind::kOptimalBid}) {
    q.kind = kind;
    append(script, encode_request(seq, q));
    append(expected, encode_response(seq, serve::execute_one(snapshot.get(), q)));
    ++seq;
  }
  // End with an unrecoverable length prefix: a malformed error and a close,
  // which gives the reader a natural EOF.
  const std::vector<std::uint8_t> bad_prefix{0xff, 0xff, 0xff, 0x7f};
  append(script, bad_prefix);
  append(expected, encode_error(0, ErrorCode::kMalformed, wire_error_text([&] {
                                  (void)decode_frame_length(
                                      std::span<const std::uint8_t, 4>{bad_prefix.data(), 4});
                                })));

  EXPECT_EQ(reply_bytes(daemon.server.port(), script), expected);
}

TEST(EpollServer, PortfolioBidIsBitIdenticalToTheEngine) {
  EpollDaemon daemon;
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

TEST(EpollServer, CrossVersionScriptMatchesExpectedFramesBitForBit) {
  // The negotiation and version-mismatch paths byte for byte: v1 HELLO
  // (negotiates down), a v1 request (v1 reply bytes), portfolio_bid
  // smuggled into a v1 frame (typed kVersionMismatch, connection survives),
  // a v2 portfolio request, then a version-0 HELLO (below the floor: error
  // and close, the script's natural EOF).
  EpollDaemon daemon;
  const auto snapshot = test_store().find("us-east-1/r3.xlarge");
  ASSERT_NE(snapshot, nullptr);
  std::vector<std::uint8_t> script;
  std::vector<std::uint8_t> expected;
  append(script, encode_hello(1, 1));
  append(expected, encode_hello(1, 1));

  const serve::Request v1 = base_request(serve::Kind::kRunLength);
  append(script, encode_request(2, v1, 1));
  append(expected, encode_response(2, serve::execute_one(snapshot.get(), v1), 1));

  std::vector<std::uint8_t> smuggled = encode_request(3, v1, 1);
  smuggled[4 + 10 + 1 + v1.key.size()] = static_cast<std::uint8_t>(serve::Kind::kPortfolioBid);
  append(script, smuggled);
  const std::span<const std::uint8_t> smuggled_payload =
      std::span<const std::uint8_t>{smuggled}.subspan(4);
  append(expected, encode_error(3, ErrorCode::kVersionMismatch, wire_error_text([&] {
                                  (void)decode_request_body(decode_frame(smuggled_payload));
                                }),
                                1));

  const serve::Request portfolio = portfolio_request();
  append(script, encode_request(4, portfolio));
  append(expected, encode_response(4, serve::execute_one(snapshot.get(), portfolio)));

  append(script, kAncientHello);
  append(expected, encode_error(0, ErrorCode::kVersionMismatch,
                                "server speaks versions " +
                                    std::to_string(int{kMinProtocolVersion}) + ".." +
                                    std::to_string(int{kProtocolVersion})));

  EXPECT_EQ(reply_bytes(daemon.server.port(), script), expected);
}

TEST(EpollServer, V1ClientKeepsReceivingByteIdenticalV1Frames) {
  // A v1 peer: HELLO at version 1 negotiates down, and every later reply
  // arrives encoded at version 1 — byte-for-byte what the v1 server sent.
  EpollDaemon daemon;
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  raw.write_all(encode_hello(0, 1));
  const std::vector<std::uint8_t> hello_payload = read_frame(raw);
  const Frame hello = decode_frame(hello_payload);
  ASSERT_EQ(hello.type, FrameType::kHello);
  EXPECT_EQ(hello.version, 1);  // min(client 1, server 2)

  serve::Request q = base_request(serve::Kind::kRunLength);
  raw.write_all(encode_request(7, q, 1));
  const std::vector<std::uint8_t> payload = read_frame(raw);
  const Frame reply = decode_frame(payload);
  ASSERT_EQ(reply.type, FrameType::kResponse);
  EXPECT_EQ(reply.version, 1);  // reply encoded at the request frame's version
  const auto snapshot = test_store().find("us-east-1/r3.xlarge");
  const serve::Response direct = serve::execute_one(snapshot.get(), q);
  std::vector<std::uint8_t> expected = encode_response(7, direct, 1);
  expected.erase(expected.begin(), expected.begin() + 4);  // drop length prefix
  EXPECT_EQ(payload, expected);
}

TEST(EpollServer, PortfolioInV1FrameIsVersionMismatchWithoutClose) {
  EpollDaemon daemon;
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  // A well-formed v1 request whose kind byte names portfolio_bid: the
  // vocabulary needs v2, so the server answers kVersionMismatch — and the
  // connection survives (unlike kMalformed).
  const serve::Request q = base_request(serve::Kind::kRunLength);
  std::vector<std::uint8_t> bytes = encode_request(9, q, 1);
  bytes[4 + 10 + 1 + q.key.size()] = static_cast<std::uint8_t>(serve::Kind::kPortfolioBid);
  raw.write_all(bytes);
  const std::vector<std::uint8_t> reply_payload = read_frame(raw);
  const Frame reply = decode_frame(reply_payload);
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.seq, 9u);
  EXPECT_EQ(decode_error_body(reply).code, ErrorCode::kVersionMismatch);
  // The same connection still answers a valid request.
  raw.write_all(encode_request(10, q, 1));
  const std::vector<std::uint8_t> next_payload = read_frame(raw);
  const Frame next = decode_frame(next_payload);
  EXPECT_EQ(next.type, FrameType::kResponse);
  EXPECT_EQ(next.seq, 10u);
}

TEST(EpollServer, AncientHelloIsRejectedAndClosed) {
  EpollDaemon daemon;
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  // Below the version floor, nothing can be negotiated.
  raw.write_all(kAncientHello);
  const std::vector<std::uint8_t> reply_payload = read_frame(raw);
  const Frame reply = decode_frame(reply_payload);
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(decode_error_body(reply).code, ErrorCode::kVersionMismatch);
  std::uint8_t byte[1];
  EXPECT_FALSE(raw.read_exact(byte));  // connection closed
}

TEST(EpollServer, FutureHelloNegotiatesDownToCurrent) {
  EpollDaemon daemon;
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  // Version 3 HELLO from the future: the server offers its own version.
  const std::vector<std::uint8_t> hello{10, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0};
  raw.write_all(hello);
  const std::vector<std::uint8_t> reply_payload = read_frame(raw);
  const Frame reply = decode_frame(reply_payload);
  ASSERT_EQ(reply.type, FrameType::kHello);
  EXPECT_EQ(reply.version, kProtocolVersion);
  // The connection goes on working at the negotiated version.
  raw.write_all(encode_request(4, portfolio_request()));
  const std::vector<std::uint8_t> next_payload = read_frame(raw);
  EXPECT_EQ(decode_frame(next_payload).type, FrameType::kResponse);
}

TEST(EpollServer, FramesDribbledOneByteAtATime) {
  EpollDaemon daemon;
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  const serve::Request q = base_request(serve::Kind::kRunLength);
  const std::vector<std::uint8_t> frame = encode_request(11, q);
  for (const std::uint8_t byte : frame)
    raw.write_all(std::span<const std::uint8_t>{&byte, 1});

  std::uint8_t prefix[4];
  ASSERT_TRUE(raw.read_exact(prefix));
  std::vector<std::uint8_t> payload(
      decode_frame_length(std::span<const std::uint8_t, 4>{prefix}));
  ASSERT_TRUE(raw.read_exact(payload));
  const Frame reply = decode_frame(payload);
  ASSERT_EQ(reply.type, FrameType::kResponse);
  EXPECT_EQ(reply.seq, 11u);
  const auto snapshot = test_store().find(q.key);
  EXPECT_EQ(decode_response_body(reply), serve::execute_one(snapshot.get(), q));
}

TEST(EpollServer, PipelinedRepliesComeBackInSubmissionOrder) {
  EpollDaemon daemon;
  BidClient client{"127.0.0.1", daemon.server.port()};
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

TEST(EpollServer, OverloadSurfacesAsTypedErrorFramesInOrder) {
  // Manual dispatch makes admission deterministic: with capacity 8,
  // pipelining 20 requests admits exactly the first 8; all 20 replies still
  // come back in submission order with the rejections as typed errors.
  serve::ServiceConfig config;
  config.start_workers = false;
  config.queue_capacity = 8;
  config.high_watermark = 8;
  config.low_watermark = 1;
  serve::BidService service{test_store(), config};
  EpollServer server{service};
  server.start();
  BidClient client{"127.0.0.1", server.port()};

  constexpr int kCount = 20;
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < kCount; ++i)
    seqs.push_back(client.send(base_request(serve::Kind::kRunLength)));

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
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(overloaded, 12);
  server.stop();
  service.stop();
}

TEST(EpollServer, ShutdownSurfacesAsTypedErrorFrame) {
  serve::BidService service{test_store(), {}};
  EpollServer server{service};
  server.start();
  BidClient client{"127.0.0.1", server.port()};
  service.stop();
  const serve::Response r = client.ask(base_request(serve::Kind::kRunLength));
  EXPECT_EQ(r.status, serve::Status::kShutdown);
  server.stop();
}

TEST(EpollServer, MalformedFrameGetsTypedErrorThenClose) {
  EpollDaemon daemon;
  TcpStream raw = TcpStream::connect("127.0.0.1", daemon.server.port());
  // A length prefix beyond kMaxFramePayload on the nonblocking reader.
  const std::vector<std::uint8_t> junk{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00};
  raw.write_all(junk);

  std::uint8_t prefix[4];
  ASSERT_TRUE(raw.read_exact(prefix));
  const std::uint32_t length =
      decode_frame_length(std::span<const std::uint8_t, 4>{prefix});
  std::vector<std::uint8_t> payload(length);
  ASSERT_TRUE(raw.read_exact(payload));
  const Frame frame = decode_frame(payload);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(decode_error_body(frame).code, ErrorCode::kMalformed);
  std::uint8_t byte[1];
  EXPECT_FALSE(raw.read_exact(byte));  // ... and the connection closes
}

TEST(EpollServer, GarbageBodyGetsTypedErrorWithEchoedSeq) {
  EpollDaemon daemon;
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

TEST(EpollServer, ManyConnectionsAcrossShards) {
  // Four shards on any host (shards are explicit, not hardware-derived) so
  // round-robin pinning and the cross-shard inbox hand-off are exercised
  // even on single-core CI runners.
  EpollServerConfig server_config;
  server_config.shards = 4;
  EpollDaemon daemon{{}, server_config};
  EXPECT_EQ(daemon.server.shards(), 4);
  constexpr int kClients = 16;
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
  EXPECT_EQ(daemon.server.connections_accepted(),
            static_cast<std::uint64_t>(kClients));
}

TEST(EpollServer, SlowReaderForcesShortWritesWithoutReordering) {
  // Pipeline a deep burst without reading a single reply: the kernel send
  // buffer fills, writev returns short / EAGAIN, and replies park in the
  // carry buffer until EPOLLOUT. Draining afterwards must still observe
  // every reply, in order, bit-identical to the engine.
  serve::ServiceConfig service_config;
  service_config.queue_capacity = 1 << 16;
  EpollDaemon daemon{service_config};
  BidClient client{"127.0.0.1", daemon.server.port()};
  constexpr int kCount = 20000;
  std::vector<std::uint64_t> seqs;
  seqs.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    serve::Request q = base_request(serve::Kind::kRunLength);
    q.bid = Money{0.02 + 0.000001 * i};
    seqs.push_back(client.send(q));
  }
  for (int i = 0; i < kCount; ++i) {
    const BidClient::Reply reply = client.receive();
    ASSERT_EQ(reply.type, FrameType::kResponse) << i;
    ASSERT_EQ(reply.seq, seqs[static_cast<std::size_t>(i)]) << i;
    ASSERT_EQ(reply.response.status, serve::Status::kOk) << i;
  }
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST(EpollServer, StopFlushesAndClientSeesEof) {
  auto daemon = std::make_unique<EpollDaemon>();
  BidClient client{"127.0.0.1", daemon->server.port()};
  const serve::Response r = client.ask(base_request(serve::Kind::kRunLength));
  EXPECT_EQ(r.status, serve::Status::kOk);
  daemon.reset();  // server.stop() + service.stop()
  EXPECT_THROW((void)client.ask(base_request(serve::Kind::kRunLength)),
               std::runtime_error);  // SocketError: connection closed
}

}  // namespace
}  // namespace spotbid::net
