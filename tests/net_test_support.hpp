#pragma once

// Shared fixture for the wire front-end tests (test_epoll_server.cpp and
// test_net_server_one_shard.cpp): a two-key snapshot store, the base
// requests both files send, a served stack and a raw-frame reader.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/net/epoll_server.hpp"
#include "spotbid/net/socket.hpp"
#include "spotbid/net/wire.hpp"
#include "spotbid/serve/service.hpp"
#include "spotbid/trace/generator.hpp"

namespace spotbid::net {

inline const ec2::InstanceType& r3() {
  static const ec2::InstanceType type = ec2::require_type("r3.xlarge");
  return type;
}

inline serve::SnapshotStore& test_store() {
  static serve::SnapshotStore store;
  static const bool initialized = [] {
    trace::GeneratorConfig config;
    config.slots = 12 * 24 * 7;
    const auto trace = trace::generate_for_type(r3(), config);
    store.publish(serve::ModelSnapshot::from_trace("us-east-1/r3.xlarge", trace, r3()));
    store.publish(serve::ModelSnapshot::from_type("eu-west-1/r3.xlarge", r3()));
    return true;
  }();
  (void)initialized;
  return store;
}

inline serve::Request base_request(serve::Kind kind) {
  serve::Request q;
  q.key = "us-east-1/r3.xlarge";
  q.kind = kind;
  q.mode = serve::BidMode::kPersistent;
  q.bid = Money{0.25};
  q.job = bidding::JobSpec{Hours{2.0}, Hours::from_seconds(30.0)};
  q.demand = 0.7;
  return q;
}

inline serve::Request portfolio_request() {
  serve::Request q = base_request(serve::Kind::kPortfolioBid);
  q.deadline = Hours{8.0};
  q.epsilon = 0.05;
  q.levels = 4;
  return q;
}

/// A served stack (store -> service -> epoll server) with live workers.
struct EpollDaemon {
  serve::BidService service;
  EpollServer server;

  explicit EpollDaemon(serve::ServiceConfig service_config = {},
                       EpollServerConfig server_config = {})
      : service(test_store(), service_config), server(service, server_config) {
    server.start();
  }
  ~EpollDaemon() {
    server.stop();
    service.stop();
  }
};

/// Read one whole frame (length prefix + payload) off a raw stream.
/// Callers must keep the returned vector alive while using the Frame a
/// decode of it yields — Frame::body aliases these bytes.
inline std::vector<std::uint8_t> read_frame(TcpStream& stream) {
  std::uint8_t prefix[4];
  EXPECT_TRUE(stream.read_exact(prefix));
  std::vector<std::uint8_t> payload(
      decode_frame_length(std::span<const std::uint8_t, 4>{prefix}));
  EXPECT_TRUE(stream.read_exact(payload));
  return payload;
}

}  // namespace spotbid::net
