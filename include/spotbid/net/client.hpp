#pragma once

/// \file client.hpp
/// BidClient: one connection speaking the spotbid wire protocol
/// (docs/PROTOCOL.md). The constructor performs the HELLO handshake; then
/// requests can be pipelined — send() any number of frames, receive() their
/// replies, which the server returns in submission order. Not thread-safe:
/// one client per thread.

#include <cstdint>
#include <string>
#include <vector>

#include "spotbid/net/socket.hpp"
#include "spotbid/net/wire.hpp"
#include "spotbid/serve/request.hpp"

namespace spotbid::net {

class BidClient {
 public:
  /// One reply frame, RESPONSE or ERROR.
  struct Reply {
    std::uint64_t seq = 0;
    FrameType type = FrameType::kResponse;
    serve::Response response;  ///< valid when type == kResponse
    ErrorReply error;          ///< valid when type == kError
  };

  /// Connect and handshake. Throws SocketError on connection failure and
  /// WireError if the server rejects our protocol version.
  BidClient(const std::string& host, std::uint16_t port);

  /// Protocol version negotiated by the HELLO handshake: the lower of ours
  /// and the server's. All request frames are encoded at it.
  [[nodiscard]] std::uint8_t negotiated_version() const { return version_; }

  /// Encode and send one request frame; returns its sequence number.
  /// Throws WireVersionError if the request needs a newer body than the
  /// negotiated version carries (portfolio_bid against a v1 server).
  std::uint64_t send(const serve::Request& request);

  /// Block for the next reply frame. Throws SocketError if the connection
  /// closes first.
  [[nodiscard]] Reply receive();

  /// Synchronous convenience: send, receive, and fold protocol errors back
  /// into a Response (kOverloaded / kShuttingDown ERROR frames become the
  /// matching serve::Status, exactly inverting the server's mapping).
  /// Throws WireError on any other error frame.
  [[nodiscard]] serve::Response ask(const serve::Request& request);

  /// Replies sent but not yet received.
  [[nodiscard]] std::uint64_t in_flight() const { return sent_ - received_; }

  void close() noexcept { stream_.close(); }

 private:
  /// Read one frame's payload into payload_; false on clean server close.
  bool read_payload();

  TcpStream stream_;
  std::vector<std::uint8_t> payload_;
  std::uint8_t version_ = kProtocolVersion;  ///< set by the handshake
  std::uint64_t next_seq_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace spotbid::net
