#pragma once

/// \file spot_market.hpp
/// Discrete-time spot-market simulator (Section 3.2 semantics).
///
/// The market advances in slots of length t_k. In each slot:
///  - requests whose bid price >= the slot's spot price run; a previously
///    pending (or newly submitted) request launches;
///  - an unfulfilled request (one-time or persistent) whose bid is below
///    the spot price stays PENDING until the price falls to its bid — EC2
///    keeps open spot requests waiting for fulfillment;
///  - running requests whose bid falls below the new spot price are
///    interrupted: persistent requests revert to pending and are
///    automatically re-considered every slot; one-time requests are
///    terminated and "exit the system once they fall below the current
///    spot price" (Section 3.2);
///  - running requests are charged THE SPOT PRICE (not their bid) for the
///    slot: "each successful bidder is charged only the spot price pi(t),
///    regardless of the bid (s)he placed" (Section 4.1).
///
/// Job-level semantics (execution progress, recovery time after an
/// interruption) live in spotbid::client and spotbid::mapreduce; the market
/// only manages request lifecycles and billing.
///
/// ## Engine
///
/// One RequestStatus per bid, and advance() visits every request once
/// per slot in id order. Every caller holds a book of a handful of bids
/// (one job, a MapReduce master and its slaves, a DAG's ready tasks), so
/// the straight-line state machine is also the fast one; its billing is
/// pinned independently by the MarketOracle property tests.

#include <cstdint>
#include <memory>
#include <vector>

#include "spotbid/core/metrics.hpp"
#include "spotbid/market/price_source.hpp"

namespace spotbid::market {

/// One-time vs persistent bids (Section 3.2).
enum class BidKind : std::uint8_t { kOneTime, kPersistent };

/// Lifecycle state of a request.
enum class RequestState : std::uint8_t {
  kSubmitted,   ///< submitted this slot; considered at the next advance()
  kPending,     ///< waiting for the price to fall to the bid
  kRunning,     ///< instance up
  kTerminated,  ///< one-time request outbid after running (job did not finish)
  kClosed,      ///< closed by the user (job finished or cancelled)
};

/// What happened to a request during a slot.
enum class EventKind : std::uint8_t {
  kLaunched,
  kInterrupted,  ///< persistent request outbid; instance reverts to pending
  kTerminated,   ///< one-time request outbid
  kClosed,
};

using RequestId = std::uint64_t;

/// A bid for one instance.
struct BidRequest {
  Money bid_price{};
  BidKind kind = BidKind::kPersistent;
};

/// Event record for the market log.
struct Event {
  SlotIndex slot = 0;
  RequestId request = 0;
  EventKind kind = EventKind::kLaunched;

  [[nodiscard]] bool operator==(const Event&) const = default;
};

/// Per-request bookkeeping exposed to callers.
struct RequestStatus {
  RequestState state = RequestState::kSubmitted;
  Money bid_price{};
  BidKind kind = BidKind::kPersistent;
  Money accrued_cost{};     ///< sum over running slots of spot price * t_k
  long running_slots = 0;   ///< slots spent running
  long pending_slots = 0;   ///< slots spent pending (idle)
  int launches = 0;         ///< number of (re)launches
  int interruptions = 0;    ///< number of interruptions (persistent only)
  SlotIndex submitted_slot = 0;
  SlotIndex closed_slot = -1;  ///< slot of close/terminate, -1 if open
};

/// Report of one advance() call.
struct SlotReport {
  SlotIndex slot = 0;
  Money price{};
  std::vector<Event> events;
};

/// Observability: each market batches its per-slot price histogram
/// locally (`market.slots`, `market.spot_price_usd`) and merges it into
/// metrics::Registry::global() when it is destroyed; request-lifecycle
/// metrics (`market.launches`, `market.interruptions`,
/// `market.terminations`, `market.closes`, `market.revenue_usd`, ...) are
/// recorded when a request reaches a final state (or at market teardown).
/// All of them are integers or fixed-point sums, so parallel replicas merge
/// deterministically — see docs/METRICS.md for the full catalogue.
class SpotMarket {
 public:
  explicit SpotMarket(std::unique_ptr<PriceSource> source);

  SpotMarket(SpotMarket&&) noexcept;
  SpotMarket& operator=(SpotMarket&&) noexcept;

  /// Flushes the price histogram and records requests still open (their
  /// lifecycle tallies would otherwise be lost with the market).
  ~SpotMarket();

  /// Slot length t_k of the underlying price source.
  [[nodiscard]] Hours slot_length() const { return source_->slot_length(); }

  /// Index of the next slot advance() will simulate. Slot 0 has not run
  /// until advance() is called once.
  [[nodiscard]] SlotIndex current_slot() const { return next_slot_; }

  /// Spot price of the most recently simulated slot. Throws ModelError
  /// before the first advance().
  [[nodiscard]] Money current_price() const;

  /// Submit a bid; it participates in the auction from the next advance().
  /// The bid must be positive.
  RequestId submit(const BidRequest& request);

  /// Close a request (job finished or user cancellation). Releases the
  /// instance if running. Throws InvalidArgument for unknown ids; closing
  /// an already-final request is a no-op. A request closed while still
  /// kSubmitted (same slot it was submitted) never enters the auction:
  /// closed_slot == submitted_slot, accrued_cost stays zero, and the log
  /// records only the kClosed event.
  void close(RequestId id);

  /// Simulate one slot and return what happened. Events are reported in
  /// ascending request-id order.
  SlotReport advance();

  /// Current view of one request. The returned reference stays valid until
  /// the next submit() (vector growth).
  [[nodiscard]] const RequestStatus& status(RequestId id) const;
  [[nodiscard]] const std::vector<Event>& event_log() const { return events_; }

  /// True if the request is in a final state (terminated/closed).
  [[nodiscard]] bool is_final(RequestId id) const;

 private:
  /// Merge a request's lifecycle tallies into the global registry; called
  /// exactly once per request, when it reaches a final state (or from the
  /// destructor when it never does).
  void record_request_metrics(const RequestStatus& request, bool resolved);

  std::unique_ptr<PriceSource> source_;
  std::vector<RequestStatus> requests_;
  std::vector<Event> events_;
  SlotIndex next_slot_ = 0;
  Money current_price_{};
  bool has_price_ = false;
  // Local shard of the slot-weighted price histogram. Spot prices are
  // sticky, so instead of per-slot observations the market records one
  // "spell" (price, run length) whenever the price changes. spell_start_
  // is the slot the current spell began at; the destructor flushes the
  // open spell and derives market.slots from the batch. Moved-from markets
  // are left with an empty batch, so a slot is never counted twice.
  metrics::HistogramBatch price_batch_;
  SlotIndex spell_start_ = 0;
};

}  // namespace spotbid::market
