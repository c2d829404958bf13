#include "spotbid/market/spot_market.hpp"

#include <utility>

#include "spotbid/core/contracts.hpp"
#include "spotbid/core/metrics.hpp"

namespace spotbid::market {
namespace {

/// `market.*` registry references, resolved once per process (registration
/// takes a mutex; recording through the cached references is lock-free).
struct MarketMetrics {
  metrics::Counter& slots;
  metrics::Histogram& spot_price_usd;
  metrics::Counter& bids_submitted;
  metrics::Counter& launches;
  metrics::Counter& interruptions;
  metrics::Counter& terminations;
  metrics::Counter& closes;
  metrics::Counter& requests_unresolved;
  metrics::Counter& running_slot_total;
  metrics::Counter& pending_slot_total;
  metrics::Sum& revenue_usd;
};

MarketMetrics& mm() {
  static MarketMetrics m{
      metrics::Registry::global().counter("market.slots"),
      metrics::Registry::global().histogram("market.spot_price_usd",
                                            metrics::kPriceBoundsUsd),
      metrics::Registry::global().counter("market.bids_submitted"),
      metrics::Registry::global().counter("market.launches"),
      metrics::Registry::global().counter("market.interruptions"),
      metrics::Registry::global().counter("market.terminations"),
      metrics::Registry::global().counter("market.closes"),
      metrics::Registry::global().counter("market.requests_unresolved"),
      metrics::Registry::global().counter("market.running_slot_total"),
      metrics::Registry::global().counter("market.pending_slot_total"),
      metrics::Registry::global().sum("market.revenue_usd"),
  };
  return m;
}

}  // namespace

SpotMarket::SpotMarket(std::unique_ptr<PriceSource> source)
    : source_(std::move(source)), price_batch_(mm().spot_price_usd) {
  SPOTBID_EXPECT(source_ != nullptr, "SpotMarket: null price source");
}

SpotMarket::SpotMarket(SpotMarket&&) noexcept = default;

SpotMarket& SpotMarket::operator=(SpotMarket&& other) noexcept {
  // Swap instead of overwrite, so `other`'s destructor finalizes this
  // market's previous open requests instead of silently dropping them.
  std::swap(source_, other.source_);
  std::swap(requests_, other.requests_);
  std::swap(events_, other.events_);
  std::swap(next_slot_, other.next_slot_);
  std::swap(current_price_, other.current_price_);
  std::swap(has_price_, other.has_price_);
  std::swap(price_batch_, other.price_batch_);
  std::swap(spell_start_, other.spell_start_);
  return *this;
}

SpotMarket::~SpotMarket() {
  // Close the open price spell, then derive the slot count from the batch:
  // every simulated slot belongs to exactly one spell (prices are
  // contract-checked finite; the batch drops only NaN).
  if (has_price_)
    price_batch_.observe_run(current_price_.usd(),
                             static_cast<std::uint64_t>(next_slot_ - spell_start_));
  mm().slots.add(price_batch_.pending_count());
  // Requests still open when the market dies would otherwise never reach a
  // final state; account for them exactly once here. Moved-from markets
  // hold an empty request vector, so nothing is double-counted.
  for (const auto& req : requests_) {
    if (req.state != RequestState::kTerminated && req.state != RequestState::kClosed) {
      record_request_metrics(req, /*resolved=*/false);
    }
  }
}

void SpotMarket::record_request_metrics(const RequestStatus& request, bool resolved) {
  auto& m = mm();
  m.launches.add(static_cast<std::uint64_t>(request.launches));
  m.interruptions.add(static_cast<std::uint64_t>(request.interruptions));
  m.running_slot_total.add(static_cast<std::uint64_t>(request.running_slots));
  m.pending_slot_total.add(static_cast<std::uint64_t>(request.pending_slots));
  m.revenue_usd.add(request.accrued_cost.usd());
  if (!resolved) m.requests_unresolved.increment();
}

Money SpotMarket::current_price() const {
  if (!has_price_) throw ModelError{"SpotMarket::current_price: no slot simulated yet"};
  return current_price_;
}

RequestId SpotMarket::submit(const BidRequest& request) {
  SPOTBID_REQUIRE_FINITE(request.bid_price.usd(), "SpotMarket::submit: bid price");
  SPOTBID_EXPECT(request.bid_price.usd() > 0.0, "SpotMarket::submit: bid must be positive");
  RequestStatus status;
  status.state = RequestState::kSubmitted;
  status.bid_price = request.bid_price;
  status.kind = request.kind;
  status.submitted_slot = next_slot_;
  requests_.push_back(status);
  mm().bids_submitted.increment();
  return requests_.size() - 1;
}

const RequestStatus& SpotMarket::status(RequestId id) const {
  SPOTBID_EXPECT(id < requests_.size(), "SpotMarket: unknown request id");
  return requests_[id];
}

bool SpotMarket::is_final(RequestId id) const {
  const auto state = status(id).state;
  return state == RequestState::kTerminated || state == RequestState::kClosed;
}

void SpotMarket::close(RequestId id) {
  SPOTBID_EXPECT(id < requests_.size(), "SpotMarket: unknown request id");
  auto& req = requests_[id];
  if (req.state == RequestState::kTerminated || req.state == RequestState::kClosed) {
    return;
  }
  req.state = RequestState::kClosed;
  req.closed_slot = next_slot_;
  events_.push_back({next_slot_, id, EventKind::kClosed});
  record_request_metrics(req, /*resolved=*/true);
  mm().closes.increment();
}

SlotReport SpotMarket::advance() {
  SlotReport report;
  report.slot = next_slot_;
  report.price = source_->price_at(next_slot_);
  SPOTBID_REQUIRE_FINITE(report.price.usd(), "SpotMarket::advance: source price");
  SPOTBID_EXPECT(report.price.usd() >= 0.0, "SpotMarket::advance: negative source price");
  if (has_price_ && report.price != current_price_) {
    // Price spell ended: record it with its slot-weighted run length.
    price_batch_.observe_run(current_price_.usd(),
                             static_cast<std::uint64_t>(next_slot_ - spell_start_));
    spell_start_ = next_slot_;
  }
  current_price_ = report.price;
  has_price_ = true;

  const Hours tk = source_->slot_length();
  for (RequestId id = 0; id < requests_.size(); ++id) {
    auto& req = requests_[id];
    switch (req.state) {
      case RequestState::kTerminated:
      case RequestState::kClosed:
        break;
      case RequestState::kSubmitted:
      case RequestState::kPending: {
        if (req.bid_price >= report.price) {
          req.state = RequestState::kRunning;
          ++req.launches;
          req.accrued_cost += report.price * tk;
          ++req.running_slots;
          report.events.push_back({report.slot, id, EventKind::kLaunched});
        } else {
          // EC2 keeps unfulfilled spot requests open: wait for the price.
          req.state = RequestState::kPending;
          ++req.pending_slots;
        }
        break;
      }
      case RequestState::kRunning: {
        if (req.bid_price >= report.price) {
          req.accrued_cost += report.price * tk;
          ++req.running_slots;
        } else if (req.kind == BidKind::kPersistent) {
          req.state = RequestState::kPending;
          ++req.interruptions;
          ++req.pending_slots;
          report.events.push_back({report.slot, id, EventKind::kInterrupted});
        } else {
          req.state = RequestState::kTerminated;
          req.closed_slot = report.slot;
          report.events.push_back({report.slot, id, EventKind::kTerminated});
          record_request_metrics(req, /*resolved=*/true);
          mm().terminations.increment();
        }
        break;
      }
    }
  }

  events_.insert(events_.end(), report.events.begin(), report.events.end());
  ++next_slot_;
  return report;
}

}  // namespace spotbid::market
