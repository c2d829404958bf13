// Tests for the spot-market simulator: lifecycle semantics, billing, price
// sources, checkpoint store, and the work tracker.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "spotbid/dist/uniform.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/market/checkpoint.hpp"
#include "spotbid/market/price_source.hpp"
#include "spotbid/market/spot_market.hpp"
#include "spotbid/market/work_tracker.hpp"
#include "spotbid/trace/generator.hpp"

namespace spotbid::market {
namespace {

constexpr double kTk = 1.0 / 12.0;  // five-minute slots

/// Market replaying the given prices (non-wrapping).
SpotMarket make_market(std::vector<double> prices, bool wrap = false) {
  trace::PriceTrace trace{"test", 0, Hours{kTk}, std::move(prices)};
  return SpotMarket{std::make_unique<TracePriceSource>(std::move(trace), wrap)};
}

TEST(SpotMarket, RejectsNullSourceAndBadBids) {
  EXPECT_THROW((SpotMarket{nullptr}), InvalidArgument);
  auto m = make_market({0.05});
  EXPECT_THROW((void)m.submit({Money{0.0}, BidKind::kPersistent}), InvalidArgument);
  EXPECT_THROW((void)m.status(42), InvalidArgument);
}

TEST(SpotMarket, CurrentPriceRequiresASlot) {
  auto m = make_market({0.05, 0.06});
  EXPECT_THROW((void)m.current_price(), ModelError);
  m.advance();
  EXPECT_DOUBLE_EQ(m.current_price().usd(), 0.05);
}

TEST(SpotMarket, WinningBidLaunchesAndIsBilledSpotPrice) {
  auto m = make_market({0.05, 0.06, 0.04});
  const auto id = m.submit({Money{0.055}, BidKind::kPersistent});
  m.advance();  // price 0.05 <= bid: runs
  const auto& s1 = m.status(id);
  EXPECT_EQ(s1.state, RequestState::kRunning);
  EXPECT_EQ(s1.launches, 1);
  // Charged the SPOT price (0.05), not the bid (0.055).
  EXPECT_NEAR(s1.accrued_cost.usd(), 0.05 * kTk, 1e-12);

  m.advance();  // price 0.06 > bid: interrupted (persistent -> pending)
  const auto& s2 = m.status(id);
  EXPECT_EQ(s2.state, RequestState::kPending);
  EXPECT_EQ(s2.interruptions, 1);
  EXPECT_NEAR(s2.accrued_cost.usd(), 0.05 * kTk, 1e-12);  // idle is free

  m.advance();  // price 0.04: relaunches
  const auto& s3 = m.status(id);
  EXPECT_EQ(s3.state, RequestState::kRunning);
  EXPECT_EQ(s3.launches, 2);
  EXPECT_NEAR(s3.accrued_cost.usd(), (0.05 + 0.04) * kTk, 1e-12);
  EXPECT_EQ(s3.running_slots, 2);
  EXPECT_EQ(s3.pending_slots, 1);
}

TEST(SpotMarket, OneTimePendsUntilPriceDrops) {
  // EC2 keeps an unfulfilled one-time request open; it launches when the
  // price falls to the bid, and nothing is billed while it waits.
  auto m = make_market({0.10, 0.10, 0.01});
  const auto id = m.submit({Money{0.05}, BidKind::kOneTime});
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kPending);
  EXPECT_FALSE(m.is_final(id));
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kPending);
  EXPECT_DOUBLE_EQ(m.status(id).accrued_cost.usd(), 0.0);
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kRunning);
  EXPECT_EQ(m.status(id).pending_slots, 2);
}

TEST(SpotMarket, OneTimeTerminatedWhenOutbid) {
  auto m = make_market({0.04, 0.08, 0.01});
  const auto id = m.submit({Money{0.05}, BidKind::kOneTime});
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kRunning);
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kTerminated);
  EXPECT_EQ(m.status(id).closed_slot, 1);
  m.advance();  // stays dead
  EXPECT_EQ(m.status(id).state, RequestState::kTerminated);
  EXPECT_NEAR(m.status(id).accrued_cost.usd(), 0.04 * kTk, 1e-12);
}

TEST(SpotMarket, PersistentPendsWhenBelowPriceAtSubmission) {
  auto m = make_market({0.10, 0.01});
  const auto id = m.submit({Money{0.05}, BidKind::kPersistent});
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kPending);
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kRunning);
  EXPECT_EQ(m.status(id).launches, 1);
  EXPECT_EQ(m.status(id).interruptions, 0);  // pend-then-launch is no interruption
}

TEST(SpotMarket, SubmissionTakesEffectNextSlot) {
  auto m = make_market({0.05, 0.05});
  m.advance();
  const auto id = m.submit({Money{0.06}, BidKind::kPersistent});
  EXPECT_EQ(m.status(id).state, RequestState::kSubmitted);
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kRunning);
  // Only one slot billed.
  EXPECT_NEAR(m.status(id).accrued_cost.usd(), 0.05 * kTk, 1e-12);
}

TEST(SpotMarket, CloseStopsBillingAndIsIdempotent) {
  auto m = make_market({0.05, 0.05, 0.05});
  const auto id = m.submit({Money{0.06}, BidKind::kPersistent});
  m.advance();
  m.close(id);
  EXPECT_EQ(m.status(id).state, RequestState::kClosed);
  m.advance();
  EXPECT_NEAR(m.status(id).accrued_cost.usd(), 0.05 * kTk, 1e-12);
  m.close(id);  // no-op
  EXPECT_EQ(m.status(id).state, RequestState::kClosed);
  EXPECT_THROW((void)m.close(777), InvalidArgument);
}

TEST(SpotMarket, CloseWhileStillSubmittedNeverEntersTheAuction) {
  // Regression for the submit-then-immediately-close path: a request
  // cancelled before the next slot opens must never launch, never bill,
  // and must record its closure at the submission slot.
  auto m = make_market({0.01, 0.01, 0.01});
  m.advance();  // open slot 0 so the submission slot is non-trivial
  const auto id = m.submit({Money{0.99}, BidKind::kPersistent});
  ASSERT_EQ(m.status(id).state, RequestState::kSubmitted);
  m.close(id);

  const auto& s = m.status(id);
  EXPECT_EQ(s.state, RequestState::kClosed);
  EXPECT_TRUE(m.is_final(id));
  EXPECT_EQ(s.closed_slot, s.submitted_slot);
  EXPECT_DOUBLE_EQ(s.accrued_cost.usd(), 0.0);
  EXPECT_EQ(s.launches, 0);
  EXPECT_EQ(s.running_slots, 0);

  // The would-be winning price in later slots must not resurrect it.
  m.advance();
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kClosed);
  EXPECT_DOUBLE_EQ(m.status(id).accrued_cost.usd(), 0.0);
  EXPECT_EQ(m.status(id).launches, 0);

  // Event log: exactly one event for this request, and it is the closure.
  int events_for_id = 0;
  for (const auto& event : m.event_log())
    if (event.request == id) {
      ++events_for_id;
      EXPECT_EQ(event.kind, EventKind::kClosed);
    }
  EXPECT_EQ(events_for_id, 1);
}

TEST(SpotMarket, EventLogRecordsLifecycle) {
  auto m = make_market({0.04, 0.08, 0.04});
  const auto id = m.submit({Money{0.05}, BidKind::kPersistent});
  m.advance();  // launch
  m.advance();  // interrupt
  m.advance();  // relaunch
  m.close(id);
  const auto& log = m.event_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].kind, EventKind::kLaunched);
  EXPECT_EQ(log[1].kind, EventKind::kInterrupted);
  EXPECT_EQ(log[2].kind, EventKind::kLaunched);
  EXPECT_EQ(log[3].kind, EventKind::kClosed);
  EXPECT_EQ(log[1].slot, 1);
}

TEST(SpotMarket, BidEqualToPriceWins) {
  // "users' bids above the spot price are accepted" — ties count as wins in
  // our implementation (bid >= price), matching Amazon's bid >= spot rule.
  auto m = make_market({0.05});
  const auto id = m.submit({Money{0.05}, BidKind::kOneTime});
  m.advance();
  EXPECT_EQ(m.status(id).state, RequestState::kRunning);
}

/// Two runs over the same prices and bids must agree exactly: even a
/// last-ulp cost difference is a failure.
void ExpectStatusBitsEqual(const RequestStatus& a, const RequestStatus& b, RequestId id) {
  EXPECT_EQ(a.state, b.state) << "request " << id;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.accrued_cost.usd()),
            std::bit_cast<std::uint64_t>(b.accrued_cost.usd()))
      << "accrued cost of request " << id;
  EXPECT_EQ(a.running_slots, b.running_slots) << "request " << id;
  EXPECT_EQ(a.pending_slots, b.pending_slots) << "request " << id;
  EXPECT_EQ(a.launches, b.launches) << "request " << id;
  EXPECT_EQ(a.interruptions, b.interruptions) << "request " << id;
  EXPECT_EQ(a.closed_slot, b.closed_slot) << "request " << id;
}

TEST(SpotMarket, StatusQueryFrequencyIsObservationallyIrrelevant) {
  // status() is a pure read: querying every bid every slot and querying
  // only at the end yield identical tallies and event logs.
  const auto& type = ec2::require_type("r3.xlarge");
  trace::GeneratorConfig config;
  config.slots = 300;
  config.slot_length = Hours{kTk};
  config.seed = 21;
  const trace::PriceTrace trace = trace::generate_for_type(type, config);
  const std::vector<double> prices{trace.prices().begin(), trace.prices().end()};

  auto chatty = make_market(prices);
  auto quiet = make_market(prices);
  std::vector<RequestId> ids;
  for (int i = 0; i < 60; ++i) {
    const BidRequest request{Money{0.02 + 0.004 * i},
                             i % 2 == 0 ? BidKind::kPersistent : BidKind::kOneTime};
    ids.push_back(chatty.submit(request));
    (void)quiet.submit(request);
  }
  for (std::size_t slot = 0; slot < prices.size(); ++slot) {
    chatty.advance();
    quiet.advance();
    for (const RequestId id : ids) (void)chatty.status(id);
  }
  int interruptions = 0;
  for (const RequestId id : ids) {
    ExpectStatusBitsEqual(chatty.status(id), quiet.status(id), id);
    interruptions += quiet.status(id).interruptions;
  }
  EXPECT_EQ(chatty.event_log(), quiet.event_log());
  EXPECT_GT(interruptions, 0);  // the trace does outbid some bids
}

TEST(SpotMarket, MoveMidRunKeepsAccounting) {
  // A market moved mid-run carries on exactly where the original left off.
  const std::vector<double> prices = {0.05, 0.08, 0.03, 0.06, 0.02, 0.09, 0.04};
  auto original = make_market(prices);
  auto unmoved = make_market(prices);
  std::vector<RequestId> ids;
  for (int i = 0; i < 12; ++i) {
    const BidRequest request{Money{0.02 + 0.007 * i},
                             i % 3 == 0 ? BidKind::kOneTime : BidKind::kPersistent};
    ids.push_back(original.submit(request));
    (void)unmoved.submit(request);
  }
  for (int s = 0; s < 3; ++s) {
    original.advance();
    unmoved.advance();
  }
  SpotMarket moved{std::move(original)};
  for (std::size_t s = 3; s < prices.size(); ++s) {
    moved.advance();
    unmoved.advance();
  }
  for (const RequestId id : ids) ExpectStatusBitsEqual(moved.status(id), unmoved.status(id), id);
  EXPECT_EQ(moved.event_log(), unmoved.event_log());
}

TEST(TracePriceSourceTest, WrapAndNoWrap) {
  trace::PriceTrace t{"x", 0, Hours{kTk}, {0.1, 0.2}};
  TracePriceSource wrap{t, true};
  EXPECT_DOUBLE_EQ(wrap.price_at(3).usd(), 0.2);
  TracePriceSource no_wrap{t, false};
  EXPECT_THROW((void)no_wrap.price_at(2), InvalidArgument);
  EXPECT_THROW((void)no_wrap.price_at(-1), InvalidArgument);
}

TEST(ModelPriceSourceTest, DeterministicAndCached) {
  auto d = std::make_shared<dist::Uniform>(0.02, 0.10);
  ModelPriceSource a{d, Hours{kTk}, 5};
  ModelPriceSource b{d, Hours{kTk}, 5};
  for (SlotIndex i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.price_at(i).usd(), b.price_at(i).usd());
  // Re-query is stable.
  const double p3 = a.price_at(3).usd();
  EXPECT_DOUBLE_EQ(a.price_at(3).usd(), p3);
}

TEST(QueuePriceSourceTest, ProducesPricesWithinBounds) {
  provider::ProviderModel model{Money{0.35}, Money{0.0315}, 0.595, 0.02};
  auto arrivals = std::make_shared<dist::Uniform>(0.01, 0.2);
  QueuePriceSource source{model, arrivals, Hours{kTk}, 9};
  for (SlotIndex i = 0; i < 200; ++i) {
    const double p = source.price_at(i).usd();
    EXPECT_GE(p, model.pi_min().usd() - 1e-12);
    EXPECT_LE(p, 0.5 * 0.35 + 1e-12);
  }
}

TEST(Checkpoint, LaunchCountAndRestartDetection) {
  CheckpointStore store;
  EXPECT_EQ(store.launch_count("a"), 0);
  EXPECT_FALSE(store.is_restart("a"));
  store.record_launch("a", 0);
  EXPECT_EQ(store.launch_count("a"), 1);
  EXPECT_FALSE(store.is_restart("a"));
  store.record_launch("a", 5);
  EXPECT_TRUE(store.is_restart("a"));
  EXPECT_EQ(store.key_count(), 1u);
}

TEST(Checkpoint, LastSavedWork) {
  CheckpointStore store;
  EXPECT_FALSE(store.last_saved_work("j").has_value());
  store.record_launch("j", 0);
  store.record_progress("j", 3, Hours{0.25});
  store.record_progress("j", 7, Hours{0.5});
  ASSERT_TRUE(store.last_saved_work("j").has_value());
  EXPECT_DOUBLE_EQ(store.last_saved_work("j")->hours(), 0.5);
  EXPECT_EQ(store.journal("j").size(), 3u);
  EXPECT_THROW(store.record_progress("j", 8, Hours{-1.0}), InvalidArgument);
}

TEST(WorkTrackerTest, ProgressesOnlyWhileRunning) {
  auto m = make_market({0.04, 0.08, 0.04, 0.04});
  const auto id = m.submit({Money{0.05}, BidKind::kPersistent});
  WorkTracker tracker{Hours{3.0 * kTk}, Hours{0.0}, Hours{kTk}};
  for (int i = 0; i < 4; ++i) {
    m.advance();
    tracker.on_slot(m.status(id));
  }
  // Ran slots 0, 2, 3 -> 3 slots of progress, done.
  EXPECT_TRUE(tracker.done());
  EXPECT_NEAR(tracker.progress().hours(), 3.0 * kTk, 1e-12);
  EXPECT_EQ(tracker.interruptions_observed(), 1);
}

TEST(WorkTrackerTest, RecoveryConsumesRunningTime) {
  auto m = make_market({0.04, 0.08, 0.04, 0.04, 0.04});
  const auto id = m.submit({Money{0.05}, BidKind::kPersistent});
  // Recovery of half a slot after each interruption.
  WorkTracker tracker{Hours{3.0 * kTk}, Hours{kTk / 2.0}, Hours{kTk}};
  for (int i = 0; i < 5; ++i) {
    m.advance();
    tracker.on_slot(m.status(id));
  }
  // Running slots: 0, 2, 3, 4 = 4 slots; 0.5 slot lost to recovery.
  EXPECT_NEAR(tracker.progress().hours(), 3.5 * kTk, 1e-12);
  EXPECT_NEAR(tracker.recovery_spent().hours(), 0.5 * kTk, 1e-12);
  EXPECT_TRUE(tracker.done());
}

TEST(WorkTrackerTest, FirstLaunchPaysNoRecovery) {
  auto m = make_market({0.04, 0.04});
  const auto id = m.submit({Money{0.05}, BidKind::kPersistent});
  WorkTracker tracker{Hours{2.0 * kTk}, Hours{kTk}, Hours{kTk}};
  m.advance();
  tracker.on_slot(m.status(id));
  m.advance();
  tracker.on_slot(m.status(id));
  EXPECT_TRUE(tracker.done());
  EXPECT_DOUBLE_EQ(tracker.recovery_spent().hours(), 0.0);
}

TEST(WorkTrackerTest, RecoveryDebtRollsOverSlotBoundaries) {
  // Recovery of 1.5 slots cannot be paid inside one slot: the relaunch
  // slot is fully consumed, and the debt rolls into the next.
  auto m = make_market({0.04, 0.08, 0.04, 0.04, 0.04, 0.04});
  const auto id = m.submit({Money{0.05}, BidKind::kPersistent});
  WorkTracker tracker{Hours{3.0 * kTk}, Hours{1.5 * kTk}, Hours{kTk}};
  for (int i = 0; i < 6; ++i) {
    m.advance();
    tracker.on_slot(m.status(id));
  }
  // Running slots 0, 2, 3, 4, 5. Slot 2 is all recovery, slot 3 pays the
  // remaining half slot: progress 1 + 0 + 0.5 + 1 + 1 = 3.5 slots.
  EXPECT_EQ(tracker.interruptions_observed(), 1);
  EXPECT_NEAR(tracker.recovery_spent().hours(), 1.5 * kTk, 1e-12);
  EXPECT_NEAR(tracker.progress().hours(), 3.5 * kTk, 1e-12);
  EXPECT_TRUE(tracker.done());
  EXPECT_EQ(tracker.slots_elapsed(), 6);
}

TEST(WorkTrackerTest, BackToBackInterruptionsAccumulateDebt) {
  // A second interruption lands before the first recovery is paid off: the
  // debts add up, and no progress leaks through in between.
  auto m = make_market({0.04, 0.08, 0.04, 0.08, 0.04, 0.04, 0.04, 0.04});
  const auto id = m.submit({Money{0.05}, BidKind::kPersistent});
  WorkTracker tracker{Hours{2.0 * kTk}, Hours{2.0 * kTk}, Hours{kTk}};
  for (int i = 0; i < 8; ++i) {
    m.advance();
    tracker.on_slot(m.status(id));
  }
  // Slot 0: 1 slot of progress. Slot 2 pays 1 of the first 2-slot debt;
  // slot 3 interrupts again (debt back to 3); slots 4-6 pay it off; slot 7
  // completes the remaining work.
  EXPECT_EQ(tracker.interruptions_observed(), 2);
  EXPECT_NEAR(tracker.recovery_spent().hours(), 4.0 * kTk, 1e-12);
  EXPECT_NEAR(tracker.progress().hours(), 2.0 * kTk, 1e-12);
  EXPECT_TRUE(tracker.done());
}

TEST(WorkTrackerTest, RejectsBadConstruction) {
  EXPECT_THROW((WorkTracker{Hours{0.0}, Hours{0.0}, Hours{1.0}}), InvalidArgument);
  EXPECT_THROW((WorkTracker{Hours{1.0}, Hours{-1.0}, Hours{1.0}}), InvalidArgument);
  EXPECT_THROW((WorkTracker{Hours{1.0}, Hours{0.0}, Hours{0.0}}), InvalidArgument);
}

}  // namespace
}  // namespace spotbid::market
