// Tests for the serve-layer request engine: every response must equal the
// bidding/provider library's own answer, execute_batch must be bit-identical
// to execute_one, and malformed requests must map to kInvalid (never throw).

#include "spotbid/serve/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "spotbid/bidding/cost.hpp"
#include "spotbid/bidding/strategies.hpp"
#include "spotbid/core/metrics.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/portfolio/strategy.hpp"
#include "spotbid/trace/generator.hpp"

namespace spotbid::serve {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const ec2::InstanceType& r3() {
  static const ec2::InstanceType type = ec2::require_type("r3.xlarge");
  return type;
}

/// Empirical-law snapshot over a generated two-week trace (deterministic:
/// the generator is seeded).
std::shared_ptr<const ModelSnapshot> empirical_snapshot() {
  static const std::shared_ptr<const ModelSnapshot> snapshot = [] {
    trace::GeneratorConfig config;
    config.slots = 12 * 24 * 14;
    const auto trace = trace::generate_for_type(r3(), config);
    return ModelSnapshot::from_trace("us-east-1/r3.xlarge", trace, r3());
  }();
  return snapshot;
}

std::shared_ptr<const ModelSnapshot> analytic_snapshot() {
  static const std::shared_ptr<const ModelSnapshot> snapshot =
      ModelSnapshot::from_type("us-east-1/r3.xlarge", r3());
  return snapshot;
}

/// A spread of bids across (and beyond) the law's support.
std::vector<Money> bid_grid(const ModelSnapshot& snapshot) {
  const double lo = snapshot.model().support_lo().usd();
  const double hi = snapshot.model().support_hi().usd();
  std::vector<Money> bids{Money{lo * 0.5}, Money{hi * 2.0}};
  for (int i = 0; i <= 16; ++i)
    bids.push_back(Money{lo + (hi - lo) * static_cast<double>(i) / 16.0});
  return bids;
}

Request base_request(Kind kind) {
  Request q;
  q.key = "us-east-1/r3.xlarge";
  q.kind = kind;
  q.job = bidding::JobSpec{Hours{2.0}, Hours::from_seconds(30.0)};
  return q;
}

TEST(ServeEngine, NullSnapshotIsNotFound) {
  const Response r = execute_one(nullptr, base_request(Kind::kRunLength));
  EXPECT_EQ(r.status, Status::kNotFound);
  EXPECT_EQ(r.kind, Kind::kRunLength);
  EXPECT_EQ(r.epoch, 0u);
}

TEST(ServeEngine, RunLengthMatchesEq8) {
  const auto snapshot = empirical_snapshot();
  for (const Money bid : bid_grid(*snapshot)) {
    Request q = base_request(Kind::kRunLength);
    q.bid = bid;
    const Response r = execute_one(snapshot.get(), q);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.acceptance, snapshot->model().acceptance(bid));
    const Hours expected = bidding::expected_uninterrupted_run(snapshot->model(), bid);
    EXPECT_EQ(r.expected_hours.hours(), expected.hours()) << "bid " << bid.usd();
  }
}

TEST(ServeEngine, OneTimeCostMatchesEq10) {
  const auto snapshot = empirical_snapshot();
  for (const Money bid : bid_grid(*snapshot)) {
    Request q = base_request(Kind::kExpectedCost);
    q.mode = BidMode::kOneTime;
    q.bid = bid;
    const Response r = execute_one(snapshot.get(), q);
    ASSERT_EQ(r.status, Status::kOk);
    const Money expected =
        bidding::one_time_expected_cost(snapshot->model(), bid, q.job.execution_time);
    EXPECT_EQ(r.expected_cost.usd(), expected.usd()) << "bid " << bid.usd();
    EXPECT_EQ(r.expected_hours, q.job.execution_time);
  }
}

TEST(ServeEngine, PersistentCostMatchesEq15) {
  const auto snapshot = empirical_snapshot();
  for (const Money bid : bid_grid(*snapshot)) {
    Request q = base_request(Kind::kExpectedCost);
    q.mode = BidMode::kPersistent;
    q.bid = bid;
    const Response r = execute_one(snapshot.get(), q);
    ASSERT_EQ(r.status, Status::kOk);
    const Money cost = bidding::persistent_expected_cost(snapshot->model(), bid, q.job);
    const Hours completion = bidding::persistent_completion_time(snapshot->model(), bid, q.job);
    EXPECT_EQ(r.expected_cost.usd(), cost.usd()) << "bid " << bid.usd();
    EXPECT_EQ(r.expected_hours.hours(), completion.hours()) << "bid " << bid.usd();
  }
}

TEST(ServeEngine, FeasibilityMatchesEq13And14) {
  const auto snapshot = empirical_snapshot();
  // A long recovery makes low bids genuinely infeasible (eq. 14 bites).
  const bidding::JobSpec harsh{Hours{2.0}, Hours{0.5}};
  bool saw_infeasible = false;
  bool saw_feasible = false;
  for (const Money bid : bid_grid(*snapshot)) {
    Request q = base_request(Kind::kPersistentFeasibility);
    q.job = harsh;
    q.bid = bid;
    const Response r = execute_one(snapshot.get(), q);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.feasible,
              bidding::persistent_feasible(snapshot->model(), bid, harsh.recovery_time));
    const Hours busy = bidding::persistent_busy_time(snapshot->model(), bid, harsh);
    EXPECT_EQ(r.expected_hours.hours(), busy.hours());
    (r.feasible ? saw_feasible : saw_infeasible) = true;
  }
  EXPECT_TRUE(saw_feasible);
  EXPECT_TRUE(saw_infeasible);
}

TEST(ServeEngine, OptimalBidMatchesPropositions4And5) {
  for (const auto& snapshot : {empirical_snapshot(), analytic_snapshot()}) {
    Request q = base_request(Kind::kOptimalBid);
    q.mode = BidMode::kOneTime;
    Response r = execute_one(snapshot.get(), q);
    ASSERT_EQ(r.status, Status::kOk);
    const auto one_time = bidding::one_time_bid(snapshot->model(), q.job);
    EXPECT_EQ(r.bid.usd(), one_time.bid.usd());
    EXPECT_EQ(r.expected_cost.usd(), one_time.expected_cost.usd());
    EXPECT_EQ(r.use_on_demand, one_time.use_on_demand);

    q.mode = BidMode::kPersistent;
    r = execute_one(snapshot.get(), q);
    ASSERT_EQ(r.status, Status::kOk);
    const auto persistent = bidding::persistent_bid(snapshot->model(), q.job);
    EXPECT_EQ(r.bid.usd(), persistent.bid.usd());
    EXPECT_EQ(r.expected_cost.usd(), persistent.expected_cost.usd());
    EXPECT_EQ(r.expected_hours.hours(), persistent.expected_completion.hours());
    EXPECT_EQ(r.acceptance, persistent.acceptance);
  }
}

TEST(ServeEngine, ProviderPriceMatchesEq3) {
  const auto snapshot = analytic_snapshot();
  for (const double demand : {0.5, 1.0, 4.0, 32.0, 500.0}) {
    Request q = base_request(Kind::kProviderPrice);
    q.demand = demand;
    const Response r = execute_one(snapshot.get(), q);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.price.usd(), snapshot->provider().optimal_price(demand).usd());
  }
}

Request portfolio_request(double epsilon, std::uint8_t levels) {
  Request q = base_request(Kind::kPortfolioBid);
  q.deadline = Hours{8.0};
  q.epsilon = epsilon;
  q.levels = levels;
  return q;
}

TEST(ServeEngine, PortfolioBidMatchesTheOptimizerBitForBit) {
  const auto snapshot = empirical_snapshot();
  for (const double epsilon : {0.5, 0.05}) {
    for (const std::uint8_t levels : {std::uint8_t{1}, std::uint8_t{4}, std::uint8_t{8}}) {
      const Request q = portfolio_request(epsilon, levels);
      const Response r = execute_one(snapshot.get(), q);
      ASSERT_EQ(r.status, Status::kOk);
      EXPECT_EQ(r.kind, Kind::kPortfolioBid);

      portfolio::PortfolioQuery query;
      query.job = q.job;
      query.deadline = q.deadline;
      query.epsilon = q.epsilon;
      query.levels = q.levels;
      query.mode = portfolio::DegenerateMode::kPersistent;
      const portfolio::PortfolioStrategy strategy{snapshot->model()};
      const portfolio::PortfolioDecision d = strategy.optimize(query);

      EXPECT_EQ(static_cast<int>(r.level_count), d.level_count);
      for (int k = 0; k < d.level_count; ++k) {
        EXPECT_EQ(r.levels[static_cast<std::size_t>(k)].bid.usd(),
                  d.levels[static_cast<std::size_t>(k)].bid.usd());
        EXPECT_EQ(r.levels[static_cast<std::size_t>(k)].share,
                  d.levels[static_cast<std::size_t>(k)].share);
      }
      EXPECT_EQ(r.on_demand_share, d.on_demand_share);
      EXPECT_EQ(r.violation, d.violation);
      EXPECT_EQ(r.expected_cost.usd(), d.expected_cost.usd());
      EXPECT_EQ(r.feasible, d.feasible);
      EXPECT_EQ(r.use_on_demand, d.use_on_demand);
      EXPECT_EQ(r.price.usd(), d.backstop.usd());
      EXPECT_EQ(r.expected_hours.hours(), q.deadline.hours());
      // Shares must cover the whole job.
      double share = r.on_demand_share;
      for (int k = 0; k < r.level_count; ++k)
        share += r.levels[static_cast<std::size_t>(k)].share;
      EXPECT_NEAR(share, 1.0, 1e-9);
    }
  }
}

TEST(ServeEngine, PortfolioDegenerationMatchesOptimalBid) {
  // K = 1 with no violation budget IS the Prop. 4/5 problem: the portfolio
  // answer must carry the same expected cost as kOptimalBid for both modes.
  const auto snapshot = empirical_snapshot();
  for (const BidMode mode : {BidMode::kOneTime, BidMode::kPersistent}) {
    Request q = portfolio_request(/*epsilon=*/1.0, /*levels=*/1);
    q.mode = mode;
    const Response portfolio = execute_one(snapshot.get(), q);
    ASSERT_EQ(portfolio.status, Status::kOk);

    Request single = base_request(Kind::kOptimalBid);
    single.mode = mode;
    const Response optimal = execute_one(snapshot.get(), single);
    ASSERT_EQ(optimal.status, Status::kOk);
    EXPECT_EQ(portfolio.expected_cost.usd(), optimal.expected_cost.usd());
    if (!optimal.use_on_demand) {
      ASSERT_EQ(portfolio.level_count, 1);
      EXPECT_EQ(portfolio.levels[0].bid.usd(), optimal.bid.usd());
    }
  }
}

TEST(ServeEngine, PortfolioEpsilonZeroFallsBackToOnDemand) {
  metrics::set_enabled(true);
  auto& fallback = metrics::Registry::global().counter("serve.portfolio.on_demand_fallback");
  const std::uint64_t before = fallback.value();
  const auto snapshot = empirical_snapshot();
  const Response r = execute_one(snapshot.get(), portfolio_request(/*epsilon=*/0.0, 4));
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(r.use_on_demand);
  EXPECT_EQ(r.on_demand_share, 1.0);
  EXPECT_EQ(r.level_count, 0);
  EXPECT_EQ(r.violation, 0.0);
  EXPECT_EQ(r.bid.usd(), snapshot->model().backstop().usd());
  EXPECT_EQ(r.acceptance, 1.0);
  EXPECT_EQ(fallback.value(), before + 1);
}

TEST(ServeEngine, MalformedPortfolioRequestsAreInvalidNotThrown) {
  const auto snapshot = empirical_snapshot();
  const auto expect_invalid = [&](Request q) {
    Response r;
    ASSERT_NO_THROW(r = execute_one(snapshot.get(), q));
    EXPECT_EQ(r.status, Status::kInvalid);
    EXPECT_EQ(r.kind, Kind::kPortfolioBid);
  };

  Request q = portfolio_request(0.05, 4);
  q.deadline = Hours{1.0};  // shorter than the 2h execution time
  expect_invalid(q);

  q = portfolio_request(0.05, 0);  // K below range
  expect_invalid(q);
  q = portfolio_request(0.05, static_cast<std::uint8_t>(kMaxPortfolioLevels + 1));
  expect_invalid(q);

  q = portfolio_request(kNaN, 4);
  expect_invalid(q);
  q = portfolio_request(-0.1, 4);
  expect_invalid(q);

  q = portfolio_request(0.05, 4);
  q.job.execution_time = Hours{0.0};
  expect_invalid(q);

  q = portfolio_request(0.05, 4);
  q.deadline = Hours{kNaN};
  expect_invalid(q);

  // Horizon cap: a deadline spanning more slots than kMaxHorizonSlots is
  // rejected with the snapshot's slot length in hand.
  q = portfolio_request(0.05, 4);
  q.deadline = Hours{(static_cast<double>(portfolio::kMaxHorizonSlots) + 2.0) *
                     snapshot->model().slot_length().hours()};
  expect_invalid(q);

  // Degenerate K=1 persistent inherits Prop. 5's t_s > t_r precondition.
  q = portfolio_request(1.0, 1);
  q.mode = BidMode::kPersistent;
  q.job = bidding::JobSpec{Hours{2.0}, Hours{2.0}};
  q.deadline = Hours{8.0};
  expect_invalid(q);
}

TEST(ServeEngine, MalformedRequestsAreInvalidNotThrown) {
  const auto snapshot = empirical_snapshot();
  const auto expect_invalid = [&](Request q) {
    Response r;
    ASSERT_NO_THROW(r = execute_one(snapshot.get(), q));
    EXPECT_EQ(r.status, Status::kInvalid);
  };

  Request q = base_request(Kind::kRunLength);
  q.bid = Money{kNaN};
  expect_invalid(q);

  q = base_request(Kind::kExpectedCost);
  q.bid = Money{0.05};
  q.job.execution_time = Hours{-1.0};
  expect_invalid(q);

  q = base_request(Kind::kExpectedCost);
  q.mode = BidMode::kPersistent;
  q.bid = Money{0.05};
  q.job = bidding::JobSpec{Hours{0.001}, Hours{1.0}};  // t_s < t_r
  expect_invalid(q);

  q = base_request(Kind::kPersistentFeasibility);
  q.bid = Money{0.05};
  q.job.recovery_time = Hours{-0.1};
  expect_invalid(q);

  q = base_request(Kind::kOptimalBid);
  q.mode = BidMode::kOneTime;
  q.job.execution_time = Hours{0.0};
  expect_invalid(q);

  q = base_request(Kind::kOptimalBid);
  q.mode = BidMode::kPersistent;
  q.job = bidding::JobSpec{Hours{1.0}, Hours{1.0}};  // t_s == t_r
  expect_invalid(q);

  q = base_request(Kind::kProviderPrice);
  q.demand = 0.0;
  expect_invalid(q);
  q.demand = -3.0;
  expect_invalid(q);
}

/// A mixed same-key batch covering every kind, valid and invalid requests.
std::vector<Request> mixed_batch(const ModelSnapshot& snapshot) {
  std::vector<Request> batch;
  for (const Money bid : bid_grid(snapshot)) {
    Request q = base_request(Kind::kRunLength);
    q.bid = bid;
    batch.push_back(q);

    q = base_request(Kind::kExpectedCost);
    q.mode = BidMode::kOneTime;
    q.bid = bid;
    batch.push_back(q);

    q.mode = BidMode::kPersistent;
    batch.push_back(q);

    q = base_request(Kind::kPersistentFeasibility);
    q.bid = bid;
    batch.push_back(q);
  }
  Request q = base_request(Kind::kOptimalBid);
  batch.push_back(q);
  q.mode = BidMode::kOneTime;
  batch.push_back(q);
  q = base_request(Kind::kProviderPrice);
  q.demand = 12.0;
  batch.push_back(q);
  q = base_request(Kind::kRunLength);
  q.bid = Money{kNaN};
  batch.push_back(q);  // invalid inside a batch
  batch.push_back(portfolio_request(0.05, 4));
  batch.push_back(portfolio_request(1.0, 1));  // degenerate path
  q = portfolio_request(0.05, 0);
  batch.push_back(q);  // invalid portfolio inside a batch
  return batch;
}

/// mixed_batch after at least 4,096 closed-form requests over a fine bid
/// grid across (and beyond) the law's support: a group as large as any the
/// engine has been asked to answer.
std::vector<Request> large_mixed_batch(const ModelSnapshot& snapshot) {
  const double lo = snapshot.model().support_lo().usd() * 0.5;
  const double hi = snapshot.model().support_hi().usd() * 1.5;
  std::vector<Request> batch;
  for (int i = 0; i < 1024; ++i) {
    const Money bid{lo + (hi - lo) * static_cast<double>(i) / 1023.0};
    Request q = base_request(Kind::kRunLength);
    q.bid = bid;
    batch.push_back(q);

    q = base_request(Kind::kPersistentFeasibility);
    q.bid = bid;
    batch.push_back(q);

    for (const BidMode mode : {BidMode::kOneTime, BidMode::kPersistent}) {
      q = base_request(Kind::kExpectedCost);
      q.mode = mode;
      q.bid = bid;
      batch.push_back(q);
    }
  }
  const std::vector<Request> mixed = mixed_batch(snapshot);
  batch.insert(batch.end(), mixed.begin(), mixed.end());
  return batch;
}

TEST(ServeEngine, BatchIsBitIdenticalToScalar) {
  // Micro-batched execution returns bit-identical payloads for every kind,
  // valid and invalid, in a group of over 4,096 requests, on both the
  // empirical and the analytic law.
  for (const auto& snapshot : {empirical_snapshot(), analytic_snapshot()}) {
    ASSERT_TRUE(std::isfinite(snapshot->model().support_hi().usd()));
    const std::vector<Request> batch = large_mixed_batch(*snapshot);
    ASSERT_GE(batch.size(), 4096u);
    std::vector<const Request*> pointers;
    pointers.reserve(batch.size());
    for (const Request& q : batch) pointers.push_back(&q);

    std::vector<Response> batched(batch.size());
    execute_batch(snapshot.get(), pointers, batched);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Response scalar = execute_one(snapshot.get(), batch[i]);
      EXPECT_EQ(batched[i], scalar) << "request " << i << " (" << kind_name(batch[i].kind)
                                    << ") diverged between batch and scalar execution";
    }
  }
}

TEST(ServeEngine, BatchAgainstNullSnapshotIsAllNotFound) {
  const std::vector<Request> batch = mixed_batch(*empirical_snapshot());
  std::vector<const Request*> pointers;
  for (const Request& q : batch) pointers.push_back(&q);
  std::vector<Response> responses(batch.size());
  execute_batch(nullptr, pointers, responses);
  for (const Response& r : responses) EXPECT_EQ(r.status, Status::kNotFound);
}

}  // namespace
}  // namespace spotbid::serve
