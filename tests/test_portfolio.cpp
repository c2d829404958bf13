// Tests for the portfolio layer (docs/PORTFOLIO.md): the shared binomial
// miss tail against direct computation, fast-vs-oracle bit-identity on
// empirical laws (the DESIGN.md §5 standing-oracle rule), the optimizer's
// degeneration contract (K = 1, epsilon >= 1 reproduces Prop. 4/5 bit for
// bit), budget feasibility, the all-on-demand boundary cases, a Monte
// Carlo cross-check of the claimed violation probability, and the
// ContractViolation taxonomy on malformed queries.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "spotbid/bidding/strategies.hpp"
#include "spotbid/core/contracts.hpp"
#include "spotbid/dist/empirical.hpp"
#include "spotbid/dist/lognormal.hpp"
#include "spotbid/numeric/rng.hpp"
#include "spotbid/portfolio/deadline.hpp"
#include "spotbid/portfolio/strategy.hpp"

namespace spotbid::portfolio {
namespace {

/// Empirical spot law shared by the identity tests: log-normal samples (the
/// paper's fig. 3 shape), on-demand well above the spot mass. Small enough
/// that the O(K) oracle stays fast, large enough to exercise interpolation.
bidding::SpotPriceModel empirical_model(int knots = 512) {
  numeric::Rng rng{7};
  const dist::LogNormal spot{-2.6, 0.45};
  std::vector<double> samples(static_cast<std::size_t>(knots));
  for (double& s : samples) s = spot.sample(rng);
  return bidding::SpotPriceModel{std::make_shared<dist::Empirical>(samples), Money{0.25},
                                 Hours{1.0}};
}

bidding::SpotPriceModel analytic_model() {
  return bidding::SpotPriceModel{std::make_shared<dist::LogNormal>(-2.6, 0.45), Money{0.25},
                                 Hours{1.0}};
}

TEST(BinomialMissTail, EdgeCases) {
  EXPECT_EQ(binomial_miss_tail(10, 0.5, 0), 0.0);   // nothing needed
  EXPECT_EQ(binomial_miss_tail(10, 0.5, -3), 0.0);  // ditto
  EXPECT_EQ(binomial_miss_tail(10, 0.5, 11), 1.0);  // more than exist
  EXPECT_EQ(binomial_miss_tail(0, 0.5, 1), 1.0);    // no slots at all
  EXPECT_EQ(binomial_miss_tail(10, 0.0, 1), 1.0);   // can never win
  EXPECT_EQ(binomial_miss_tail(10, 1.0, 10), 0.0);  // always wins
}

TEST(BinomialMissTail, MatchesDirectComputation) {
  // P(Bin(5, 0.3) < 2) = q^5 + 5 p q^4.
  const double p = 0.3;
  const double q = 1.0 - p;
  const double direct = std::pow(q, 5) + 5.0 * p * std::pow(q, 4);
  EXPECT_NEAR(binomial_miss_tail(5, p, 2), direct, 1e-15);
  // P(X < n) + P(X = n) must cover the whole distribution.
  EXPECT_NEAR(binomial_miss_tail(20, 0.37, 20) + std::pow(0.37, 20), 1.0, 1e-12);
  // And P(Bin(n, p) < n + 1) is 1 outright (m > n edge).
  EXPECT_EQ(binomial_miss_tail(20, 0.37, 21), 1.0);
}

TEST(BinomialMissTail, MonotoneInAcceptanceAndNeed) {
  double prev = 1.0;
  for (double p = 0.05; p < 1.0; p += 0.05) {
    const double tail = binomial_miss_tail(48, p, 24);
    EXPECT_LE(tail, prev + 1e-15) << "tail must not increase in p, p=" << p;
    prev = tail;
  }
  for (int m = 1; m < 48; ++m) {
    EXPECT_LE(binomial_miss_tail(48, 0.5, m), binomial_miss_tail(48, 0.5, m + 1) + 1e-15);
  }
}

TEST(BinomialMissTail, SurvivesExtremeUnderflow) {
  // (1-p)^n underflows a direct product for large n; the log-space
  // assembly must still return a sane probability.
  const double tail = binomial_miss_tail(4096, 0.9, 3500);
  EXPECT_GE(tail, 0.0);
  EXPECT_LE(tail, 1.0);
}

TEST(DeadlineCalculator, HorizonAndRequiredSlots) {
  const auto model = empirical_model();
  const DeadlineCalculator calc{model, Hours{6.5}};
  EXPECT_EQ(calc.horizon_slots(), 6);  // floor(6.5 / 1.0)
  // A share landing exactly on a slot boundary must not demand a phantom
  // slot: 0.5 * 4h / 1h = 2.0 -> 2 slots, not 3.
  EXPECT_EQ(calc.required_slots(0.5, Hours{4.0}), 2);
  EXPECT_EQ(calc.required_slots(0.5, Hours{4.2}), 3);
  EXPECT_EQ(calc.required_slots(0.0, Hours{4.0}), 0);
}

TEST(DeadlineCalculator, RejectsDegenerateDeadlines) {
  const auto model = empirical_model();
  EXPECT_THROW((DeadlineCalculator{model, Hours{0.0}}), contracts::ContractViolation);
  EXPECT_THROW((DeadlineCalculator{model, Hours{0.5}}), contracts::ContractViolation);
  EXPECT_THROW((DeadlineCalculator{model, Hours{static_cast<double>(kMaxHorizonSlots) + 2.0}}),
               contracts::ContractViolation);
}

TEST(DeadlineCalculator, FastAndOracleAgreeBitForBit) {
  // The standing-oracle rule: the naive O(K) scans reproduce the Empirical
  // constructor's accumulation expressions verbatim, so the fast prefix
  // arrays must match them EXACTLY — EXPECT_EQ on doubles, no tolerance.
  const auto model = empirical_model(2048);
  const DeadlineCalculator fast{model, Hours{24.0}, QueryPath::kFast};
  const DeadlineCalculator oracle{model, Hours{24.0}, QueryPath::kOracle};
  numeric::Rng rng{21};
  std::vector<Level> levels;
  for (int i = 0; i < 200; ++i) {
    const Money bid = model.quantile(rng.uniform(0.02, 0.98));
    EXPECT_EQ(fast.acceptance(bid), oracle.acceptance(bid)) << bid.usd();
    EXPECT_EQ(fast.partial_expectation(bid), oracle.partial_expectation(bid)) << bid.usd();
    levels.push_back(Level{bid, 0.8 / 200.0});
  }
  const Hours execution{8.0};
  EXPECT_EQ(fast.violation_probability(levels, execution),
            oracle.violation_probability(levels, execution));
  EXPECT_EQ(fast.expected_spot_cost(levels, execution).usd(),
            oracle.expected_spot_cost(levels, execution).usd());
}

TEST(DeadlineCalculator, OracleFallsBackOnAnalyticLaws) {
  // Analytic laws have no knot arrays to scan; the oracle path answers
  // through the model itself, so both paths are identical by construction.
  const auto model = analytic_model();
  const DeadlineCalculator fast{model, Hours{12.0}, QueryPath::kFast};
  const DeadlineCalculator oracle{model, Hours{12.0}, QueryPath::kOracle};
  const Money bid{0.09};
  EXPECT_EQ(fast.acceptance(bid), oracle.acceptance(bid));
  EXPECT_EQ(fast.acceptance(bid), model.acceptance(bid));
  EXPECT_EQ(fast.partial_expectation(bid), model.partial_expectation(bid));
}

TEST(DeadlineCalculator, ViolationMonotoneInBid) {
  const auto model = empirical_model();
  const DeadlineCalculator calc{model, Hours{12.0}};
  const Hours execution{8.0};
  double prev = 1.1;
  for (double q = 0.1; q < 1.0; q += 0.1) {
    const Level level{model.quantile(q), 1.0};
    const double v = calc.violation_probability(std::span{&level, 1}, execution);
    EXPECT_LE(v, prev + 1e-15) << "violation must not increase with the bid, q=" << q;
    prev = v;
  }
}

TEST(DeadlineCalculator, ImpossibleLevelCostsInfinity) {
  const auto model = empirical_model();
  const DeadlineCalculator calc{model, Hours{12.0}};
  // A bid below the support can never win a slot; a tranche that needs
  // slots at that bid has infinite expected spot cost and sure violation.
  const Level hopeless{Money{model.support_lo().usd() * 0.5}, 1.0};
  EXPECT_EQ(calc.acceptance(hopeless.bid), 0.0);
  EXPECT_TRUE(std::isinf(calc.expected_spot_cost(std::span{&hopeless, 1}, Hours{8.0}).usd()));
  EXPECT_EQ(calc.violation_probability(std::span{&hopeless, 1}, Hours{8.0}), 1.0);
}

TEST(PortfolioStrategy, DegenerateOneTimeMatchesProposition4BitForBit) {
  const auto model = empirical_model();
  const PortfolioStrategy strategy{model};
  const PortfolioQuery query{bidding::JobSpec{Hours{2.0}, Hours{0.5}}, Hours{8.0},
                             /*epsilon=*/1.0, /*levels=*/1, DegenerateMode::kOneTime};
  const PortfolioDecision decision = strategy.optimize(query);
  const bidding::BidDecision single = bidding::one_time_bid(model, query.job);
  EXPECT_TRUE(decision.degenerate);
  EXPECT_EQ(decision.expected_cost.usd(), single.expected_cost.usd());
  if (!single.use_on_demand) {
    ASSERT_EQ(decision.level_count, 1);
    EXPECT_EQ(decision.levels[0].bid.usd(), single.bid.usd());
    EXPECT_EQ(decision.levels[0].share, 1.0);
  }
}

TEST(PortfolioStrategy, DegeneratePersistentMatchesProposition5BitForBit) {
  const auto model = empirical_model();
  const PortfolioStrategy strategy{model};
  const PortfolioQuery query{bidding::JobSpec{Hours{2.0}, Hours{0.5}}, Hours{8.0},
                             /*epsilon=*/1.5, /*levels=*/1, DegenerateMode::kPersistent};
  const PortfolioDecision decision = strategy.optimize(query);
  const bidding::BidDecision single = bidding::persistent_bid(model, query.job);
  EXPECT_TRUE(decision.degenerate);
  EXPECT_EQ(decision.expected_cost.usd(), single.expected_cost.usd());
  if (!single.use_on_demand) {
    ASSERT_EQ(decision.level_count, 1);
    EXPECT_EQ(decision.levels[0].bid.usd(), single.bid.usd());
  }
}

TEST(PortfolioStrategy, EpsilonZeroIsAllOnDemand) {
  const auto model = empirical_model();
  const PortfolioStrategy strategy{model};
  const PortfolioQuery query{bidding::JobSpec{Hours{4.0}, Hours{0.5}}, Hours{12.0},
                             /*epsilon=*/0.0, /*levels=*/4};
  const PortfolioDecision decision = strategy.optimize(query);
  EXPECT_TRUE(decision.use_on_demand);
  EXPECT_EQ(decision.on_demand_share, 1.0);
  EXPECT_EQ(decision.level_count, 0);
  EXPECT_EQ(decision.violation, 0.0);
  EXPECT_TRUE(decision.feasible);
  EXPECT_EQ(decision.expected_cost.usd(), model.backstop().usd() * 4.0);
}

TEST(PortfolioStrategy, SubSlotDeadlineIsAllOnDemand) {
  // With epsilon > 0 the optimizer would love spot, but a deadline shorter
  // than one slot gives the tranches nothing to win.
  const auto model = empirical_model();
  const PortfolioStrategy strategy{model};
  const PortfolioQuery query{bidding::JobSpec{Hours{0.4}, Hours{0.1}}, Hours{0.5},
                             /*epsilon=*/0.2, /*levels=*/2};
  const PortfolioDecision decision = strategy.optimize(query);
  EXPECT_TRUE(decision.use_on_demand);
  EXPECT_EQ(decision.on_demand_share, 1.0);
  EXPECT_EQ(decision.violation, 0.0);
}

TEST(PortfolioStrategy, MeetsItsBudgetAndNeverPaysAboveBackstop) {
  const auto model = empirical_model(2048);
  const PortfolioStrategy strategy{model};
  const double all_on_demand = model.backstop().usd() * 8.0;
  for (const double epsilon : {0.2, 0.05}) {
    for (const int levels : {1, 4, 8}) {
      const PortfolioQuery query{bidding::JobSpec{Hours{8.0}, Hours{0.5}}, Hours{24.0},
                                 epsilon, levels};
      const PortfolioDecision decision = strategy.optimize(query);
      EXPECT_TRUE(decision.feasible) << "eps=" << epsilon << " K=" << levels;
      EXPECT_LE(decision.violation, epsilon + 1e-9);
      EXPECT_GT(decision.expected_cost.usd(), 0.0);
      EXPECT_LE(decision.expected_cost.usd(), all_on_demand + 1e-12);
      // Shares account for the whole job.
      double share = decision.on_demand_share;
      for (int k = 0; k < decision.level_count; ++k) {
        share += decision.levels[static_cast<std::size_t>(k)].share;
      }
      EXPECT_NEAR(share, 1.0, 1e-9);
    }
  }
}

TEST(PortfolioStrategy, FastAndOracleDecisionsMatchBitForBit) {
  const auto model = empirical_model(2048);
  const PortfolioStrategy fast{model, QueryPath::kFast};
  const PortfolioStrategy oracle{model, QueryPath::kOracle};
  for (const int levels : {1, 2, 4, 8, 16}) {
    const PortfolioQuery query{bidding::JobSpec{Hours{8.0}, Hours{0.5}}, Hours{24.0},
                               /*epsilon=*/0.05, levels};
    EXPECT_EQ(fast.optimize(query), oracle.optimize(query)) << "K=" << levels;
  }
}

TEST(PortfolioStrategy, RejectsMalformedQueries) {
  const auto model = empirical_model();
  const PortfolioStrategy strategy{model};
  PortfolioQuery query{bidding::JobSpec{Hours{4.0}, Hours{0.5}}, Hours{12.0}, 0.1, 4};
  {
    PortfolioQuery bad = query;
    bad.levels = 0;
    EXPECT_THROW((void)strategy.optimize(bad), contracts::ContractViolation);
    bad.levels = kMaxLevels + 1;
    EXPECT_THROW((void)strategy.optimize(bad), contracts::ContractViolation);
  }
  {
    PortfolioQuery bad = query;
    bad.deadline = Hours{2.0};  // shorter than the execution time
    EXPECT_THROW((void)strategy.optimize(bad), contracts::ContractViolation);
  }
  {
    PortfolioQuery bad = query;
    bad.epsilon = -0.1;
    EXPECT_THROW((void)strategy.optimize(bad), contracts::ContractViolation);
  }
  {
    PortfolioQuery bad = query;
    bad.job.execution_time = Hours{0.0};
    EXPECT_THROW((void)strategy.optimize(bad), contracts::ContractViolation);
  }
}

/// Monte Carlo cross-check: simulate the model's own independence
/// assumptions — per-tranche iid slot prices, a win when the sampled price
/// is at or below the bid — and compare the observed miss frequency with
/// the claimed violation probability, on an empirical and an analytic law.
TEST(PortfolioStrategy, MonteCarloConfirmsClaimedViolation) {
  const std::pair<const char*, bidding::SpotPriceModel> laws[] = {
      {"empirical", empirical_model(2048)}, {"log-normal", analytic_model()}};
  const Hours execution{8.0};
  for (const auto& [law, model] : laws) {
    const PortfolioStrategy strategy{model};
    const DeadlineCalculator calc{model, Hours{24.0}};
    const int horizon = calc.horizon_slots();
    for (const double epsilon : {0.2, 0.05}) {
      for (const int levels : {1, 4, 8}) {
        const PortfolioQuery query{bidding::JobSpec{execution, Hours{0.5}}, Hours{24.0},
                                   epsilon, levels};
        const PortfolioDecision decision = strategy.optimize(query);
        ASSERT_GT(decision.level_count, 0);

        const int rounds = 4000;
        numeric::Rng rng{20150817};
        int misses = 0;
        for (int r = 0; r < rounds; ++r) {
          bool missed = false;
          for (int k = 0; k < decision.level_count; ++k) {
            const Level level = decision.levels[static_cast<std::size_t>(k)];
            const int need = calc.required_slots(level.share, execution);
            if (need <= 0) continue;
            int wins = 0;
            for (int s = 0; s < horizon; ++s) {
              if (model.quantile(rng.uniform()).usd() <= level.bid.usd()) ++wins;
            }
            if (wins < need) missed = true;
          }
          if (missed) ++misses;
        }
        const double simulated = static_cast<double>(misses) / rounds;
        const double sigma =
            std::sqrt(std::max(decision.violation * (1.0 - decision.violation), 1e-6) / rounds);
        EXPECT_NEAR(simulated, decision.violation, 3.0 * sigma + 0.01)
            << law << " law, eps " << epsilon << ", K " << levels;
      }
    }
  }
}

}  // namespace
}  // namespace spotbid::portfolio
