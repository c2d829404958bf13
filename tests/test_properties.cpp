// Cross-cutting property sweeps: the paper's structural claims checked over
// the whole (instance type x job) grid, plus differential oracles for the
// market simulator and randomized DAG workflows.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>

#include "spotbid/spotbid.hpp"

namespace spotbid {
namespace {

constexpr double kTk = 1.0 / 12.0;

struct GridCase {
  std::string type;
  double recovery_s;
};

// Printed into the test names (`# GetParam() = r3.xlarge t_r=10`); without
// it gtest dumps the object's raw bytes, pointers included, so the names
// would change from run to run.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << c.type << " t_r=" << c.recovery_s;
}

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  std::string name = info.param.type + "_tr" + std::to_string(static_cast<int>(info.param.recovery_s));
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

class StrategyGrid : public ::testing::TestWithParam<GridCase> {};

// Proposition-5 optimality on every grid cell: no bid on a dense grid beats
// the recommended one.
TEST_P(StrategyGrid, PersistentBidIsOptimal) {
  const auto& type = ec2::require_type(GetParam().type);
  const auto model = bidding::SpotPriceModel::from_type(type);
  const bidding::JobSpec job{Hours{1.0}, Hours::from_seconds(GetParam().recovery_s)};
  const auto d = bidding::persistent_bid(model, job);
  ASSERT_FALSE(d.use_on_demand);
  for (int i = 1; i < 100; ++i) {
    const double p =
        model.support_lo().usd() + (model.support_hi().usd() - model.support_lo().usd()) * i / 100.0;
    EXPECT_LE(d.expected_cost.usd(),
              bidding::persistent_expected_cost(model, Money{p}, job).usd() + 1e-9)
        << "p=" << p;
  }
}

// The Figure-6 ordering holds on every cell: persistent cheaper and slower
// than one-time, both far below on-demand.
TEST_P(StrategyGrid, PaperOrderingHolds) {
  const auto& type = ec2::require_type(GetParam().type);
  const auto model = bidding::SpotPriceModel::from_type(type);
  const bidding::JobSpec job{Hours{1.0}, Hours::from_seconds(GetParam().recovery_s)};
  const auto one_time = bidding::one_time_bid(model, job);
  const auto persistent = bidding::persistent_bid(model, job);

  // Bid ordering is the paper's empirical observation on the Table-3
  // types; laws with extremely compressed tails (m1.xlarge's small beta)
  // can invert it, so scope the assertion to the experiment types.
  const auto experiment = ec2::experiment_types();
  const bool is_experiment_type =
      std::any_of(experiment.begin(), experiment.end(),
                  [&](const ec2::InstanceType& t) { return t.name == type.name; });
  if (is_experiment_type) {
    EXPECT_LT(persistent.bid.usd(), one_time.bid.usd());
  }
  EXPECT_LE(persistent.expected_cost.usd(), one_time.expected_cost.usd() + 1e-12);
  EXPECT_GE(persistent.expected_completion.hours(), 1.0);
  EXPECT_LT(one_time.expected_cost.usd(), 0.25 * type.on_demand.usd());
}

// Sticky-aware bids never exceed the i.i.d. bids (rho = market calibration).
TEST_P(StrategyGrid, StickyBidNeverAboveIidBid) {
  const auto& type = ec2::require_type(GetParam().type);
  const auto model = bidding::SpotPriceModel::from_type(type);
  const bidding::JobSpec job{Hours{1.0}, Hours::from_seconds(GetParam().recovery_s)};
  const auto iid = bidding::persistent_bid(model, job);
  const auto sticky = bidding::sticky_persistent_bid(model, job, type.market.persistence);
  EXPECT_LE(sticky.bid.usd(), iid.bid.usd() + 1e-6);
}

// eq.-9 monotonicity on every type: the expected payment rises with the bid.
TEST_P(StrategyGrid, ExpectedPaymentMonotone) {
  const auto& type = ec2::require_type(GetParam().type);
  const auto model = bidding::SpotPriceModel::from_type(type);
  double prev = 0.0;
  for (double q : {0.05, 0.3, 0.6, 0.85, 0.95, 0.999}) {
    const double payment = model.expected_payment(model.quantile(q)).usd();
    EXPECT_GE(payment, prev - 1e-12) << "q=" << q;
    prev = payment;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, StrategyGrid,
    ::testing::Values(GridCase{"r3.xlarge", 10.0}, GridCase{"r3.xlarge", 60.0},
                      GridCase{"r3.2xlarge", 30.0}, GridCase{"r3.4xlarge", 30.0},
                      GridCase{"c3.4xlarge", 10.0}, GridCase{"c3.4xlarge", 120.0},
                      GridCase{"c3.8xlarge", 30.0}, GridCase{"m3.xlarge", 30.0},
                      GridCase{"m3.2xlarge", 30.0}, GridCase{"m1.xlarge", 30.0}),
    case_name);

// ---- market differential oracle ----

// Replay a random price path against an independent straight-line oracle:
// the market's billing, state machine and counters must match a direct
// recomputation from the raw prices.
class MarketOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarketOracle, BillingMatchesDirectRecomputation) {
  numeric::Rng rng{GetParam()};
  std::vector<double> prices;
  for (int i = 0; i < 300; ++i)
    prices.push_back(rng.bernoulli(0.7) ? 0.03 : rng.uniform(0.05, 0.2));
  const double bid = rng.uniform(0.03, 0.15);

  trace::PriceTrace t{"oracle", 0, Hours{kTk}, prices};
  market::SpotMarket market{std::make_unique<market::TracePriceSource>(t, false)};
  const auto id = market.submit({Money{bid}, market::BidKind::kPersistent});
  for (int i = 0; i < 300; ++i) market.advance();

  // Oracle: walk the prices directly.
  double cost = 0.0;
  long running = 0;
  long pending = 0;
  int launches = 0;
  int interruptions = 0;
  bool was_running = false;
  for (double p : prices) {
    if (bid >= p) {
      if (!was_running) ++launches;
      cost += p * kTk;
      ++running;
      was_running = true;
    } else {
      if (was_running) ++interruptions;
      ++pending;
      was_running = false;
    }
  }

  const auto& status = market.status(id);
  EXPECT_NEAR(status.accrued_cost.usd(), cost, 1e-9);
  EXPECT_EQ(status.running_slots, running);
  EXPECT_EQ(status.pending_slots, pending);
  EXPECT_EQ(status.launches, launches);
  EXPECT_EQ(status.interruptions, interruptions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarketOracle, ::testing::Range<std::uint64_t>(1, 21));

// ---- randomized workflow DAGs ----

class RandomDag : public ::testing::TestWithParam<std::uint64_t> {};

// Random layered DAGs always validate, complete on a calm market, respect
// dependency ordering, and bill exactly total-work x price.
TEST_P(RandomDag, CompletesAndRespectsOrdering) {
  numeric::Rng rng{GetParam()};
  workflow::Workflow w;
  const int layers = 2 + static_cast<int>(rng.uniform_index(3));
  std::vector<std::vector<std::size_t>> layer_tasks(static_cast<std::size_t>(layers));
  double total_work_slots = 0.0;
  for (int layer = 0; layer < layers; ++layer) {
    const int width = 1 + static_cast<int>(rng.uniform_index(3));
    for (int i = 0; i < width; ++i) {
      workflow::TaskSpec task;
      // Appends only: gcc 12 at -O3 reports a false -Wrestrict on
      // `"L" + std::to_string(...)`.
      task.name = "L";
      task.name += std::to_string(layer) + '#';
      task.name += std::to_string(i);
      const double slots = 1.0 + static_cast<double>(rng.uniform_index(4));
      total_work_slots += slots;
      task.execution_time = Hours{slots * kTk};
      task.recovery_time = Hours{0.0};
      task.bid = Money{0.10};
      if (layer > 0) {
        // Depend on a random non-empty subset of the previous layer.
        for (const auto dep : layer_tasks[static_cast<std::size_t>(layer - 1)]) {
          if (rng.bernoulli(0.6)) task.depends_on.push_back(dep);
        }
        if (task.depends_on.empty())
          task.depends_on.push_back(layer_tasks[static_cast<std::size_t>(layer - 1)].front());
      }
      layer_tasks[static_cast<std::size_t>(layer)].push_back(w.tasks.size());
      w.tasks.push_back(std::move(task));
    }
  }

  EXPECT_NO_THROW((void)workflow::topological_order(w));

  std::vector<double> prices(3000, 0.04);
  trace::PriceTrace t{"calm", 0, Hours{kTk}, std::move(prices)};
  market::SpotMarket market{std::make_unique<market::TracePriceSource>(std::move(t), true)};
  const auto outcome = workflow::run_workflow(market, w);
  ASSERT_TRUE(outcome.completed);

  for (std::size_t i = 0; i < w.tasks.size(); ++i) {
    for (const auto dep : w.tasks[i].depends_on) {
      EXPECT_GE(outcome.tasks[i].ready_slot, outcome.tasks[dep].finish_slot)
          << w.tasks[i].name;
    }
  }
  EXPECT_NEAR(outcome.total_cost.usd(), total_work_slots * 0.04 * kTk, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDag, ::testing::Range<std::uint64_t>(100, 115));

// ---- CSV round-trip fuzz ----

class CsvRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvRoundTrip, PreservesEveryPrice) {
  numeric::Rng rng{GetParam()};
  std::vector<double> prices;
  const int n = 1 + static_cast<int>(rng.uniform_index(200));
  for (int i = 0; i < n; ++i) prices.push_back(rng.uniform(0.0, 2.0));
  const trace::PriceTrace t{"fuzz", static_cast<std::int64_t>(rng.uniform_index(1u << 30)),
                            Hours{kTk}, prices};
  std::stringstream ss;
  t.write_csv(ss);
  const auto back = trace::PriceTrace::read_csv(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_DOUBLE_EQ(back.prices()[i], t.prices()[i]);
  EXPECT_EQ(back.start_epoch_s(), t.start_epoch_s());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip, ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace spotbid
