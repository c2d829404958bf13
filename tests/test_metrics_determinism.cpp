// Regression test for the metrics determinism contract: the deterministic
// subset of the registry (no timers, no gauges, no "parallel." telemetry)
// must be a pure function of the simulated work — identical whether a
// Monte-Carlo sweep runs on 1 thread or 8, and identical across repeated
// runs. Also pins down histogram bucket-boundary behavior under concurrent
// observation, where a value exactly on a bound must land in the same
// bucket on every thread.

#include "spotbid/core/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "spotbid/client/experiment.hpp"
#include "spotbid/client/job_runner.hpp"
#include "spotbid/client/monte_carlo.hpp"
#include "spotbid/core/parallel.hpp"
#include "spotbid/market/price_source.hpp"
#include "spotbid/market/spot_market.hpp"
#include "spotbid/provider/calibration.hpp"

namespace spotbid::metrics {
namespace {

constexpr int kReplicas = 1000;

/// Reset the global registry, run a fig5-style one-time-bid sweep
/// (Proposition-4 bid on r3.xlarge, 24 h job, independent market seeds) on
/// `threads` threads, and return the deterministic subset of the resulting
/// registry.
Snapshot sweep_snapshot(int threads) {
  Registry::global().reset();

  const auto& type = ec2::require_type("r3.xlarge");
  const bidding::JobSpec job{Hours{24.0}, Hours{0.0}};
  const auto model = client::history_model(type, {});
  const auto decision = bidding::one_time_bid(model, job);
  auto prices = provider::calibrated_price_distribution(type);

  client::MonteCarloConfig mc;
  mc.replicas = kReplicas;
  mc.seed = 55;
  mc.stream_offset = 100;
  mc.threads = threads;

  const auto results = client::run_replicas(mc, [&](const client::Replica& replica) {
    auto source = std::make_unique<market::ModelPriceSource>(
        prices, trace::kDefaultSlotLength, replica.seed, type.market.persistence);
    market::SpotMarket market{std::move(source)};
    return client::run_one_time(market, decision.bid, job, type.on_demand);
  });
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kReplicas));

  return Registry::global().snapshot().deterministic();
}

/// Name every metric on which two snapshots disagree, for a readable
/// failure message instead of a dump of both snapshots.
std::string diff_names(const Snapshot& a, const Snapshot& b) {
  std::string out;
  for (const auto& metric : a.metrics) {
    const MetricSnapshot* other = b.find(metric.name);
    if (other == nullptr || !(*other == metric)) out += metric.name + " ";
  }
  for (const auto& metric : b.metrics)
    if (a.find(metric.name) == nullptr) out += metric.name + " ";
  return out.empty() ? "(same)" : out;
}

TEST(MetricsDeterminism, RegistryIdenticalForOneAndEightThreads) {
  const bool was_enabled = enabled();
  set_enabled(true);
  const Snapshot serial = sweep_snapshot(1);
  const Snapshot pooled = sweep_snapshot(8);
  set_enabled(was_enabled);

  EXPECT_TRUE(serial == pooled) << "differing metrics: " << diff_names(serial, pooled);

  // Sanity-check that the sweep actually exercised the instrumented paths:
  // the contract would hold vacuously over an empty registry.
  const MetricSnapshot* slots = serial.find("market.slots");
  ASSERT_NE(slots, nullptr);
  EXPECT_GT(slots->count, 0u);
  const MetricSnapshot* bids = serial.find("market.bids_submitted");
  ASSERT_NE(bids, nullptr);
  EXPECT_GE(bids->count, static_cast<std::uint64_t>(kReplicas));
  const MetricSnapshot* price = serial.find("market.spot_price_usd");
  ASSERT_NE(price, nullptr);
  EXPECT_EQ(price->count, slots->count)
      << "every simulated slot must contribute one price observation";
  const MetricSnapshot* revenue = serial.find("market.revenue_usd");
  ASSERT_NE(revenue, nullptr);
  EXPECT_GT(revenue->value, 0.0);
  const MetricSnapshot* replicas = serial.find("mc.replicas_completed");
  ASSERT_NE(replicas, nullptr);
  EXPECT_EQ(replicas->count, static_cast<std::uint64_t>(kReplicas));
}

TEST(MetricsDeterminism, RepeatedRunsIdentical) {
  const bool was_enabled = enabled();
  set_enabled(true);
  const Snapshot first = sweep_snapshot(1);
  const Snapshot second = sweep_snapshot(1);
  set_enabled(was_enabled);
  EXPECT_TRUE(first == second) << "differing metrics: " << diff_names(first, second);
}

TEST(MetricsDeterminism, BoundaryObservationsBucketIdenticallyAcrossThreads) {
  const bool was_enabled = enabled();
  set_enabled(true);

  // Observe values exactly on, just below, and just above every price-bound
  // from many threads at once: boundary placement ([lo, hi) — on-the-bound
  // goes up) must not depend on which thread observed the value.
  std::vector<double> values;
  for (const double bound : kPriceBoundsUsd) {
    values.push_back(bound);
    values.push_back(bound * (1.0 - 1e-12));
    values.push_back(bound * (1.0 + 1e-12));
  }

  Registry registry;
  Histogram& serial_hist = registry.histogram("serial", kPriceBoundsUsd);
  Histogram& pooled_hist = registry.histogram("pooled", kPriceBoundsUsd);

  constexpr std::size_t kRounds = 1000;
  for (std::size_t i = 0; i < kRounds * values.size(); ++i)
    serial_hist.observe(values[i % values.size()]);
  core::parallel_for(
      kRounds * values.size(),
      [&](std::size_t i) { pooled_hist.observe(values[i % values.size()]); },
      /*threads=*/8);

  set_enabled(was_enabled);

  ASSERT_EQ(serial_hist.count(), pooled_hist.count());
  for (std::size_t i = 0; i < serial_hist.bucket_count(); ++i)
    EXPECT_EQ(serial_hist.bucket(i), pooled_hist.bucket(i)) << "bucket " << i;
  EXPECT_EQ(to_ticks(serial_hist.sum()), to_ticks(pooled_hist.sum()));

  // The boundary values themselves must land in the bucket *above* the
  // bound, and the just-below neighbours one bucket lower.
  for (std::size_t b = 0; b < std::size(kPriceBoundsUsd); ++b) {
    EXPECT_EQ(serial_hist.bucket_index(kPriceBoundsUsd[b]), b + 1) << "bound " << b;
    EXPECT_EQ(serial_hist.bucket_index(kPriceBoundsUsd[b] * (1.0 - 1e-12)), b)
        << "bound " << b;
  }
}

}  // namespace
}  // namespace spotbid::metrics
