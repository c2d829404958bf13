// Tests for the Monte-Carlo replication engine: the derive_seed(parent, i)
// seeding scheme, bit-identical results and reductions across thread
// counts (including the full experiment harness) and with metrics on or
// off, and a stress test of concurrent Rng replica streams for the tsan
// preset.

#include "spotbid/client/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "spotbid/client/experiment.hpp"
#include "spotbid/client/job_runner.hpp"
#include "spotbid/core/metrics.hpp"
#include "spotbid/market/price_source.hpp"
#include "spotbid/provider/calibration.hpp"

namespace spotbid::client {
namespace {

TEST(MonteCarlo, ReplicaSeedsFollowDeriveSeed) {
  MonteCarloConfig config;
  config.seed = 99;
  config.stream_offset = 100;
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(replica_seed(config, i), numeric::derive_seed(99, 100 + static_cast<std::uint64_t>(i)));
}

TEST(MonteCarlo, BodyReceivesIndexAndMatchingSeed) {
  MonteCarloConfig config;
  config.replicas = 16;
  config.seed = 7;
  config.stream_offset = 3;
  config.threads = 4;
  const auto replicas = run_replicas(config, [](const Replica& r) { return r; });
  ASSERT_EQ(replicas.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(replicas[i].index, i);
    EXPECT_EQ(replicas[i].seed, numeric::derive_seed(7, 3 + static_cast<std::uint64_t>(i)));
  }
}

TEST(MonteCarlo, RejectsDegenerateConfigs) {
  MonteCarloConfig config;
  config.replicas = 0;
  EXPECT_THROW((void)validate_monte_carlo(config), InvalidArgument);
  config.replicas = 1;
  config.threads = -2;
  EXPECT_THROW((void)validate_monte_carlo(config), InvalidArgument);
  config.threads = 0;
  EXPECT_GE(validate_monte_carlo(config), 1);
}

/// A miniature market replication: one-time request on an i.i.d. price
/// stream. Stochastic, cheap, and sensitive to both the seed and the
/// accumulation order — exactly what the determinism contract protects.
double replica_cost(const Replica& replica) {
  auto prices = provider::calibrated_price_distribution(ec2::require_type("r3.xlarge"));
  market::SpotMarket market{std::make_unique<market::ModelPriceSource>(
      std::move(prices), trace::kDefaultSlotLength, replica.seed, 0.9)};
  const bidding::JobSpec job{Hours{0.5}, Hours{0.0}};
  return run_one_time(market, Money{0.04}, job, Money{0.35}).cost.usd();
}

TEST(MonteCarlo, MarketReplicasAreBitIdenticalAcrossThreadCounts) {
  const auto sweep = [](int threads) {
    MonteCarloConfig config;
    config.replicas = 24;
    config.seed = 1234;
    config.threads = threads;
    return run_replicas(config, replica_cost);
  };
  const auto one = sweep(1);
  const auto two = sweep(2);
  const auto many = sweep(static_cast<int>(std::thread::hardware_concurrency()));
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], two[i]) << "replica " << i;
    EXPECT_EQ(one[i], many[i]) << "replica " << i;
  }
}

TEST(MonteCarlo, ReductionFoldsInReplicaOrder) {
  const auto folded = [](int threads) {
    MonteCarloConfig config;
    config.replicas = 24;
    config.seed = 1234;
    config.threads = threads;
    return run_replicas_reduce(
        config, replica_cost, 0.0,
        [](double& acc, double cost, int) { acc += cost; });
  };
  const double serial = folded(1);
  EXPECT_EQ(serial, folded(2));
  EXPECT_EQ(serial, folded(0));
  // Metrics only record: switching them off moves no bit of the fold.
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(!was_enabled);
  const double toggled = folded(0);
  metrics::set_enabled(was_enabled);
  EXPECT_EQ(serial, toggled);
}

// The full Section-7 harness through the engine: the averaged outcome of
// run_single_instance_experiment must not depend on the thread count.
TEST(MonteCarlo, ExperimentHarnessIsThreadCountInvariant) {
  const auto& type = ec2::require_type("r3.xlarge");
  const bidding::JobSpec job{Hours{1.0}, Hours::from_seconds(30.0)};
  ExperimentConfig config;
  config.repetitions = 6;
  config.history_slots = 2000;

  config.threads = 1;
  const auto serial = run_single_instance_experiment(type, job, StrategyKind::kPersistent, config);
  config.threads = 4;
  const auto pooled = run_single_instance_experiment(type, job, StrategyKind::kPersistent, config);

  EXPECT_EQ(serial.avg_cost_usd, pooled.avg_cost_usd);
  EXPECT_EQ(serial.avg_completion_h, pooled.avg_completion_h);
  EXPECT_EQ(serial.avg_hourly_price_usd, pooled.avg_hourly_price_usd);
  EXPECT_EQ(serial.avg_interruptions, pooled.avg_interruptions);
  EXPECT_EQ(serial.spot_failures, pooled.spot_failures);
  EXPECT_EQ(serial.bid.usd(), pooled.bid.usd());
}

// Stress test for the tsan preset: many concurrent replicas each drawing
// heavily from their own derived Rng stream. Any sharing of generator
// state across replicas is a data race tsan would flag, and any
// cross-replica contamination changes the checksums.
TEST(MonteCarlo, ConcurrentRngStreamsAreRaceFreeAndIndependent) {
  const auto checksums = [](int threads) {
    MonteCarloConfig config;
    config.replicas = 64;
    config.seed = 4096;
    config.threads = threads;
    return run_replicas(config, [](const Replica& replica) {
      numeric::Rng rng{replica.seed};
      std::uint64_t checksum = 0;
      for (int k = 0; k < 20000; ++k) checksum ^= rng() + 0x9e3779b97f4a7c15ULL + (checksum << 6);
      return checksum;
    });
  };
  const auto pooled = checksums(0);
  const auto serial = checksums(1);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) EXPECT_EQ(pooled[i], serial[i]);
}

}  // namespace
}  // namespace spotbid::client
