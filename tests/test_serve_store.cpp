// Tests for the serve-layer snapshot store: epoch-swap publication,
// lock-free lookups under concurrent recalibration, and the background
// Recalibrator control plane.

#include "spotbid/serve/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "spotbid/dist/empirical.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/serve/recalibrator.hpp"
#include "spotbid/serve/request.hpp"
#include "spotbid/trace/generator.hpp"

namespace spotbid::serve {
namespace {

std::shared_ptr<ModelSnapshot> analytic_snapshot(const std::string& key,
                                                 const char* type = "r3.xlarge") {
  return ModelSnapshot::from_type(key, ec2::require_type(type));
}

TEST(MakeKey, ComposesRegionAndType) {
  EXPECT_EQ(make_key("us-east-1", "r3.xlarge"), "us-east-1/r3.xlarge");
}

TEST(SnapshotStore, FindBeforePublishIsNull) {
  const SnapshotStore store;
  EXPECT_EQ(store.find("us-east-1/r3.xlarge"), nullptr);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.current_epoch(), 0u);
}

TEST(SnapshotStore, PublishFindRoundtrip) {
  SnapshotStore store;
  const std::string key = make_key("us-east-1", "r3.xlarge");
  auto snapshot = analytic_snapshot(key);
  EXPECT_EQ(snapshot->epoch(), 0u);

  const std::uint64_t epoch = store.publish(snapshot);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(store.current_epoch(), 1u);
  EXPECT_EQ(store.size(), 1u);

  const auto found = store.find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found.get(), snapshot.get());
  EXPECT_EQ(found->key(), key);
}

TEST(SnapshotStore, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SnapshotStore{0}.shard_count(), 1u);
  EXPECT_EQ(SnapshotStore{1}.shard_count(), 1u);
  EXPECT_EQ(SnapshotStore{3}.shard_count(), 4u);
  EXPECT_EQ(SnapshotStore{16}.shard_count(), 16u);
  EXPECT_EQ(SnapshotStore{17}.shard_count(), 32u);
}

TEST(SnapshotStore, EpochSwapReplacesExistingKey) {
  SnapshotStore store;
  const std::string key = make_key("us-east-1", "r3.xlarge");
  auto first = analytic_snapshot(key);
  auto second = analytic_snapshot(key);
  store.publish(first);

  // A reader that resolved before the swap keeps its snapshot alive.
  const auto held = store.find(key);
  ASSERT_EQ(held.get(), first.get());

  EXPECT_EQ(store.publish(second), 2u);
  EXPECT_EQ(store.size(), 1u) << "republish must not duplicate the key";
  EXPECT_EQ(store.find(key).get(), second.get());
  EXPECT_EQ(held->epoch(), 1u);
  EXPECT_EQ(second->epoch(), 2u);
}

TEST(SnapshotStore, EpochsAreStoreWideMonotone) {
  SnapshotStore store{4};
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t epoch =
        store.publish(analytic_snapshot(make_key("region-" + std::to_string(i), "r3.xlarge")));
    EXPECT_GT(epoch, last);
    last = epoch;
  }
  EXPECT_EQ(store.size(), 20u);
  EXPECT_EQ(store.current_epoch(), 20u);
}

TEST(SnapshotStore, KeysAreSorted) {
  SnapshotStore store;
  store.publish(analytic_snapshot("b/r3.xlarge"));
  store.publish(analytic_snapshot("a/r3.xlarge"));
  store.publish(analytic_snapshot("c/r3.xlarge"));
  const std::vector<std::string> expected{"a/r3.xlarge", "b/r3.xlarge", "c/r3.xlarge"};
  EXPECT_EQ(store.keys(), expected);
}

TEST(SnapshotStore, PublishContractViolations) {
  SnapshotStore store;
  EXPECT_THROW((void)store.publish(nullptr), InvalidArgument);
  auto snapshot = analytic_snapshot("us-east-1/r3.xlarge");
  store.publish(snapshot);
  // A snapshot is immutable once published; republishing it would alias the
  // epoch stamp.
  EXPECT_THROW((void)store.publish(snapshot), InvalidArgument);
}

TEST(SnapshotStore, FromTraceCarriesEmpiricalLaw) {
  const auto& type = ec2::require_type("r3.xlarge");
  trace::GeneratorConfig config;
  config.slots = 2000;
  const auto trace = trace::generate_for_type(type, config);
  const auto snapshot = ModelSnapshot::from_trace("us-east-1/r3.xlarge", trace, type);
  ASSERT_NE(snapshot->empirical(), nullptr);
  // The borrowed pointer must alias the model's own distribution.
  EXPECT_EQ(snapshot->empirical(),
            dynamic_cast<const dist::Empirical*>(&snapshot->model().distribution()));
  // Analytic snapshots have no empirical law to batch over.
  EXPECT_EQ(analytic_snapshot("x/r3.xlarge")->empirical(), nullptr);
}

TEST(SnapshotStore, ConcurrentReadersDuringPublishes) {
  // Readers spin on find() while the main thread republishes new epochs and
  // inserts fresh keys; every resolved snapshot must be coherent (key
  // matches, epoch stamped). Run under TSan this exercises the epoch-swap
  // and copy-on-write publication paths. Publishing starts only once every
  // reader has resolved the key once, so the publishes cannot all finish
  // before the readers run.
  constexpr int kReaders = 4;
  SnapshotStore store{4};
  const std::string hot_key = make_key("us-east-1", "r3.xlarge");
  store.publish(analytic_snapshot(hot_key));

  std::atomic<bool> stop{false};
  std::atomic<int> readers_started{0};
  std::atomic<std::uint64_t> observed_max{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool started = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = store.find(hot_key);
        ASSERT_NE(snapshot, nullptr);
        ASSERT_EQ(snapshot->key(), hot_key);
        const std::uint64_t epoch = snapshot->epoch();
        ASSERT_GE(epoch, 1u);
        std::uint64_t prev = observed_max.load(std::memory_order_relaxed);
        while (prev < epoch &&
               !observed_max.compare_exchange_weak(prev, epoch, std::memory_order_relaxed)) {
        }
        if (!started) {
          started = true;
          readers_started.fetch_add(1);
        }
      }
    });
  }
  while (readers_started.load() < kReaders) std::this_thread::yield();

  for (int i = 0; i < 200; ++i) {
    store.publish(analytic_snapshot(hot_key));
    if (i % 10 == 0)
      store.publish(analytic_snapshot(make_key("region-" + std::to_string(i), "m3.xlarge")));
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(store.find(hot_key)->epoch(), store.current_epoch());
  EXPECT_GE(observed_max.load(), 1u);
}

TEST(Recalibrator, RefreshNowPublishesEachSource) {
  SnapshotStore store;
  Recalibrator recalibrator{store, std::chrono::milliseconds{50}};
  recalibrator.add_source([] { return analytic_snapshot("us-east-1/r3.xlarge"); });
  recalibrator.add_source([] { return analytic_snapshot("us-west-2/m3.xlarge"); });
  // nullptr means "no new data": the key is skipped, not an error.
  recalibrator.add_source([]() -> std::shared_ptr<ModelSnapshot> { return nullptr; });

  recalibrator.refresh_now();
  EXPECT_EQ(recalibrator.rounds(), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.current_epoch(), 2u);

  recalibrator.refresh_now();
  EXPECT_EQ(recalibrator.rounds(), 2u);
  EXPECT_EQ(store.size(), 2u) << "refresh republishes, it does not duplicate";
  EXPECT_EQ(store.current_epoch(), 4u);
}

TEST(Recalibrator, BackgroundThreadAdvancesEpochs) {
  SnapshotStore store;
  Recalibrator recalibrator{store, std::chrono::milliseconds{5}};
  recalibrator.add_source([] { return analytic_snapshot("us-east-1/r3.xlarge"); });
  recalibrator.refresh_now();

  recalibrator.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (recalibrator.rounds() < 3 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  recalibrator.stop();

  EXPECT_GE(recalibrator.rounds(), 3u);
  EXPECT_EQ(store.current_epoch(), recalibrator.rounds());
  EXPECT_EQ(store.find("us-east-1/r3.xlarge")->epoch(), store.current_epoch());
  // stop() is idempotent and restart works.
  recalibrator.stop();
  recalibrator.start();
  recalibrator.stop();
}

}  // namespace
}  // namespace spotbid::serve
