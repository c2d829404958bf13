// Tests for BidService: submission/response plumbing, worker-count
// determinism, deterministic backpressure hysteresis (manual dispatch),
// request conservation under a threaded soak, every answer OK while a
// Recalibrator republishes, drain-on-stop semantics, and the completion
// callbacks behind every submit.

#include "spotbid/serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spotbid/core/metrics.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/serve/engine.hpp"
#include "spotbid/serve/recalibrator.hpp"
#include "spotbid/trace/generator.hpp"

namespace spotbid::serve {
namespace {

const std::string kKeyEast = make_key("us-east-1", "r3.xlarge");
const std::string kKeyWest = make_key("us-west-2", "m3.xlarge");

const SnapshotStore& shared_store() {
  static const SnapshotStore& store = []() -> SnapshotStore& {
    static SnapshotStore s;
    const auto& east = ec2::require_type("r3.xlarge");
    trace::GeneratorConfig config;
    config.slots = 12 * 24 * 7;
    s.publish(ModelSnapshot::from_trace(kKeyEast, trace::generate_for_type(east, config), east));
    s.publish(ModelSnapshot::from_type(kKeyWest, ec2::require_type("m3.xlarge")));
    return s;
  }();
  return store;
}

/// A deterministic mixed request trace touching both keys and every kind.
std::vector<Request> request_trace(std::size_t n) {
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request q;
    q.key = i % 3 == 0 ? kKeyWest : kKeyEast;
    q.kind = static_cast<Kind>(i % 5);
    q.mode = i % 2 == 0 ? BidMode::kPersistent : BidMode::kOneTime;
    q.bid = Money{0.02 + 0.002 * static_cast<double>(i % 40)};
    q.job = bidding::JobSpec{Hours{1.0 + static_cast<double>(i % 4)},
                             Hours::from_seconds(30.0)};
    q.demand = 1.0 + static_cast<double>(i % 16);
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<Response> run_through_service(const std::vector<Request>& requests,
                                          ServiceConfig config) {
  config.queue_capacity = requests.size() + 1;  // no backpressure in this path
  BidService service{shared_store(), config};
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (const Request& q : requests) futures.push_back(service.submit(q));
  std::vector<Response> out;
  out.reserve(requests.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

TEST(BidService, AskAnswersAgainstTheStore) {
  BidService service{shared_store(), ServiceConfig{.workers = 2}};
  Request q;
  q.key = kKeyEast;
  q.kind = Kind::kOptimalBid;
  q.mode = BidMode::kPersistent;
  q.job = bidding::JobSpec{Hours{2.0}, Hours::from_seconds(30.0)};

  const Response r = service.ask(q);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_GT(r.bid.usd(), 0.0);
  EXPECT_GT(r.epoch, 0u);

  // The response must be exactly the engine's answer for the same snapshot.
  const auto snapshot = shared_store().find(kKeyEast);
  EXPECT_EQ(r, execute_one(snapshot.get(), q));
}

TEST(BidService, UnknownKeyResolvesNotFound) {
  BidService service{shared_store(), ServiceConfig{.workers = 1}};
  Request q;
  q.key = "nowhere/none";
  q.kind = Kind::kRunLength;
  q.bid = Money{0.05};
  EXPECT_EQ(service.ask(q).status, Status::kNotFound);
}

/// The deterministic serve.* metrics: deterministic() minus every other
/// subsystem's counters (dist.query.*, for one, vary with batch grouping).
metrics::Snapshot serve_metrics() {
  metrics::Snapshot out;
  for (const auto& metric : metrics::Registry::global().snapshot().deterministic().metrics)
    if (metric.name.starts_with("serve.")) out.metrics.push_back(metric);
  return out;
}

TEST(BidService, ResponsesAreBitIdenticalAcrossWorkerCounts) {
  // The tentpole determinism contract at the service level: the same
  // request trace through 1 worker and through 8 workers (arbitrary
  // batch boundaries, arbitrary interleaving) yields bit-identical
  // responses in submission order, and the same serve.* metrics.
  const std::vector<Request> requests = request_trace(512);
  (void)shared_store();  // its publishes land before the first reset
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Registry::global().reset();
  const std::vector<Response> one = run_through_service(requests, ServiceConfig{.workers = 1});
  const metrics::Snapshot metrics_one = serve_metrics();
  metrics::Registry::global().reset();
  const std::vector<Response> many =
      run_through_service(requests, ServiceConfig{.workers = 8, .max_batch = 7});
  const metrics::Snapshot metrics_many = serve_metrics();
  metrics::set_enabled(was_enabled);

  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    EXPECT_EQ(one[i], many[i]) << "response " << i << " depends on worker count";
  EXPECT_TRUE(metrics_one == metrics_many) << "serve.* metrics depend on worker count";
  const metrics::MetricSnapshot* answered = metrics_one.find("serve.responses.ok");
  ASSERT_NE(answered, nullptr);
  EXPECT_EQ(answered->count, requests.size());
}

TEST(BidService, BackpressureHysteresisIsExact) {
  // Manual dispatch makes the queue state machine fully deterministic:
  // admission closes when depth reaches the high watermark and reopens only
  // once a drain reaches the low watermark.
  ServiceConfig config;
  config.start_workers = false;
  config.queue_capacity = 8;
  config.high_watermark = 6;
  config.low_watermark = 2;
  config.max_batch = 4;
  BidService service{shared_store(), config};

  Request q;
  q.key = kKeyEast;
  q.kind = Kind::kRunLength;
  q.bid = Money{0.05};

  std::vector<std::future<Response>> accepted;
  for (int i = 0; i < 6; ++i) {
    auto f = service.submit(q);
    EXPECT_FALSE(service.overloaded() && i < 5);
    accepted.push_back(std::move(f));
  }
  EXPECT_TRUE(service.overloaded()) << "depth reached the high watermark";
  EXPECT_EQ(service.queue_depth(), 6u);

  // Every submission while overloaded is rejected immediately, future ready.
  for (int i = 0; i < 4; ++i) {
    auto f = service.submit(q);
    ASSERT_EQ(f.wait_for(std::chrono::seconds{0}), std::future_status::ready);
    EXPECT_EQ(f.get().status, Status::kOverloaded);
  }
  EXPECT_EQ(service.accepted(), 6u);
  EXPECT_EQ(service.rejected(), 4u);

  // One tick drains max_batch = 4, leaving depth 2 == low watermark:
  // admission reopens (hysteresis: not at 5, not at 3, exactly at <= 2).
  EXPECT_TRUE(service.poll_once());
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_FALSE(service.overloaded());

  // Re-closing works the same way on the second cycle.
  for (int i = 0; i < 4; ++i) accepted.push_back(service.submit(q));
  EXPECT_TRUE(service.overloaded());
  EXPECT_EQ(service.submit(q).get().status, Status::kOverloaded);

  while (service.poll_once()) {
  }
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_FALSE(service.overloaded());

  // Conservation: every accepted request resolves OK, exactly once.
  for (auto& f : accepted) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_EQ(service.accepted(), 10u);
  EXPECT_EQ(service.rejected(), 5u);
}

TEST(BidService, ThreadedSoakConservesEveryRequest) {
  // Four submitters against two live workers and a 64-deep queue: which
  // requests are rejected depends on scheduling, but every submission is
  // answered exactly once, OK if admitted and kOverloaded if not.
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.low_watermark = 16;
  config.max_batch = 32;
  BidService service{shared_store(), config};

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 2500;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<Response>> futures;
      futures.reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        Request q;
        q.key = (t + i) % 2 == 0 ? kKeyEast : kKeyWest;
        q.kind = Kind::kRunLength;
        q.bid = Money{0.02 + 0.001 * static_cast<double>(i % 50)};
        futures.push_back(service.submit(q));
      }
      for (auto& f : futures) {
        switch (f.get().status) {
          case Status::kOk: ok.fetch_add(1); break;
          case Status::kOverloaded: overloaded.fetch_add(1); break;
          default: other.fetch_add(1); break;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.stop();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(ok.load()), service.accepted());
  EXPECT_EQ(static_cast<std::uint64_t>(overloaded.load()), service.rejected());
  EXPECT_EQ(service.accepted() + service.rejected(),
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
}

TEST(Recalibrator, ServiceAnswersEveryRequestWhileAKeyRepublishes) {
  // The closed loop: one key is rebuilt from a trace and republished every
  // 2 ms while four workers answer the mixed trace over it and a static
  // key. A swap mid-batch must never surface as a failed or epoch-less
  // answer.
  const auto& east = ec2::require_type("r3.xlarge");
  trace::GeneratorConfig generator;
  generator.slots = 12 * 24 * 7;
  const auto rolling = trace::generate_for_type(east, generator);

  SnapshotStore store;
  store.publish(ModelSnapshot::from_type(kKeyWest, ec2::require_type("m3.xlarge")));
  Recalibrator recalibrator{store, std::chrono::milliseconds{2}};
  recalibrator.add_source([&] { return ModelSnapshot::from_trace(kKeyEast, rolling, east); });
  recalibrator.refresh_now();
  recalibrator.start();

  // Answer the trace until at least two republishes overlapped it.
  const std::vector<Request> requests = request_trace(1024);
  BidService service{store, ServiceConfig{.workers = 4, .queue_capacity = requests.size() + 1}};
  const std::uint64_t first_round = recalibrator.rounds();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  int passes = 0;
  do {
    std::vector<std::future<Response>> futures;
    futures.reserve(requests.size());
    for (const Request& q : requests) futures.push_back(service.submit(q));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Response r = futures[i].get();
      ASSERT_EQ(r.status, Status::kOk) << "pass " << passes << ", request " << i;
      ASSERT_GE(r.epoch, 1u) << "pass " << passes << ", request " << i;
    }
    ++passes;
  } while (recalibrator.rounds() < first_round + 2 &&
           std::chrono::steady_clock::now() < deadline);
  service.stop();
  recalibrator.stop();
  EXPECT_GE(recalibrator.rounds(), first_round + 2);
}

TEST(BidService, StopDrainsAcceptedRequests) {
  // Requests still queued at stop() must be answered (not dropped, not
  // broken promises) — here under manual dispatch, where stop() itself
  // drains inline.
  ServiceConfig config;
  config.start_workers = false;
  config.queue_capacity = 64;
  BidService service{shared_store(), config};

  std::vector<std::future<Response>> futures;
  for (const Request& q : request_trace(32)) futures.push_back(service.submit(q));
  service.stop();
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kInvalid) << status_name(r.status);
  }

  // After stop(), submissions are refused with kShutdown.
  Request q;
  q.key = kKeyEast;
  q.kind = Kind::kRunLength;
  q.bid = Money{0.05};
  EXPECT_EQ(service.submit(q).get().status, Status::kShutdown);
  service.stop();  // idempotent
}

TEST(BidService, CallbackRejectionsCompleteInsideSubmit) {
  // Manual dispatch: admission is a pure function of the submit/poll
  // sequence. A rejected request's completion runs before submit returns,
  // and may re-enter the service (no lock is held while it runs).
  ServiceConfig config;
  config.start_workers = false;
  config.queue_capacity = 2;
  BidService service{shared_store(), config};

  Request q;
  q.key = kKeyEast;
  q.kind = Kind::kRunLength;
  q.bid = Money{0.05};

  std::vector<int> accepted_calls(2, 0);
  for (int i = 0; i < 2; ++i)
    service.submit(q, [&, i](Response r) {
      EXPECT_EQ(r.status, Status::kOk);
      ++accepted_calls[static_cast<std::size_t>(i)];
    });
  EXPECT_EQ(accepted_calls, (std::vector<int>{0, 0})) << "admitted requests wait for a tick";
  ASSERT_TRUE(service.overloaded());

  int overloaded_calls = 0;
  service.submit(q, [&](Response r) {
    EXPECT_EQ(r.status, Status::kOverloaded);
    EXPECT_EQ(service.queue_depth(), 2u);
    EXPECT_TRUE(service.overloaded());
    ++overloaded_calls;
  });
  EXPECT_EQ(overloaded_calls, 1) << "the rejection completed before submit returned";
  EXPECT_EQ(service.rejected(), 1u);

  while (service.poll_once()) {
  }
  EXPECT_EQ(accepted_calls, (std::vector<int>{1, 1}));

  service.stop();
  int shutdown_calls = 0;
  service.submit(q, [&](Response r) {
    EXPECT_EQ(r.status, Status::kShutdown);
    EXPECT_EQ(service.queue_depth(), 0u);
    EXPECT_FALSE(service.overloaded());
    ++shutdown_calls;
  });
  EXPECT_EQ(shutdown_calls, 1) << "the rejection completed before submit returned";

  EXPECT_EQ(accepted_calls, (std::vector<int>{1, 1}));
  EXPECT_EQ(overloaded_calls, 1);
  EXPECT_EQ(service.accepted(), 2u);
}

TEST(BidService, WorkerCompletionsRunOnceAndMayReenterTheService) {
  // Completions of admitted requests run on a worker thread, with no
  // service lock held: one that calls back into the service must not
  // deadlock, and each must run exactly once.
  constexpr std::size_t kRequests = 512;
  const std::vector<Request> requests = request_trace(kRequests);
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = kRequests + 1;
  config.max_batch = 16;
  BidService service{shared_store(), config};

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> calls(kRequests);
  std::atomic<std::size_t> done{0};
  std::atomic<bool> off_caller{true};
  std::promise<void> all_done;
  for (std::size_t i = 0; i < kRequests; ++i) {
    service.submit(requests[i], [&, i](Response r) {
      EXPECT_NE(r.status, Status::kOverloaded);
      (void)service.queue_depth();
      (void)service.overloaded();
      if (std::this_thread::get_id() == caller) off_caller = false;
      calls[i].fetch_add(1);
      if (done.fetch_add(1) + 1 == kRequests) all_done.set_value();
    });
  }
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds{60}), std::future_status::ready)
      << "a re-entrant completion deadlocked the service";
  service.stop();

  EXPECT_TRUE(off_caller.load()) << "admitted requests complete on a worker";
  for (std::size_t i = 0; i < kRequests; ++i)
    EXPECT_EQ(calls[i].load(), 1) << "completion " << i << " did not run exactly once";
  EXPECT_EQ(service.accepted(), kRequests);
}

TEST(BidService, WatermarkDefaultsAreApplied) {
  ServiceConfig config;
  config.start_workers = false;
  config.queue_capacity = 4;  // high defaults to capacity, low to capacity/2
  BidService service{shared_store(), config};

  Request q;
  q.key = kKeyEast;
  q.kind = Kind::kRunLength;
  q.bid = Money{0.05};

  std::vector<std::future<Response>> accepted;
  for (int i = 0; i < 4; ++i) accepted.push_back(service.submit(q));
  EXPECT_TRUE(service.overloaded());
  EXPECT_EQ(service.submit(q).get().status, Status::kOverloaded);
  while (service.poll_once()) {
  }
  for (auto& f : accepted) EXPECT_EQ(f.get().status, Status::kOk);
}

}  // namespace
}  // namespace spotbid::serve
