// Perf + correctness trajectory for the spotbid::serve advisory service
// (docs/SERVE.md). Stages:
//
//   1. determinism: a fixed mixed request trace through 1 worker and through
//      N workers — response payloads must be BIT-identical in submission
//      order, and the deterministic serve.* metric subset must be
//      thread-count-invariant;
//   2. micro-batching: a same-key burst through the same 1-worker service,
//      ping-pong (submit-one-wait-one, max_batch 1) vs burst submission
//      (max_batch 256) — batching must win; plus execute_batch vs an
//      execute_one loop on the same burst (bit-identity gated; the batch
//      entry point flushes its metric tallies once per group, so it must
//      not lose);
//   3. overload: deterministic injection under manual dispatch (no workers:
//      admission closes exactly at the high watermark) plus a threaded
//      soak — rejections must appear, and accepted + rejected must equal
//      submitted with every accepted request answered exactly once;
//   4. closed loop: sustained mixed load with a background Recalibrator
//      republishing snapshots — throughput reported, every response must
//      carry a valid epoch.
//
// BENCH_serve.json gets the wall times, gate flags, and the metrics
// snapshot (serve.* counters included).
//
//   ./bench_serve [output.json]          (default: BENCH_serve.json)
//   SPOTBID_BENCH_SERVE_REQUESTS=N   stage-1/4 trace length, default 4096
//   SPOTBID_BENCH_SERVE_BURST=B      stage-2 burst size, default 2048
//
// Exit code 1 on any gate violation (bit mismatch, metric drift, batching
// not winning, lost/duplicated requests): CI treats this bench as a test.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "spotbid/core/metrics.hpp"
#include "spotbid/core/parallel.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/serve/engine.hpp"
#include "spotbid/serve/recalibrator.hpp"
#include "spotbid/serve/service.hpp"
#include "spotbid/trace/generator.hpp"

namespace {

using namespace spotbid;
using serve::BidMode;
using serve::BidService;
using serve::Kind;
using serve::ModelSnapshot;
using serve::Recalibrator;
using serve::Request;
using serve::Response;
using serve::ServiceConfig;
using serve::SnapshotStore;
using serve::Status;
using Clock = std::chrono::steady_clock;

int env_int(const char* name, int fallback) {
  if (const char* raw = std::getenv(name)) {
    const int value = std::atoi(raw);
    if (value > 0) return value;
  }
  return fallback;
}

template <class F>
double best_wall_seconds(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    body();
    best = std::min(best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

const std::string kKeyEast = serve::make_key("us-east-1", "r3.xlarge");
const std::string kKeyWest = serve::make_key("us-west-2", "m3.xlarge");
const std::string kKeyAnalytic = serve::make_key("eu-west-1", "c3.4xlarge");

trace::PriceTrace make_trace(const ec2::InstanceType& type, int slots) {
  trace::GeneratorConfig config;
  config.slots = slots;
  return trace::generate_for_type(type, config);
}

void seed_store(SnapshotStore& store) {
  const auto& east = ec2::require_type("r3.xlarge");
  const auto& west = ec2::require_type("m3.xlarge");
  store.publish(ModelSnapshot::from_trace(kKeyEast, make_trace(east, 12 * 24 * 14), east));
  store.publish(ModelSnapshot::from_trace(kKeyWest, make_trace(west, 12 * 24 * 14), west));
  store.publish(ModelSnapshot::from_type(kKeyAnalytic, ec2::require_type("c3.4xlarge")));
}

/// Deterministic mixed request trace over all three keys and all kinds.
std::vector<Request> request_trace(int n) {
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Request q;
    q.key = i % 4 == 0 ? kKeyWest : i % 7 == 0 ? kKeyAnalytic : kKeyEast;
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

/// The thread-count-invariant serve metrics: deterministic() minus
/// everything that is not under the serve. prefix (other subsystems'
/// counters, e.g. dist.query.*, legitimately vary with batch grouping).
metrics::Snapshot serve_deterministic_subset() {
  metrics::Snapshot out;
  for (const auto& metric : metrics::Registry::global().snapshot().deterministic().metrics)
    if (metric.name.starts_with("serve.")) out.metrics.push_back(metric);
  return out;
}

// ---------------------------------------------------------------- stage 1

struct DeterminismStage {
  int requests = 0;
  int workers_many = 0;
  double wall_one_s = 0.0;
  double wall_many_s = 0.0;
  bool responses_identical = false;
  bool serve_metrics_invariant = false;
};

std::vector<Response> run_trace_through(const SnapshotStore& store,
                                        const std::vector<Request>& requests,
                                        ServiceConfig config, double* wall_s) {
  config.queue_capacity = requests.size() + 1;
  const auto start = Clock::now();
  BidService service{store, config};
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (const Request& q : requests) futures.push_back(service.submit(q));
  std::vector<Response> out;
  out.reserve(requests.size());
  for (auto& f : futures) out.push_back(f.get());
  service.stop();
  *wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

DeterminismStage run_determinism_stage(const SnapshotStore& store, int n) {
  DeterminismStage stage;
  stage.requests = n;
  stage.workers_many = std::clamp(core::default_thread_count(), 2, 8);
  const std::vector<Request> requests = request_trace(n);

  metrics::Registry::global().reset();
  const std::vector<Response> one =
      run_trace_through(store, requests, ServiceConfig{.workers = 1}, &stage.wall_one_s);
  const metrics::Snapshot metrics_one = serve_deterministic_subset();

  metrics::Registry::global().reset();
  const std::vector<Response> many = run_trace_through(
      store, requests, ServiceConfig{.workers = stage.workers_many, .max_batch = 48},
      &stage.wall_many_s);
  const metrics::Snapshot metrics_many = serve_deterministic_subset();

  stage.responses_identical = one == many;
  if (!stage.responses_identical)
    std::cerr << "FATAL: responses differ between 1 and " << stage.workers_many
              << " workers\n";
  stage.serve_metrics_invariant = metrics_one == metrics_many;
  if (!stage.serve_metrics_invariant)
    std::cerr << "FATAL: deterministic serve.* metrics drifted with the worker count\n";
  return stage;
}

// ---------------------------------------------------------------- stage 2

struct BatchingStage {
  int requests = 0;
  double pingpong_wall_s = 0.0;
  double burst_wall_s = 0.0;
  bool batching_wins = false;
  double engine_scalar_wall_s = 0.0;
  double engine_batch_wall_s = 0.0;
  bool engine_bit_identical = false;
  [[nodiscard]] double service_speedup() const {
    return burst_wall_s > 0.0 ? pingpong_wall_s / burst_wall_s : 0.0;
  }
  [[nodiscard]] double engine_speedup() const {
    return engine_batch_wall_s > 0.0 ? engine_scalar_wall_s / engine_batch_wall_s : 0.0;
  }
};

/// Same-key burst: the workload micro-batching exists for.
std::vector<Request> same_key_burst(int n) {
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Request q;
    q.key = kKeyEast;
    q.kind = Kind::kExpectedCost;
    q.mode = BidMode::kPersistent;
    q.bid = Money{0.02 + 0.002 * static_cast<double>(i % 40)};
    q.job = bidding::JobSpec{Hours{2.0}, Hours::from_seconds(30.0)};
    out.push_back(std::move(q));
  }
  return out;
}

BatchingStage run_batching_stage(const SnapshotStore& store, int n) {
  BatchingStage stage;
  stage.requests = n;
  const std::vector<Request> burst = same_key_burst(n);

  // Service level, identical worker count (1): submit-one-wait-one with
  // max_batch 1 (a condvar roundtrip and a store lookup per request) vs
  // burst submission with micro-batching (both amortized per tick).
  {
    ServiceConfig config;
    config.workers = 1;
    config.max_batch = 1;
    config.queue_capacity = burst.size() + 1;
    BidService service{store, config};
    stage.pingpong_wall_s = best_wall_seconds(2, [&] {
      for (const Request& q : burst) (void)service.ask(q);
    });
  }
  {
    ServiceConfig config;
    config.workers = 1;
    config.max_batch = 256;
    config.queue_capacity = burst.size() + 1;
    BidService service{store, config};
    stage.burst_wall_s = best_wall_seconds(2, [&] {
      std::vector<std::future<Response>> futures;
      futures.reserve(burst.size());
      for (const Request& q : burst) futures.push_back(service.submit(q));
      for (auto& f : futures) (void)f.get();
    });
  }
  stage.batching_wins = stage.burst_wall_s < stage.pingpong_wall_s;
  if (!stage.batching_wins)
    std::cerr << "FATAL: micro-batched burst (" << stage.burst_wall_s
              << " s) did not beat per-request execution (" << stage.pingpong_wall_s
              << " s)\n";

  // Engine level: execute_batch (one tally flush for the group) vs
  // execute_one per request (two counter increments each), same snapshot,
  // no queue in the way. Bit-identity is the gate; the schema also floors
  // the speedup at 1.0.
  const auto snapshot = store.find(kKeyEast);
  std::vector<const Request*> pointers;
  pointers.reserve(burst.size());
  for (const Request& q : burst) pointers.push_back(&q);
  std::vector<Response> scalar(burst.size());
  std::vector<Response> batched(burst.size());
  stage.engine_scalar_wall_s = best_wall_seconds(3, [&] {
    for (std::size_t i = 0; i < burst.size(); ++i)
      scalar[i] = serve::execute_one(snapshot.get(), burst[i]);
  });
  stage.engine_batch_wall_s = best_wall_seconds(3, [&] {
    serve::execute_batch(snapshot.get(), pointers, batched);
  });
  stage.engine_bit_identical = scalar == batched;
  if (!stage.engine_bit_identical)
    std::cerr << "FATAL: engine batch path diverged from scalar execution\n";
  return stage;
}

// ---------------------------------------------------------------- stage 3

struct OverloadStage {
  int submitted = 0;
  int accepted = 0;
  int rejected = 0;
  int answered_ok = 0;
  bool deterministic_admission = false;
  bool conservation_ok = false;
  int soak_submitted = 0;
  int soak_accepted = 0;
  int soak_rejected = 0;
  bool soak_conservation_ok = false;
};

OverloadStage run_overload_stage(const SnapshotStore& store) {
  OverloadStage stage;

  // Deterministic injection: no workers, so admission state is a pure
  // function of the submit/poll sequence. Capacity 256 (high watermark
  // defaults to capacity): submissions 257..1000 MUST all be rejected.
  {
    ServiceConfig config;
    config.start_workers = false;
    config.queue_capacity = 256;
    config.max_batch = 64;
    BidService service{store, config};

    Request q;
    q.key = kKeyEast;
    q.kind = Kind::kRunLength;
    q.bid = Money{0.05};

    std::vector<std::future<Response>> futures;
    stage.submitted = 1000;
    for (int i = 0; i < stage.submitted; ++i) futures.push_back(service.submit(q));
    stage.deterministic_admission =
        service.accepted() == 256 && service.rejected() == 744 && service.overloaded();

    while (service.poll_once()) {
    }
    service.stop();

    for (auto& f : futures) {
      const Response r = f.get();  // throws on a lost/duplicated promise
      if (r.status == Status::kOk) ++stage.answered_ok;
      else if (r.status != Status::kOverloaded) {
        std::cerr << "FATAL: unexpected status " << serve::status_name(r.status)
                  << " under overload\n";
      }
    }
    stage.accepted = static_cast<int>(service.accepted());
    stage.rejected = static_cast<int>(service.rejected());
    stage.conservation_ok = stage.deterministic_admission &&
                            stage.answered_ok == stage.accepted &&
                            stage.accepted + stage.rejected == stage.submitted;
    if (!stage.conservation_ok)
      std::cerr << "FATAL: overload conservation violated (accepted " << stage.accepted
                << ", ok " << stage.answered_ok << ", rejected " << stage.rejected << ")\n";
  }

  // Threaded soak: 4 submitters hammer a tiny queue with live workers.
  // Which requests get rejected is scheduling-dependent; that accepted +
  // rejected == submitted and every accepted future resolves OK is not.
  {
    ServiceConfig config;
    config.workers = 2;
    config.queue_capacity = 64;
    config.low_watermark = 16;
    config.max_batch = 32;
    BidService service{store, config};

    constexpr int kThreads = 4;
    constexpr int kPerThread = 2500;
    std::atomic<int> ok{0};
    std::atomic<int> overloaded{0};
    std::atomic<int> other{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        std::vector<std::future<Response>> futures;
        futures.reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
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

    stage.soak_submitted = kThreads * kPerThread;
    stage.soak_accepted = static_cast<int>(service.accepted());
    stage.soak_rejected = static_cast<int>(service.rejected());
    stage.soak_conservation_ok =
        other.load() == 0 && ok.load() == stage.soak_accepted &&
        overloaded.load() == stage.soak_rejected &&
        stage.soak_accepted + stage.soak_rejected == stage.soak_submitted;
    if (!stage.soak_conservation_ok)
      std::cerr << "FATAL: soak conservation violated (ok " << ok.load() << ", overloaded "
                << overloaded.load() << ", other " << other.load() << ")\n";
  }
  return stage;
}

// ---------------------------------------------------------------- stage 4

struct ClosedLoopStage {
  int requests = 0;
  int workers = 0;
  double wall_s = 0.0;
  int epochs_observed = 0;
  std::uint64_t refresh_rounds = 0;
  bool all_ok = false;
  [[nodiscard]] double requests_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(requests) / wall_s : 0.0;
  }
};

ClosedLoopStage run_closed_loop_stage(SnapshotStore& store, int n) {
  ClosedLoopStage stage;
  stage.requests = n;
  stage.workers = std::clamp(core::default_thread_count(), 2, 8);

  // Background control plane: republish the hot key from a rolling trace
  // every 2 ms while the request plane runs at full tilt.
  const auto& east = ec2::require_type("r3.xlarge");
  const auto rolling = make_trace(east, 12 * 24 * 7);
  Recalibrator recalibrator{store, std::chrono::milliseconds{2}};
  recalibrator.add_source(
      [&] { return ModelSnapshot::from_trace(kKeyEast, rolling, east); });
  recalibrator.start();

  ServiceConfig config;
  config.workers = stage.workers;
  config.queue_capacity = static_cast<std::size_t>(n) + 1;
  BidService service{store, config};

  const std::vector<Request> requests = request_trace(n);
  std::set<std::uint64_t> epochs;
  bool all_ok = true;

  const auto start = Clock::now();
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (const Request& q : requests) futures.push_back(service.submit(q));
  for (auto& f : futures) {
    const Response r = f.get();
    all_ok = all_ok && r.status == Status::kOk && r.epoch >= 1;
    epochs.insert(r.epoch);
  }
  stage.wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  service.stop();
  recalibrator.stop();
  stage.refresh_rounds = recalibrator.rounds();
  stage.epochs_observed = static_cast<int>(epochs.size());
  stage.all_ok = all_ok;
  if (!all_ok) std::cerr << "FATAL: closed-loop run produced a non-OK or epoch-less response\n";
  return stage;
}

// ------------------------------------------------------------------ JSON

void write_json(const std::string& path, const DeterminismStage& d, const BatchingStage& b,
                const OverloadStage& o, const ClosedLoopStage& c,
                const metrics::Snapshot& snapshot) {
  std::ofstream os{path};
  os.precision(17);
  os << "{\n"
     << "  \"benchmark\": \"serve\",\n"
     << "  \"determinism_stage\": {\n"
     << "    \"requests\": " << d.requests << ",\n"
     << "    \"workers_many\": " << d.workers_many << ",\n"
     << "    \"wall_one_s\": " << d.wall_one_s << ",\n"
     << "    \"wall_many_s\": " << d.wall_many_s << ",\n"
     << "    \"responses_identical\": " << (d.responses_identical ? "true" : "false") << ",\n"
     << "    \"serve_metrics_invariant\": " << (d.serve_metrics_invariant ? "true" : "false")
     << "\n"
     << "  },\n"
     << "  \"batching_stage\": {\n"
     << "    \"requests\": " << b.requests << ",\n"
     << "    \"pingpong_wall_s\": " << b.pingpong_wall_s << ",\n"
     << "    \"burst_wall_s\": " << b.burst_wall_s << ",\n"
     << "    \"service_speedup\": " << b.service_speedup() << ",\n"
     << "    \"batching_wins\": " << (b.batching_wins ? "true" : "false") << ",\n"
     << "    \"engine_scalar_wall_s\": " << b.engine_scalar_wall_s << ",\n"
     << "    \"engine_batch_wall_s\": " << b.engine_batch_wall_s << ",\n"
     << "    \"engine_speedup\": " << b.engine_speedup() << ",\n"
     << "    \"engine_bit_identical\": " << (b.engine_bit_identical ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"overload_stage\": {\n"
     << "    \"submitted\": " << o.submitted << ",\n"
     << "    \"accepted\": " << o.accepted << ",\n"
     << "    \"rejected\": " << o.rejected << ",\n"
     << "    \"answered_ok\": " << o.answered_ok << ",\n"
     << "    \"deterministic_admission\": " << (o.deterministic_admission ? "true" : "false")
     << ",\n"
     << "    \"conservation_ok\": " << (o.conservation_ok ? "true" : "false") << ",\n"
     << "    \"soak_submitted\": " << o.soak_submitted << ",\n"
     << "    \"soak_accepted\": " << o.soak_accepted << ",\n"
     << "    \"soak_rejected\": " << o.soak_rejected << ",\n"
     << "    \"soak_conservation_ok\": " << (o.soak_conservation_ok ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"closed_loop_stage\": {\n"
     << "    \"requests\": " << c.requests << ",\n"
     << "    \"workers\": " << c.workers << ",\n"
     << "    \"wall_s\": " << c.wall_s << ",\n"
     << "    \"requests_per_s\": " << c.requests_per_s() << ",\n"
     << "    \"epochs_observed\": " << c.epochs_observed << ",\n"
     << "    \"refresh_rounds\": " << c.refresh_rounds << ",\n"
     << "    \"all_ok\": " << (c.all_ok ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"metrics\": ";
  metrics::write_json(os, snapshot, 2);
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_serve.json";
  const int n_requests = env_int("SPOTBID_BENCH_SERVE_REQUESTS", 4096);
  const int n_burst = env_int("SPOTBID_BENCH_SERVE_BURST", 2048);

  metrics::set_enabled(true);
  metrics::Registry::global().reset();

  SnapshotStore store;
  seed_store(store);

  bench::banner("Bid-advisory service: determinism, batching, backpressure");
  std::cout << "keys " << store.size() << ", trace " << n_requests << " requests, burst "
            << n_burst << "\n";

  const DeterminismStage determinism = run_determinism_stage(store, n_requests);
  const BatchingStage batching = run_batching_stage(store, n_burst);
  const OverloadStage overload = run_overload_stage(store);
  const ClosedLoopStage closed_loop = run_closed_loop_stage(store, n_requests);
  const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();

  bench::Table table{{"stage", "baseline", "serve path", "factor", "gate"}};
  table.row({"determinism 1 vs " + std::to_string(determinism.workers_many) + " workers",
             bench::fmt("%.4f s", determinism.wall_one_s),
             bench::fmt("%.4f s", determinism.wall_many_s),
             bench::fmt("%.2fx", determinism.wall_many_s > 0.0
                                     ? determinism.wall_one_s / determinism.wall_many_s
                                     : 0.0),
             determinism.responses_identical && determinism.serve_metrics_invariant
                 ? "bit-identical"
                 : "NO"});
  table.row({"service batching x" + std::to_string(batching.requests),
             bench::fmt("%.4f s", batching.pingpong_wall_s),
             bench::fmt("%.4f s", batching.burst_wall_s),
             bench::fmt("%.1fx", batching.service_speedup()),
             batching.batching_wins ? "batch wins" : "NO"});
  table.row({"engine batch tallies", bench::fmt("%.4f s", batching.engine_scalar_wall_s),
             bench::fmt("%.4f s", batching.engine_batch_wall_s),
             bench::fmt("%.1fx", batching.engine_speedup()),
             batching.engine_bit_identical ? "bit-identical" : "NO"});
  table.row({"overload " + std::to_string(overload.submitted) + " into 256",
             std::to_string(overload.accepted) + " accepted",
             std::to_string(overload.rejected) + " rejected", "-",
             overload.conservation_ok && overload.soak_conservation_ok ? "conserved" : "NO"});
  table.print();
  std::cout << "closed loop: " << closed_loop.requests << " requests through "
            << closed_loop.workers << " workers in " << bench::fmt("%.3f s", closed_loop.wall_s)
            << " (" << bench::fmt("%.0f req/s", closed_loop.requests_per_s()) << "), "
            << closed_loop.epochs_observed << " epochs observed across "
            << closed_loop.refresh_rounds << " refresh rounds\n";

  bench::metrics_report("bench_serve");

  write_json(out, determinism, batching, overload, closed_loop, snapshot);
  std::cout << "wrote " << out << "\n";

  const bool ok = determinism.responses_identical && determinism.serve_metrics_invariant &&
                  batching.batching_wins && batching.engine_bit_identical &&
                  overload.conservation_ok && overload.soak_conservation_ok &&
                  closed_loop.all_ok;
  return ok ? 0 : 1;
}
