// Serving-layer walkthrough: stand up the in-process bid-advisory service
// (docs/SERVE.md) on calibrated models for a handful of markets, let a
// background Recalibrator republish fresh snapshots while requests are in
// flight, and answer one request of every kind — the eq.-8 run length, the
// eq.-10/15 expected costs, eq.-13/14 feasibility, the Proposition-4/5
// optimal bids, and the provider-side eq.-3 price.
//
// Usage: bid_service [instance-type] [execution-hours]
//        (defaults: r3.xlarge 4.0)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "spotbid/spotbid.hpp"

namespace {

using namespace spotbid;

void print_response(const serve::Request& q, const serve::Response& r) {
  std::printf("%-24s %-9s epoch %-3llu ", serve::kind_name(q.kind).data(),
              serve::status_name(r.status).data(),
              static_cast<unsigned long long>(r.epoch));
  if (r.status != serve::Status::kOk) {
    std::printf("\n");
    return;
  }
  switch (q.kind) {
    case serve::Kind::kOptimalBid:
      std::printf("bid $%.4f  cost $%.4f  completion %.2f h%s\n", r.bid.usd(),
                  r.expected_cost.usd(), r.expected_hours.hours(),
                  r.use_on_demand ? "  (on-demand wins)" : "");
      break;
    case serve::Kind::kExpectedCost:
      std::printf("cost $%.4f over %.2f h at acceptance %.3f\n", r.expected_cost.usd(),
                  r.expected_hours.hours(), r.acceptance);
      break;
    case serve::Kind::kRunLength:
      std::printf("expected uninterrupted run %.2f h (F = %.3f)\n", r.expected_hours.hours(),
                  r.acceptance);
      break;
    case serve::Kind::kPersistentFeasibility:
      std::printf("%s (busy time %.2f h)\n", r.feasible ? "feasible" : "INFEASIBLE",
                  r.expected_hours.hours());
      break;
    case serve::Kind::kProviderPrice:
      std::printf("spot price $%.4f\n", r.price.usd());
      break;
    case serve::Kind::kPortfolioBid:
      std::printf("cost $%.4f  violation %.4f  %d tranche(s) + %.0f%% on-demand @ $%.4f\n",
                  r.expected_cost.usd(), r.violation, static_cast<int>(r.level_count),
                  100.0 * r.on_demand_share, r.price.usd());
      for (int k = 0; k < static_cast<int>(r.level_count); ++k)
        std::printf("%46s tranche %d: bid $%.4f for %.0f%% of the work\n", "", k + 1,
                    r.levels[static_cast<std::size_t>(k)].bid.usd(),
                    100.0 * r.levels[static_cast<std::size_t>(k)].share);
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string type_name = argc > 1 ? argv[1] : "r3.xlarge";
  const double execution_hours = argc > 2 ? std::atof(argv[2]) : 4.0;
  const auto type = ec2::find_type(type_name);
  if (!type) {
    std::fprintf(stderr, "unknown instance type '%s'\n", type_name.c_str());
    return 1;
  }

  // 1. Seed the store: an empirical-law snapshot for the requested type in
  //    us-east-1 (two weeks of generated history) and analytic snapshots
  //    for two other markets. Keys are "region/instance-type".
  serve::SnapshotStore store;
  const std::string hot_key = serve::make_key("us-east-1", type->name);
  trace::GeneratorConfig config;
  config.slots = 12 * 24 * 14;
  const trace::PriceTrace history = trace::generate_for_type(*type, config);
  store.publish(serve::ModelSnapshot::from_trace(hot_key, history, *type));
  store.publish(serve::ModelSnapshot::from_type(serve::make_key("us-west-2", "m3.xlarge"),
                                                ec2::require_type("m3.xlarge")));
  store.publish(serve::ModelSnapshot::from_type(serve::make_key("eu-west-1", "c3.4xlarge"),
                                                ec2::require_type("c3.4xlarge")));
  std::printf("store: %zu keys, epoch %llu\n", store.size(),
              static_cast<unsigned long long>(store.current_epoch()));

  // 2. Background control plane: republish the hot key every 250 ms, as a
  //    live deployment would after ingesting fresh price history. Readers
  //    never block; in-flight requests keep the snapshot they resolved.
  serve::Recalibrator recalibrator{store, std::chrono::milliseconds{250}};
  recalibrator.add_source(
      [&] { return serve::ModelSnapshot::from_trace(hot_key, history, *type); });
  recalibrator.start();

  // 3. The service: a worker pool draining a bounded queue, grouping each
  //    tick's same-key requests behind one snapshot lookup.
  serve::BidService service{store, serve::ServiceConfig{.workers = 2}};

  const bidding::JobSpec job{Hours{execution_hours}, Hours::from_seconds(30.0)};
  std::vector<serve::Request> requests;
  for (const serve::Kind kind :
       {serve::Kind::kOptimalBid, serve::Kind::kExpectedCost, serve::Kind::kRunLength,
        serve::Kind::kPersistentFeasibility, serve::Kind::kProviderPrice}) {
    serve::Request q;
    q.key = hot_key;
    q.kind = kind;
    q.mode = serve::BidMode::kPersistent;
    q.bid = Money{type->min_price().usd() * 1.5};
    q.job = job;
    q.demand = 8.0;
    requests.push_back(std::move(q));
  }
  // A deadline-guarantee portfolio (docs/PORTFOLIO.md): finish within
  // 3x the execution time with 95% confidence, up to 4 spot tranches.
  serve::Request folio;
  folio.key = hot_key;
  folio.kind = serve::Kind::kPortfolioBid;
  folio.mode = serve::BidMode::kPersistent;
  folio.job = job;
  folio.deadline = Hours{execution_hours * 3.0};
  folio.epsilon = 0.05;
  folio.levels = 4;
  requests.push_back(folio);
  // One cross-market request: the Proposition-4 one-time bid elsewhere.
  serve::Request west;
  west.key = serve::make_key("us-west-2", "m3.xlarge");
  west.kind = serve::Kind::kOptimalBid;
  west.mode = serve::BidMode::kOneTime;
  west.job = job;
  requests.push_back(west);

  std::printf("\n%s, %.1f h job, bid $%.4f:\n\n", hot_key.c_str(), execution_hours,
              type->min_price().usd() * 1.5);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(requests.size());
  for (const serve::Request& q : requests) futures.push_back(service.submit(q));
  for (std::size_t i = 0; i < requests.size(); ++i) print_response(requests[i], futures[i].get());

  service.stop();
  recalibrator.stop();
  std::printf("\naccepted %llu, rejected %llu, final epoch %llu after %llu refresh rounds\n",
              static_cast<unsigned long long>(service.accepted()),
              static_cast<unsigned long long>(service.rejected()),
              static_cast<unsigned long long>(store.current_epoch()),
              static_cast<unsigned long long>(recalibrator.rounds()));
  return 0;
}
