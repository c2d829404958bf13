// Reproduction of Figure 4: a sample path of spot prices for an r3.xlarge
// instance over one day with the user's persistent bid drawn across it —
// the job runs while the bid clears the price, idles otherwise, and pays
// t_r of recovery after each interruption, so the busy time decomposes as
// T F(p) = (number of interruptions) * t_r + t_s.

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "spotbid/bidding/strategies.hpp"
#include "spotbid/client/job_runner.hpp"
#include "spotbid/core/parallel.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/market/price_source.hpp"
#include "spotbid/trace/generator.hpp"

namespace {

using namespace spotbid;

void reproduce_figure4() {
  bench::banner("Figure 4: job running times vs the spot price (r3.xlarge, one day)");

  const auto& type = ec2::require_type("r3.xlarge");

  // The user's job: 6 hours of work, 1-minute recovery.
  const bidding::JobSpec job{Hours{6.0}, Hours::from_minutes(1.0)};

  // The paper's figure shows a day with exactly two interruptions; scan
  // seeded days (starting from 909, for 2014-09-09) for one that replays
  // that way under the Proposition-5 bid. The candidate seeds are
  // independent, so the scan fans out over the parallel layer; taking the
  // first match in seed order keeps the chosen day identical to the old
  // serial scan for any thread count.
  trace::GeneratorConfig config;
  config.slots = 288 * 2;  // two days, enough to finish with idle periods
  trace::PriceTrace day{"r3.xlarge", 0, trace::kDefaultSlotLength, {0.0, 0.0}};
  bidding::BidDecision decision;

  struct Candidate {
    bool matches = false;
    trace::PriceTrace trace{"", 0, trace::kDefaultSlotLength, {0.0, 0.0}};
    bidding::BidDecision decision;
  };
  const auto candidates = core::parallel_map(200, [&](std::size_t offset) {
    trace::GeneratorConfig scan = config;
    scan.seed = 909 + offset;
    Candidate c;
    c.trace = trace::generate_for_type(type, scan);
    const auto model = bidding::SpotPriceModel::from_trace(c.trace, type.on_demand);
    c.decision = bidding::persistent_bid(model, job);
    market::SpotMarket probe{std::make_unique<market::TracePriceSource>(c.trace, true)};
    const auto run = client::run_persistent(probe, c.decision.bid, job);
    c.matches = run.completed && run.interruptions == 2;
    return c;
  });
  const auto hit = std::find_if(candidates.begin(), candidates.end(),
                                [](const Candidate& c) { return c.matches; });
  if (hit == candidates.end()) {
    std::cout << "no two-interruption day found in the seed scan\n";
    return;
  }
  day = hit->trace;
  decision = hit->decision;

  std::cout << "bid price p = " << bench::usd(decision.bid.usd())
            << "   (paper's example: $0.0323)\n\n";

  // Render the price path as run/idle segments relative to the bid.
  std::cout << "segments (slot ranges at 5-minute slots):\n";
  bool running = false;
  SlotIndex seg_start = 0;
  double seg_price_lo = 1e9;
  double seg_price_hi = 0.0;
  const auto flush = [&](SlotIndex end) {
    std::printf("  [%4ld, %4ld)  %-7s  price in [%.4f, %.4f]\n", seg_start, end,
                running ? "RUN" : "idle", seg_price_lo, seg_price_hi);
  };
  for (SlotIndex i = 0; i < static_cast<SlotIndex>(day.size()); ++i) {
    const double price = day.price_at(i).usd();
    const bool now_running = decision.bid.usd() >= price;
    if (i == 0) {
      running = now_running;
    } else if (now_running != running) {
      flush(i);
      running = now_running;
      seg_start = i;
      seg_price_lo = 1e9;
      seg_price_hi = 0.0;
    }
    seg_price_lo = std::min(seg_price_lo, price);
    seg_price_hi = std::max(seg_price_hi, price);
  }
  flush(static_cast<SlotIndex>(day.size()));

  // Execute the job on a replay of the same day and verify the identity.
  market::SpotMarket market{std::make_unique<market::TracePriceSource>(day, /*wrap=*/true)};
  const auto run = client::run_persistent(market, decision.bid, job);

  std::cout << "\nmeasured: completion " << bench::hours(run.completion_time.hours())
            << ", busy " << bench::hours(run.running_time.hours()) << ", interruptions "
            << run.interruptions << "\n";
  const double identity =
      job.execution_time.hours() + run.interruptions * job.recovery_time.hours();
  std::cout << "identity check:  T*F(p) = k*t_r + t_s  ->  " << bench::hours(identity)
            << " expected vs " << bench::hours(run.running_time.hours())
            << " measured (within one slot)\n";
}

}  // namespace

void spotbid::bench::fig4_running_time() { reproduce_figure4(); }
