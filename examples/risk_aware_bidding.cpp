// Section-8 extensions walkthrough: risk-averse bidding in practice.
//
// A user with a 4-hour job explores three postures on r3.xlarge:
//   - the plain Proposition-5 cost-optimal bid;
//   - a variance-capped bid (tolerate at most half the optimal bid's cost
//     standard deviation);
//   - a deadline bid (finish within 5 hours with 98% probability);
// and, knowing the market is sticky, re-plans with the correlation-aware
// strategy.
//
// Usage: risk_aware_bidding [instance-type] [execution-hours]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "spotbid/spotbid.hpp"

int main(int argc, char** argv) {
  using namespace spotbid;

  const std::string type_name = argc > 1 ? argv[1] : "r3.xlarge";
  const double hours = argc > 2 ? std::atof(argv[2]) : 4.0;
  const auto type = ec2::find_type(type_name);
  if (!type || !(hours > 0.02)) {
    std::fprintf(stderr, "usage: risk_aware_bidding [instance-type] [execution-hours]\n");
    return 1;
  }

  const auto model = bidding::SpotPriceModel::from_type(*type);
  const bidding::JobSpec job{Hours{hours}, Hours::from_seconds(30.0)};

  std::printf("risk-aware bidding on %s, t_s = %.1f h (on-demand $%.3f/h)\n\n",
              type->name.c_str(), hours, type->on_demand.usd());

  // 1. Cost-optimal baseline.
  const auto base = bidding::persistent_bid(model, job);
  const double base_sd =
      std::sqrt(bidding::persistent_cost_variance(model, base.bid, job));
  std::printf("cost-optimal (Prop. 5):  bid $%.4f  E[cost] $%.4f  sd $%.5f  "
              "E[completion] %.2f h\n",
              base.bid.usd(), base.expected_cost.usd(), base_sd,
              base.expected_completion.hours());

  // 2. Variance-capped: halve the standard deviation.
  const double cap = 0.25 * base_sd * base_sd;  // (sd/2)^2
  const auto safe = bidding::variance_constrained_bid(model, job, cap);
  const double safe_sd = safe.use_on_demand
                             ? 0.0
                             : std::sqrt(bidding::persistent_cost_variance(model, safe.bid, job));
  char safe_bid[32] = "(on-demand)";
  if (!safe.use_on_demand) std::snprintf(safe_bid, sizeof safe_bid, "$%f", safe.bid.usd());
  std::printf("variance-capped:         bid %s  E[cost] $%.4f  sd $%.5f  "
              "E[completion] %.2f h\n",
              safe_bid, safe.expected_cost.usd(), safe_sd, safe.expected_completion.hours());

  // 3. Deadline: t_s + 1 h with 98% confidence.
  const Hours deadline{hours + 1.0};
  if (const auto dl = bidding::deadline_constrained_bid(model, job, deadline, 0.02)) {
    const double miss = bidding::deadline_miss_probability(model, dl->bid, job, deadline);
    std::printf("deadline %.1f h @ 98%%:    bid $%.4f  E[cost] $%.4f  P(miss) %.3f\n",
                deadline.hours(), dl->bid.usd(), dl->expected_cost.usd(), miss);
  } else {
    std::printf("deadline %.1f h @ 98%%:    infeasible on spot — use on-demand\n",
                deadline.hours());
  }

  // 4. Correlation-aware re-plan: estimate stickiness from history first.
  const auto history = trace::generate_for_type(*type);
  const double rho = bidding::estimate_persistence(history);
  const auto sticky = bidding::sticky_persistent_bid(model, job, rho);
  std::printf("\nestimated price stickiness rho = %.3f\n", rho);
  std::printf("correlation-aware bid:   bid $%.4f  E[cost] $%.4f  "
              "E[interruptions] %.2f (i.i.d. formula would predict %.2f)\n",
              sticky.bid.usd(), sticky.expected_cost.usd(), sticky.expected_interruptions,
              bidding::persistent_expected_interruptions(model, sticky.bid, job));

  // 5. Validate the sticky plan with one measured run.
  market::SpotMarket market{std::make_unique<market::ModelPriceSource>(
      model.distribution_ptr(), model.slot_length(), 99, type->market.persistence)};
  const auto run = client::run_persistent(market, sticky.bid, job);
  std::printf("\nmeasured run at the sticky bid: cost $%.4f, completion %.2f h, "
              "%d interruption(s)  ->  %.1f%% below on-demand\n",
              run.cost.usd(), run.completion_time.hours(), run.interruptions,
              100.0 * (1.0 - run.cost.usd() / (type->on_demand.usd() * hours)));
  return 0;
}
