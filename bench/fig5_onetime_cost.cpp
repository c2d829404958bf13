// Reproduction of Figure 5: the cost of a one-hour job under one-time spot
// requests vs on-demand, per instance type — expected (analytic) cost,
// measured cost over twenty repetitions, and the retrospective-best-price
// baseline. The paper reports up to 91% savings, with the analytic
// predictions closely matching the measurements, and no interruptions.

#include <iostream>

#include "bench_common.hpp"
#include "spotbid/client/experiment.hpp"
#include "spotbid/core/parallel.hpp"
#include "spotbid/trace/generator.hpp"

namespace {

using namespace spotbid;

void reproduce_figure5() {
  bench::banner("Figure 5: one-time spot vs on-demand cost (t_s = 1 h, 20 repetitions)");

  const bidding::JobSpec job{Hours{1.0}, Hours{0.0}};
  client::ExperimentConfig config;
  config.repetitions = 20;  // paper used 10; more reps tighten the averages
  config.seed = 55;

  bench::Table table{{"type", "on-demand cost", "bid p*", "expected cost", "measured cost",
                      "savings", "fallbacks/20"}};
  double worst_savings = 1.0;
  double best_savings = 0.0;
  // One cell per instance type, swept on the parallel engine; rows render
  // afterwards in catalog order, so the table is thread-count-invariant.
  const auto& types = ec2::experiment_types();
  const auto outcomes = core::parallel_map(types.size(), [&](std::size_t i) {
    return client::run_single_instance_experiment(types[i], job,
                                                  client::StrategyKind::kOneTime, config);
  });
  for (std::size_t i = 0; i < types.size(); ++i) {
    const auto& type = types[i];
    const auto& outcome = outcomes[i];
    const double on_demand = type.on_demand.usd();
    const double savings = 1.0 - outcome.avg_cost_usd / on_demand;
    worst_savings = std::min(worst_savings, savings);
    best_savings = std::max(best_savings, savings);
    table.row({type.name, bench::usd(on_demand), bench::usd(outcome.bid.usd()),
               bench::usd(outcome.expected_cost_usd), bench::usd(outcome.avg_cost_usd),
               bench::fmt("%.1f%%", 100.0 * savings), std::to_string(outcome.spot_failures)});
  }
  table.print();
  std::cout << "\nPaper: one-time requests reduce cost by up to 91% vs on-demand with no\n"
               "interruptions; analytic expectations closely match measurements.\n"
            << "Ours: savings between " << bench::fmt("%.1f%%", 100.0 * worst_savings) << " and "
            << bench::fmt("%.1f%%", 100.0 * best_savings) << ".\n";
}

}  // namespace

void spotbid::bench::fig5_onetime_cost() { reproduce_figure5(); }
