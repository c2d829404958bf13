// Reproduction of Figure 7: MapReduce completion time (a) and cost (b) on
// spot vs on-demand instances across the five client settings. The paper:
// "MapReduce jobs can save about 90% of user cost but have a 15% longer
// completion time on spot compared to on-demand instances", with analytic
// results closely matching measurements.

#include <iostream>

#include "bench_common.hpp"
#include "spotbid/client/experiment.hpp"
#include "spotbid/core/parallel.hpp"

namespace {

using namespace spotbid;

void reproduce_figure7() {
  bench::banner("Figure 7: MapReduce on spot vs on-demand (t_s = 4 h, 10 repetitions)");

  bidding::ParallelJobSpec job;
  job.execution_time = Hours{4.0};
  job.recovery_time = Hours::from_seconds(30.0);
  job.overhead_time = Hours::from_seconds(60.0);

  client::ExperimentConfig config;
  config.repetitions = 10;
  config.seed = 77;

  bench::Table table{{"setting", "(a) od completion", "(a) spot completion", "slowdown",
                      "(b) od cost", "(b) spot cost (expected)", "(b) spot cost (measured)",
                      "savings"}};
  double total_savings = 0.0;
  double total_slowdown = 0.0;
  // One independent cluster experiment per client setting; sweep them on
  // the parallel engine, then render rows in setting order.
  const auto& settings = ec2::mapreduce_settings();
  const auto outcomes = core::parallel_map(settings.size(), [&](std::size_t i) {
    return client::run_mapreduce_experiment(settings[i], job, config);
  });
  for (std::size_t i = 0; i < settings.size(); ++i) {
    const auto& setting = settings[i];
    const auto& outcome = outcomes[i];
    const auto& plan = outcome.plan;
    const double slowdown =
        outcome.avg_completion_h / plan.on_demand_completion.hours() - 1.0;
    const double savings = 1.0 - outcome.avg_cost_usd / plan.on_demand_cost.usd();
    total_savings += savings;
    total_slowdown += slowdown;
    table.row({setting.label, bench::hours(plan.on_demand_completion.hours()),
               bench::hours(outcome.avg_completion_h), bench::percent(slowdown),
               bench::usd(plan.on_demand_cost.usd()),
               bench::usd(plan.expected_total_cost.usd()), bench::usd(outcome.avg_cost_usd),
               bench::fmt("%.1f%%", 100.0 * savings)});
  }
  table.print();
  std::cout << "\nPaper: ~90% cost savings (up to 92.6%) with ~15% longer completion.\n"
            << "Ours: average savings " << bench::fmt("%.1f%%", 100.0 * total_savings / 5.0)
            << ", average slowdown " << bench::fmt("%.1f%%", 100.0 * total_slowdown / 5.0)
            << " (short jobs on sticky prices occasionally wait out a price spike,\n"
               " which inflates the measured tail relative to the paper's runs).\n";
}

}  // namespace

void spotbid::bench::fig7_mapreduce() { reproduce_figure7(); }
