// Reproduction of Figure 6: percentage difference between persistent and
// one-time requests in (a) price charged per hour, (b) completion time,
// (c) total job cost — for t_r = 10 s and 30 s and for the 90th-percentile
// heuristic bid, across the five experiment types.
//
// Paper shape: persistent bids are LOWER (a < 0), completion times are
// LONGER (b > 0), and total costs come out LOWER (c < 0); t_r = 30 s bids
// are higher than t_r = 10 s ones and finish sooner but cost slightly
// more. The 90th-percentile heuristic saves less than the optimum.

#include <iostream>
#include <iterator>

#include "bench_common.hpp"
#include "spotbid/client/experiment.hpp"
#include "spotbid/core/parallel.hpp"

namespace {

using namespace spotbid;

struct Cell {
  double price_diff = 0.0;
  double completion_diff = 0.0;
  double cost_diff = 0.0;
};

Cell relative_to(const client::AveragedOutcome& base, const client::AveragedOutcome& x) {
  // (a) uses the analytic per-hour payment E[pi | pi <= bid]: the measured
  // one has huge variance across ten short runs (and the paper's own bars
  // are small single-digit percentages).
  return {x.expected_hourly_price_usd / base.expected_hourly_price_usd - 1.0,
          x.avg_completion_h / base.avg_completion_h - 1.0,
          x.avg_cost_usd / base.avg_cost_usd - 1.0};
}

void reproduce_figure6() {
  bench::banner(
      "Figure 6: persistent vs one-time requests, % difference (t_s = 1 h, 10 reps)");

  client::ExperimentConfig config;
  config.repetitions = 10;
  config.seed = 66;

  bench::Table table{{"type", "series", "(a) price/h", "(b) completion", "(c) total cost"}};
  // The sweep is a flat grid of independent (type, strategy) experiment
  // cells; fan the whole grid out on the parallel engine and assemble the
  // comparison rows afterwards in catalog order.
  const auto& types = ec2::experiment_types();
  const bidding::JobSpec job00{Hours{1.0}, Hours{0.0}};
  const bidding::JobSpec job10{Hours{1.0}, Hours::from_seconds(10.0)};
  const bidding::JobSpec job30{Hours{1.0}, Hours::from_seconds(30.0)};
  struct GridCell {
    const bidding::JobSpec* job;
    client::StrategyKind strategy;
  };
  const GridCell cells[] = {{&job00, client::StrategyKind::kOneTime},
                            {&job10, client::StrategyKind::kPersistent},
                            {&job30, client::StrategyKind::kPersistent},
                            {&job30, client::StrategyKind::kPercentile90}};
  const std::size_t kCells = std::size(cells);
  const auto grid = core::parallel_map(types.size() * kCells, [&](std::size_t at) {
    const auto& cell = cells[at % kCells];
    return client::run_single_instance_experiment(types[at / kCells], *cell.job,
                                                  cell.strategy, config);
  });
  for (std::size_t i = 0; i < types.size(); ++i) {
    const auto& one_time = grid[i * kCells + 0];
    const auto c10 = relative_to(one_time, grid[i * kCells + 1]);
    const auto c30 = relative_to(one_time, grid[i * kCells + 2]);
    const auto c90 = relative_to(one_time, grid[i * kCells + 3]);
    table.row({types[i].name, "persistent t_r=10s", bench::percent(c10.price_diff),
               bench::percent(c10.completion_diff), bench::percent(c10.cost_diff)});
    table.row({"", "persistent t_r=30s", bench::percent(c30.price_diff),
               bench::percent(c30.completion_diff), bench::percent(c30.cost_diff)});
    table.row({"", "90th percentile", bench::percent(c90.price_diff),
               bench::percent(c90.completion_diff), bench::percent(c90.cost_diff)});
  }
  table.print();
  std::cout
      << "\nExpected shape (paper): column (a) negative for optimal persistent bids\n"
         "(they bid lower than one-time), column (b) positive (longer completion),\n"
         "column (c) negative (lower final cost); the 90th-percentile heuristic\n"
         "yields a smaller cost reduction than the Proposition-5 optimum.\n";
}

}  // namespace

void spotbid::bench::fig6_persistent_vs_onetime() { reproduce_figure6(); }
