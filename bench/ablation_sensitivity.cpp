// Ablation bench: sensitivity of the optimal bids and costs to the design
// choices DESIGN.md calls out —
//   (1) the arrival-family choice (Pareto vs exponential vs log-normal)
//       behind the client's price model;
//   (2) the recovery time t_r (the job-interruptibility axis of Section 5);
//   (3) the market calibration: floor mass and price stickiness, which the
//       paper's real traces fix implicitly and our simulator parameterizes;
//   (4) slave-count M for the parallel strategy (eq. 18's speedup curve).

#include <cmath>
#include <iostream>
#include <iterator>
#include <memory>

#include "bench_common.hpp"
#include "spotbid/bidding/strategies.hpp"
#include "spotbid/client/experiment.hpp"
#include "spotbid/core/parallel.hpp"
#include "spotbid/dist/exponential.hpp"
#include "spotbid/dist/lognormal.hpp"
#include "spotbid/dist/pareto.hpp"
#include "spotbid/provider/calibration.hpp"
#include "spotbid/provider/price_distribution.hpp"

namespace {

using namespace spotbid;

void arrival_family_ablation() {
  bench::banner("Ablation 1: arrival family -> optimal bids (r3.xlarge)");
  const auto& type = ec2::require_type("r3.xlarge");
  const auto model = provider::calibrated_model(type);
  const double lambda_min = model.lambda_min();

  struct Family {
    const char* label;
    dist::DistributionPtr arrivals;
  };
  // Matched to put comparable mass below Lambda_min (the floor atom).
  const Family families[] = {
      {"Pareto(5, matched)", provider::calibrated_arrivals(type)},
      {"Exponential(eta=Lambda_min/ln5)",
       std::make_shared<dist::Exponential>(lambda_min / std::log(5.0))},
      {"LogNormal(matched median)",
       std::make_shared<dist::LogNormal>(std::log(lambda_min) + 0.35, 0.6)},
  };

  const bidding::JobSpec job{Hours{1.0}, Hours::from_seconds(30.0)};
  bench::Table table{{"arrival family", "floor atom", "one-time p*", "persistent p*",
                      "persistent E[cost]"}};
  for (const auto& family : families) {
    auto price = std::make_shared<provider::EquilibriumPriceDistribution>(model, family.arrivals);
    const double atom = price->floor_atom();
    const bidding::SpotPriceModel spm{price, type.on_demand, trace::kDefaultSlotLength};
    const auto ot = bidding::one_time_bid(spm, job);
    const auto pe = bidding::persistent_bid(spm, job);
    table.row({family.label, bench::fmt("%.2f", atom), bench::usd(ot.bid.usd()),
               bench::usd(pe.bid.usd()), bench::usd(pe.expected_cost.usd())});
  }
  table.print();
  std::cout << "Takeaway: bids move by only a few cents across families with matched\n"
               "floor mass — the strategies depend on the price CDF, not the family.\n";
}

void recovery_time_ablation() {
  bench::banner("Ablation 2: recovery time t_r -> persistent bid and cost (r3.xlarge)");
  const auto model = bidding::SpotPriceModel::from_type(ec2::require_type("r3.xlarge"));
  bench::Table table{{"t_r", "p*", "F(p*)", "E[completion]", "E[cost]", "E[interruptions]"}};
  for (double tr_s : {1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 240.0}) {
    const bidding::JobSpec job{Hours{1.0}, Hours::from_seconds(tr_s)};
    const auto d = bidding::persistent_bid(model, job);
    table.row({bench::fmt("%gs", tr_s), bench::usd(d.bid.usd()),
               bench::fmt("%.3f", d.acceptance), bench::hours(d.expected_completion.hours()),
               bench::usd(d.expected_cost.usd()),
               bench::fmt("%.2f", d.expected_interruptions)});
  }
  table.print();
  std::cout << "Takeaway: p* increases with t_r (Prop. 5: psi^{-1}(t_k/t_r - 1)); cost\n"
               "rises with t_r while completion falls (higher bids idle less).\n";
}

void calibration_ablation() {
  bench::banner("Ablation 3: floor mass & stickiness -> measured one-time outcome");
  bidding::JobSpec job{Hours{1.0}, Hours{0.0}};
  client::ExperimentConfig config;
  config.repetitions = 10;
  config.history_slots = 8000;

  bench::Table table{{"floor mass", "persistence", "measured cost", "fallbacks/10"}};
  // 2 x 3 calibration grid, one independent experiment per cell; sweep on
  // the parallel engine and emit rows in grid order.
  const double floor_masses[] = {0.5, 0.8};
  const double persistences[] = {0.0, 0.9, 0.98};
  const std::size_t kCols = std::size(persistences);
  const auto grid = core::parallel_map(std::size(floor_masses) * kCols, [&](std::size_t at) {
    auto type = ec2::require_type("r3.xlarge");
    type.market.floor_mass = floor_masses[at / kCols];
    type.market.persistence = persistences[at % kCols];
    return client::run_single_instance_experiment(type, job, client::StrategyKind::kOneTime,
                                                  config);
  });
  for (std::size_t at = 0; at < std::size(floor_masses) * kCols; ++at) {
    table.row({bench::fmt("%.2f", floor_masses[at / kCols]),
               bench::fmt("%.2f", persistences[at % kCols]),
               bench::usd(grid[at].avg_cost_usd), std::to_string(grid[at].spot_failures)});
  }
  table.print();
  std::cout << "Takeaway: with i.i.d. prices (persistence 0) most Proposition-4 one-time\n"
               "runs are interrupted and fall back to on-demand; sticky prices (the real\n"
               "2014 regime) are what make the paper's 'never interrupted' result hold.\n";
}

void node_count_ablation() {
  bench::banner("Ablation 4: slave count M -> completion and cost (c3.4xlarge slaves)");
  const auto model = bidding::SpotPriceModel::from_type(ec2::require_type("c3.4xlarge"));
  bench::Table table{{"M", "E[completion]", "E[cost]", "speedup vs M=1"}};
  double base = 0.0;
  for (int nodes : {1, 2, 3, 4, 6, 8, 16}) {
    bidding::ParallelJobSpec job;
    job.execution_time = Hours{1.0};
    job.recovery_time = Hours::from_seconds(30.0);
    job.overhead_time = Hours::from_seconds(60.0);
    job.nodes = nodes;
    const auto d = bidding::parallel_bid(model, job);
    if (nodes == 1) base = d.expected_completion.hours();
    table.row({std::to_string(nodes), bench::hours(d.expected_completion.hours()),
               bench::usd(d.expected_cost.usd()),
               bench::fmt("%.2fx", base / d.expected_completion.hours())});
  }
  table.print();
  std::cout << "Takeaway: near-linear speedup while t_o stays small (eq. 18); total cost\n"
               "DECREASES slightly with M because each split avoids (M-1) t_r of\n"
               "re-execution (the paper's t_o < (M-1) t_r condition).\n";
}

}  // namespace

void spotbid::bench::ablation_sensitivity() {
  arrival_family_ablation();
  recovery_time_ablation();
  calibration_ablation();
  node_count_ablation();
}
