// Reproduction of Table 3: optimal bid prices for a one-hour job on five
// instance types — one-time requests (Proposition 4), persistent requests
// with t_r = 10 s and t_r = 30 s (Proposition 5), and the "best offline
// price in retrospect" p~ searched over the trailing 10 hours of history.
//
// Also prints Table 2 (the instance catalog) for reference.

#include <iostream>

#include "bench_common.hpp"
#include "spotbid/bidding/strategies.hpp"
#include "spotbid/client/experiment.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/trace/generator.hpp"

namespace {

using namespace spotbid;

void print_table2() {
  bench::banner("Table 2: EC2 instance types (vCPU, GiB, SSD)");
  bench::Table table{{"type", "vCPU", "memory GiB", "storage", "on-demand $/h"}};
  for (const auto& t : ec2::all_types()) {
    table.row({t.name, std::to_string(t.vcpus), bench::fmt("%.1f", t.memory_gib), t.storage,
               bench::fmt("%.3f", t.on_demand.usd())});
  }
  table.print();
}

void reproduce_table3() {
  bench::banner("Table 3: optimal bid prices, t_s = 1 h (USD per instance-hour)");

  const bidding::JobSpec job10{Hours{1.0}, Hours::from_seconds(10.0)};
  const bidding::JobSpec job30{Hours{1.0}, Hours::from_seconds(30.0)};
  const bidding::JobSpec job_ot{Hours{1.0}, Hours{0.0}};

  bench::Table table{{"type", "on-demand", "one-time p*", "persistent p* (10s)",
                      "persistent p* (30s)", "retrospective p~"}};
  for (const auto& type : ec2::experiment_types()) {
    trace::GeneratorConfig generator;
    generator.seed = 2015;
    const auto history = trace::generate_for_type(type, generator);
    const auto model = bidding::SpotPriceModel::from_trace(history, type.on_demand);

    const auto one_time = bidding::one_time_bid(model, job_ot);
    const auto p10 = bidding::persistent_bid(model, job10);
    const auto p30 = bidding::persistent_bid(model, job30);
    const auto retro = bidding::retrospective_best_bid(history, Hours{10.0}, Hours{1.0});

    table.row({type.name, bench::fmt("%.3f", type.on_demand.usd()),
               bench::fmt("%.4f", one_time.bid.usd()), bench::fmt("%.4f", p10.bid.usd()),
               bench::fmt("%.4f", p30.bid.usd()),
               retro ? bench::fmt("%.4f", retro->usd()) : "n/a"});
  }
  table.print();
  std::cout << "\nShape checks (as in the paper): persistent bids sit below one-time bids;\n"
               "t_r = 30 s bids exceed t_r = 10 s bids; the retrospective price can dip\n"
               "below the safe one-time bid (10 h of history is not enough).\n";
}

}  // namespace

void spotbid::bench::table3_optimal_bids() {
  print_table2();
  reproduce_table3();
}
