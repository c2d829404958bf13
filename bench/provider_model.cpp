// Validation bench for Section 4's provider model (no figure in the paper,
// but the analysis behind Propositions 1-3):
//   - eq. 3 closed form vs direct numeric maximization of eq. 1;
//   - Proposition 1: conditional Lyapunov drift sign and the empirical
//     boundedness of the queue under stochastic arrivals;
//   - Proposition 2: convergence of the demand recursion to the fixed
//     point and the equilibrium price map.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "spotbid/dist/pareto.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/numeric/stats.hpp"
#include "spotbid/provider/calibration.hpp"
#include "spotbid/provider/queue.hpp"

namespace {

using namespace spotbid;

void closed_form_check() {
  bench::banner("eq. 3 closed form vs numeric maximization of eq. 1");
  const provider::ProviderModel m{Money{0.35}, Money{0.0315}, 0.595, 0.02};
  bench::Table table{{"demand L", "pi* closed form", "pi* numeric", "|diff|"}};
  for (double demand : {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    const double a = m.optimal_price(demand).usd();
    const double b = m.optimal_price_numeric(demand).usd();
    table.row({bench::fmt("%g", demand), bench::fmt("%.6f", a), bench::fmt("%.6f", b),
               bench::fmt("%.2e", std::abs(a - b))});
  }
  table.print();
}

void stability_check() {
  bench::banner("Propositions 1-2: queue stability and equilibrium");
  const auto& type = ec2::require_type("m3.xlarge");
  const auto m = provider::calibrated_model(type);
  const auto arrivals = provider::calibrated_arrivals(type);

  const double lm = arrivals->mean();
  const double lv = arrivals->variance();
  const double threshold = provider::drift_negative_threshold(m, lm, lv);
  const double eq_demand = m.equilibrium_demand(lm);

  std::cout << "arrival process: " << arrivals->name() << "\n";
  std::cout << "equilibrium demand L* = " << bench::fmt("%.3f", eq_demand)
            << ", drift-negative above L0 = " << bench::fmt("%.3f", threshold) << "\n";

  bench::Table table{{"demand L", "E[drift | L]", "sign"}};
  for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const double demand = threshold * mult;
    const double drift = provider::conditional_drift(m, demand, lm, lv);
    table.row({bench::fmt("%.3f", demand), bench::fmt("%.4g", drift),
               drift < 0 ? "stable (-)" : "growing (+)"});
  }
  table.print();

  // Empirical boundedness: run the recursion for two simulated months.
  numeric::Rng rng{1};
  provider::QueueSimulator queue{m, 1.0};
  queue.run(*arrivals, 17568, rng);
  std::cout << "two-month simulation: time-averaged demand "
            << bench::fmt("%.3f", queue.average_demand()) << " (bounded, ~L* as predicted)\n";
}

}  // namespace

void spotbid::bench::provider_model() {
  closed_form_check();
  stability_check();
}
