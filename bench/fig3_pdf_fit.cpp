// Reproduction of Figure 3: fitting the spot-price PDF of four instance
// types by assuming Pareto and exponential distributions for the arrival
// process Lambda(t), plus the Section-4.3 day/night Kolmogorov-Smirnov
// check. The paper reports MSE < 1e-6 for both families and K-S p > 0.01.
//
// Protocol (mirrors Section 4.3 against our synthetic two-month history):
//   1. generate a two-month trace per type from its calibrated model;
//   2. histogram the prices (the "empirical PDF", atom at the floor
//      included);
//   3. fit the Proposition-3 price law induced by each arrival family,
//      minimizing the least-squares divergence over the family parameters;
//   4. report fitted parameters, MSE, and the day/night K-S p-value.

#include <cmath>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "spotbid/dist/exponential.hpp"
#include "spotbid/dist/fit.hpp"
#include "spotbid/dist/pareto.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/provider/calibration.hpp"
#include "spotbid/provider/price_distribution.hpp"
#include "spotbid/trace/generator.hpp"
#include "spotbid/trace/statistics.hpp"

namespace {

using namespace spotbid;

/// Family adapter: params -> price density at x for the Pareto arrivals.
/// The floor atom is spread over the histogram's first bin, matching where
/// the empirical histogram accumulates it.
dist::PdfFamily pareto_family(const provider::ProviderModel& model, double bin_width,
                              double floor_price) {
  return [model, bin_width, floor_price](const std::vector<double>& params, double x) {
    const double alpha = params[0];
    const double xm = params[1];
    if (!(alpha > 0.5) || !(xm > 0.0)) return 1e9;
    const provider::EquilibriumPriceDistribution price{
        model, std::make_shared<dist::Pareto>(alpha, xm)};
    double density = price.pdf(x);
    if (std::abs(x - floor_price) < 0.5 * bin_width)
      density += price.floor_atom() / bin_width;
    return density;
  };
}

/// Family adapter for (shifted) exponential arrivals: params (eta, shift).
/// The shift decouples the floor atom from the tail decay, which a pure
/// exponential cannot do.
dist::PdfFamily exponential_family(const provider::ProviderModel& model, double bin_width,
                                   double floor_price) {
  return [model, bin_width, floor_price](const std::vector<double>& params, double x) {
    const double eta = params[0];
    const double shift = params[1];
    if (!(eta > 0.0) || shift < 0.0) return 1e9;
    const provider::EquilibriumPriceDistribution price{
        model, std::make_shared<dist::Exponential>(eta, shift)};
    double density = price.pdf(x);
    if (std::abs(x - floor_price) < 0.5 * bin_width)
      density += price.floor_atom() / bin_width;
    return density;
  };
}

/// MSE normalized by the mean squared empirical density, so the number is
/// comparable across panels whose density scales differ by orders of
/// magnitude (the paper's "MSE < 1e-6" is in its own density units).
double relative_mse(double mse, const numeric::Histogram& hist) {
  double mean_sq = 0.0;
  for (std::size_t i = 0; i < hist.bins(); ++i) mean_sq += hist.density(i) * hist.density(i);
  mean_sq /= static_cast<double>(hist.bins());
  return mse / mean_sq;
}

void reproduce_figure3() {
  bench::banner("Figure 3: spot-price PDF fits (Pareto vs exponential arrivals)");

  bench::Table table{{"panel", "type", "beta", "theta", "Pareto alpha", "Pareto relMSE",
                      "exp eta", "exp relMSE", "day/night KS p"}};
  const char* panels[] = {"(a)", "(b)", "(c)", "(d)"};
  int panel = 0;
  for (const auto& type : ec2::figure3_types()) {
    const auto model = provider::calibrated_model(type);

    trace::GeneratorConfig config;
    config.persistence = 0.0;  // fit the marginal law from i.i.d. slots
    config.seed = 2015 ^ numeric::fnv1a(type.name);
    const auto history = trace::generate_for_type(type, config);
    const auto hist = trace::price_histogram(history, 50);
    const double bin_width = hist.bin_width();
    const double floor_price = hist.bin_center(0);

    // Pareto arrivals: fit (alpha, xm).
    const double lambda_min = model.lambda_min();
    const auto pf = pareto_family(model, bin_width, floor_price);
    const auto pareto_fit = dist::fit_histogram(
        pf, hist, {type.market.pareto_alpha * 0.7, lambda_min * 0.8},
        {{1.0, lambda_min * 0.05}, {25.0, lambda_min * 2.0}});

    // Exponential arrivals: fit (eta, shift).
    const auto ef = exponential_family(model, bin_width, floor_price);
    const auto exp_fit =
        dist::fit_histogram(ef, hist, {lambda_min * 0.3, lambda_min * 0.5},
                            {{lambda_min * 1e-3, 0.0}, {lambda_min * 50, lambda_min * 1.5}});

    const auto ks = trace::day_night_ks(history);

    table.row({panels[panel++], type.name, bench::fmt("%.2f", type.market.beta),
               bench::fmt("%.3f", type.market.theta),
               bench::fmt("%.2f", pareto_fit.params[0]),
               bench::fmt("%.3g", relative_mse(pareto_fit.mse, hist)),
               bench::fmt("%.4g", exp_fit.params[0]),
               bench::fmt("%.3g", relative_mse(exp_fit.mse, hist)),
               bench::fmt("%.3f", ks.p_value)});
  }
  table.print();
  std::cout << "\nPaper: both families fit with MSE < 1e-6 (in normalized density units;\n"
               "ours are comparable relative to the density scale of each panel), and the\n"
               "K-S test accepts day/night homogeneity with p > 0.01.\n";
}

}  // namespace

void spotbid::bench::fig3_pdf_fit() { reproduce_figure3(); }
