#include "spotbid/provider/price_distribution.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "spotbid/core/contracts.hpp"
#include "spotbid/numeric/integrate.hpp"

namespace spotbid::provider {

EquilibriumPriceDistribution::EquilibriumPriceDistribution(ProviderModel model,
                                                           dist::DistributionPtr arrivals)
    : model_(model), arrivals_(std::move(arrivals)) {
  if (!arrivals_) throw InvalidArgument{"EquilibriumPriceDistribution: null arrivals"};

  const double lambda_lo = std::max(arrivals_->support_lo(), 0.0);
  atom_ = arrivals_->cdf(model_.lambda_min());
  lo_ = model_.equilibrium_price(lambda_lo).usd();

  double lambda_hi = arrivals_->support_hi();
  if (!std::isfinite(lambda_hi)) lambda_hi = arrivals_->quantile(1.0 - 1e-13);
  hi_ = model_.equilibrium_price(lambda_hi).usd();
}

double EquilibriumPriceDistribution::pdf(double x) const {
  SPOTBID_REQUIRE_NOT_NAN(x, "EquilibriumPriceDistribution::pdf: x");
  if (x <= lo_ || x >= 0.5 * model_.pi_bar().usd()) return 0.0;
  if (x >= hi_) return 0.0;
  const double h0 = 0.5 * (model_.pi_bar().usd() - model_.beta());
  if (x <= h0) return 0.0;  // below h(0): unreachable prices
  const double lambda = model_.equilibrium_arrivals(Money{x});
  return arrivals_->pdf(lambda) * model_.equilibrium_arrivals_derivative(Money{x});
}

double EquilibriumPriceDistribution::cdf(double x) const {
  SPOTBID_REQUIRE_NOT_NAN(x, "EquilibriumPriceDistribution::cdf: x");
  if (x < lo_) return 0.0;
  if (x >= hi_) return 1.0;
  if (x == lo_) return atom_;
  const double h0 = 0.5 * (model_.pi_bar().usd() - model_.beta());
  if (x <= h0) return atom_;
  const double half_bar = 0.5 * model_.pi_bar().usd();
  if (x >= half_bar) return 1.0;
  return std::max(atom_, arrivals_->cdf(model_.equilibrium_arrivals(Money{x})));
}

double EquilibriumPriceDistribution::cdf_left(double x) const {
  SPOTBID_REQUIRE_NOT_NAN(x, "EquilibriumPriceDistribution::cdf_left: x");
  if (x <= lo_) return 0.0;
  return cdf(x);
}

double EquilibriumPriceDistribution::quantile(double q) const {
  SPOTBID_REQUIRE_PROB(q, "EquilibriumPriceDistribution::quantile: q");
  if (q <= atom_) return lo_;
  const double lambda = arrivals_->quantile(q);
  return model_.equilibrium_price(lambda).usd();
}

double EquilibriumPriceDistribution::sample(numeric::Rng& rng) const {
  return model_.equilibrium_price(std::max(arrivals_->sample(rng), 0.0)).usd();
}

// Moments via the quantile representation E[g(X)] = int_0^1 g(Q(u)) du —
// exact for the atom and insensitive to the near-vertical density at hi_.
// Computed on call rather than at construction: only tests and the
// collective/section-8 drivers read them, and a lazily filled cache would
// race across the workers that share one snapshot.
double EquilibriumPriceDistribution::mean() const {
  return numeric::adaptive_simpson(
      [this](double u) { return quantile(std::clamp(u, 0.0, 1.0)); }, 0.0, 1.0, 1e-12);
}

double EquilibriumPriceDistribution::variance() const {
  const double m = mean();
  return numeric::adaptive_simpson(
      [&](double u) {
        const double x = quantile(std::clamp(u, 0.0, 1.0));
        return (x - m) * (x - m);
      },
      0.0, 1.0, 1e-12);
}

double EquilibriumPriceDistribution::partial_expectation(double p) const {
  SPOTBID_REQUIRE_NOT_NAN(p, "EquilibriumPriceDistribution::partial_expectation: p");
  if (p < lo_) return 0.0;
  double total = atom_ * lo_;
  const double hi = std::min(p, hi_);
  if (hi > lo_) {
    total += numeric::adaptive_simpson([this](double x) { return x * pdf(x); }, lo_, hi, 1e-12);
  }
  return total;
}

std::string EquilibriumPriceDistribution::name() const {
  std::ostringstream os;
  os << "EquilibriumPrice(pi_bar=" << model_.pi_bar().usd() << ", beta=" << model_.beta()
     << ", theta=" << model_.theta() << ", arrivals=" << arrivals_->name() << ")";
  return os.str();
}

}  // namespace spotbid::provider
