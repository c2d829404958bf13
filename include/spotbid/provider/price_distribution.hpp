#pragma once

/// \file price_distribution.hpp
/// The spot-price distribution induced by the provider model
/// (Proposition 3).
///
/// At the queue equilibrium, prices are pi(t) = max(pi_min, h(Lambda(t)))
/// with Lambda(t) i.i.d. ~ f_Lambda, so the price law is the push-forward of
/// f_Lambda through the increasing map h. Its continuous part has density
///
///     f_pi(pi) = f_Lambda(h^{-1}(pi)) * d h^{-1}/d pi
///              = f_Lambda(h^{-1}(pi)) * 2 theta beta / (pi_bar - 2 pi)^2
///
/// on (pi_min, pi_bar/2). (The paper's eq. 7 omits the Jacobian — a density
/// must carry it to integrate to one, so we include it and note the
/// difference; the fitted shapes are unaffected because the fit re-optimizes
/// parameters.) If the arrival law puts mass on {Lambda < Lambda_min}, the
/// floor clamp creates an atom at pi_min of that mass; the Section-4.3
/// construction (Pareto with xm = Lambda_min) makes the atom vanish.

#include <memory>

#include "spotbid/dist/distribution.hpp"
#include "spotbid/provider/model.hpp"

namespace spotbid::provider {

class EquilibriumPriceDistribution final : public dist::Distribution {
 public:
  EquilibriumPriceDistribution(ProviderModel model, dist::DistributionPtr arrivals);

  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  /// P(X < x): 0 at and below the floor atom at lo_, cdf(x) elsewhere (the
  /// continuous part has no further atoms).
  [[nodiscard]] double cdf_left(double x) const override;
  [[nodiscard]] double quantile(double q) const override;
  [[nodiscard]] double sample(numeric::Rng& rng) const override;
  /// Moments integrate the quantile function on every call (no cache:
  /// one distribution is shared read-only across threads).
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double support_lo() const override { return lo_; }
  [[nodiscard]] double support_hi() const override { return hi_; }
  [[nodiscard]] double partial_expectation(double p) const override;
  [[nodiscard]] std::string name() const override;

  /// Probability mass clamped onto the price floor (the pi_min atom).
  [[nodiscard]] double floor_atom() const { return atom_; }
  [[nodiscard]] const ProviderModel& model() const { return model_; }
  /// The arrival law the push-forward was built from (needed to serialize
  /// an analytic snapshot: serve/snapshot_io re-creates the distribution
  /// from (model, arrivals) rather than persisting derived state).
  [[nodiscard]] const dist::DistributionPtr& arrivals() const { return arrivals_; }

 private:
  ProviderModel model_;
  dist::DistributionPtr arrivals_;
  double lo_ = 0.0;    ///< smallest attainable price (floor or h(Lambda_lo))
  double hi_ = 0.0;    ///< essential supremum (h of arrival support hi, <= pi_bar/2)
  double atom_ = 0.0;  ///< mass at the floor
};

}  // namespace spotbid::provider
