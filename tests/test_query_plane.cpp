// Property suite for the precomputed query plane (docs/PERF.md):
//  - the prefix-sum O(log K) partial_expectation and the batch queries must
//    BIT-match the naive O(K) reference scan, across every distribution
//    family's sample sets and adversarial knot layouts;
//  - Distribution::cdf_left must be an exact left limit at atoms;
//  - the GeneralizedPricer knot sweep must never score below the
//    grid_then_golden reference it replaced;
//  - the SpotPriceModel cached scalars must agree with the values they
//    cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "spotbid/bidding/price_model.hpp"
#include "spotbid/collective/equilibrium.hpp"
#include "spotbid/core/contracts.hpp"
#include "spotbid/core/types.hpp"
#include "spotbid/dist/empirical.hpp"
#include "spotbid/dist/exponential.hpp"
#include "spotbid/dist/lognormal.hpp"
#include "spotbid/dist/pareto.hpp"
#include "spotbid/dist/uniform.hpp"
#include "spotbid/numeric/optimize.hpp"
#include "spotbid/numeric/rng.hpp"
#include "spotbid/provider/price_distribution.hpp"

namespace spotbid {
namespace {

/// The pre-optimization O(K) reference: the exact loop partial_expectation
/// used before the prefix arrays existed. The query plane's contract is
/// bit-identity with THIS computation.
double naive_partial_expectation(const dist::Empirical& d, double p) {
  const auto& x = d.knots();
  const auto& cum = d.knot_cdf();
  if (p < x.front()) return 0.0;
  double total = x.front() * cum.front();
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    if (p <= x[i]) break;
    const double hi = std::min(p, x[i + 1]);
    const double slope = (cum[i + 1] - cum[i]) / (x[i + 1] - x[i]);
    total += slope * 0.5 * (hi * hi - x[i] * x[i]);
  }
  return total;
}

/// Probe points that stress every branch: far outside the support, exactly
/// on each knot, one ulp on each side of each knot, and segment interiors.
std::vector<double> probe_points(const dist::Empirical& d, numeric::Rng& rng) {
  const auto& x = d.knots();
  std::vector<double> ps{x.front() - 1.0, x.back() + 1.0,
                         std::nextafter(x.front(), -1e300),
                         std::nextafter(x.back(), 1e300)};
  for (const double knot : x) {
    ps.push_back(knot);
    ps.push_back(std::nextafter(knot, -1e300));
    ps.push_back(std::nextafter(knot, 1e300));
  }
  for (std::size_t i = 0; i + 1 < x.size(); ++i) ps.push_back(0.5 * (x[i] + x[i + 1]));
  for (int i = 0; i < 64; ++i)
    ps.push_back(rng.uniform(x.front() - 0.5, x.back() + 0.5));
  return ps;
}

/// Sample sets covering every family plus the adversarial layouts the
/// issue calls out: duplicates, a heavy atom at the minimum, the two-knot
/// minimum, and near-coincident knots.
std::vector<std::vector<double>> sample_sets() {
  std::vector<std::vector<double>> sets;
  numeric::Rng rng{20150817};

  const auto sampled = [&](const dist::Distribution& d, int n) {
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) xs.push_back(d.sample(rng));
    return xs;
  };
  sets.push_back(sampled(dist::Uniform{0.01, 0.35}, 400));
  sets.push_back(sampled(dist::Exponential{12.0, 0.0315}, 400));
  sets.push_back(sampled(dist::Pareto{5.0, 0.02}, 400));
  sets.push_back(sampled(dist::LogNormal{-3.0, 0.6}, 400));

  // Two-knot minimum.
  sets.push_back({0.0315, 0.35});
  // Heavy atom at the minimum (the spot-price floor pattern).
  std::vector<double> floor_heavy(50, 0.0315);
  for (int i = 0; i < 20; ++i) floor_heavy.push_back(rng.uniform(0.04, 0.3));
  sets.push_back(floor_heavy);
  // Duplicates everywhere: every value repeated a random number of times.
  std::vector<double> dup;
  for (int v = 0; v < 30; ++v) {
    const double value = rng.uniform(0.01, 0.4);
    const int copies = 1 + static_cast<int>(rng.uniform(0.0, 5.0));
    for (int c = 0; c < copies; ++c) dup.push_back(value);
  }
  sets.push_back(dup);
  // Near-coincident knots: adjacent values one ulp apart.
  std::vector<double> tight{0.1, std::nextafter(0.1, 1.0), 0.2,
                            std::nextafter(0.2, 1.0), 0.3};
  sets.push_back(tight);

  return sets;
}

TEST(QueryPlane, PartialExpectationBitMatchesNaiveReference) {
  numeric::Rng rng{7};
  for (const auto& samples : sample_sets()) {
    const dist::Empirical d{samples};
    for (const double p : probe_points(d, rng)) {
      const double fast = d.partial_expectation(p);
      const double naive = naive_partial_expectation(d, p);
      // EXPECT_EQ on doubles is exact comparison: the contract is
      // bit-identity, not closeness.
      EXPECT_EQ(fast, naive) << d.name() << " at p=" << p;
    }
  }
}

TEST(QueryPlane, KnotPrefixArrayMatchesNaiveAtEveryKnot) {
  for (const auto& samples : sample_sets()) {
    const dist::Empirical d{samples};
    const auto& x = d.knots();
    const auto& pe = d.knot_partial_expectation();
    ASSERT_EQ(pe.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(pe[i], naive_partial_expectation(d, x[i])) << d.name() << " knot " << i;
    EXPECT_EQ(d.partial_expectation(x.back() + 1.0), pe.back());
  }
}

TEST(QueryPlane, BatchQueriesBitMatchScalarQueries) {
  numeric::Rng rng{11};
  for (const auto& samples : sample_sets()) {
    const dist::Empirical d{samples};
    const std::vector<double> ps = probe_points(d, rng);
    std::vector<double> batch_cdf(ps.size());
    std::vector<double> batch_pe(ps.size());
    d.cdf_many(ps, batch_cdf);
    d.partial_expectation_many(ps, batch_pe);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      EXPECT_EQ(batch_cdf[i], d.cdf(ps[i])) << d.name() << " cdf at " << ps[i];
      EXPECT_EQ(batch_pe[i], d.partial_expectation(ps[i]))
          << d.name() << " A(p) at " << ps[i];
    }
  }
}

TEST(QueryPlane, BatchQueriesRejectSizeMismatch) {
  const dist::Empirical d{std::vector<double>{1.0, 2.0}};
  std::vector<double> ps{1.5};
  std::vector<double> out(2);
  EXPECT_THROW(d.cdf_many(ps, out), contracts::ContractViolation);
  EXPECT_THROW(d.partial_expectation_many(ps, out), contracts::ContractViolation);
}

TEST(QueryPlane, EmpiricalCdfLeftIsExactAtTheMinimumAtom) {
  const std::vector<double> xs{1.0, 1.0, 1.0, 2.0, 3.0};
  const dist::Empirical d{xs};
  // cdf carries the atom; cdf_left excludes it — exactly, not via epsilon.
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.6);
  EXPECT_EQ(d.cdf_left(1.0), 0.0);
  EXPECT_EQ(d.cdf_left(0.5), 0.0);
  // Above the minimum the interpolated ECDF is continuous: left limit ==
  // cdf everywhere, including at interior knots and at the maximum.
  EXPECT_EQ(d.cdf_left(2.0), d.cdf(2.0));
  EXPECT_EQ(d.cdf_left(2.5), d.cdf(2.5));
  EXPECT_EQ(d.cdf_left(3.0), 1.0);
  EXPECT_EQ(d.cdf_left(4.0), 1.0);
}

TEST(QueryPlane, CdfLeftDefaultsToCdfForAtomlessFamilies) {
  const dist::Uniform u{0.0, 1.0};
  for (const double x : {-0.5, 0.0, 0.25, 0.5, 1.0, 2.0})
    EXPECT_EQ(u.cdf_left(x), u.cdf(x));
}

TEST(QueryPlane, EquilibriumPriceCdfLeftExcludesTheFloorAtom) {
  const provider::ProviderModel m{Money{0.35}, Money{0.0315}, 0.595, 0.02};
  // Pareto arrivals with mass below Lambda_min -> atom at the price floor.
  const double alpha = 5.0;
  const double xm = m.lambda_min() * std::pow(1.0 - 0.35, 1.0 / alpha);
  const provider::EquilibriumPriceDistribution d{
      m, std::make_shared<dist::Pareto>(alpha, xm)};
  ASSERT_NEAR(d.floor_atom(), 0.35, 1e-9);
  EXPECT_EQ(d.cdf_left(d.support_lo()), 0.0);
  EXPECT_NEAR(d.cdf(d.support_lo()), 0.35, 1e-9);
  const double mid = 0.5 * (d.support_lo() + d.support_hi());
  EXPECT_EQ(d.cdf_left(mid), d.cdf(mid));
}

TEST(QueryPlane, AcceptedBidsCountsTiesAtTheAtomExactly) {
  const collective::GeneralizedPricer pricer{Money{0.35}, Money{0.0315}, 0.595, 0.02};
  // 60% of bids exactly at 0.05: pricing AT the atom must accept them all.
  const std::vector<double> bids{0.05, 0.05, 0.05, 0.10, 0.20};
  const dist::Empirical law{bids};
  const double demand = 10.0;
  EXPECT_DOUBLE_EQ(pricer.accepted_bids(law, Money{0.05}, demand), demand);
  // Above the maximum bid nothing is accepted.
  EXPECT_DOUBLE_EQ(pricer.accepted_bids(law, Money{0.30}, demand), 0.0);
}

/// The grid reference the knot sweep replaced: 1024-point grid + golden
/// refinement of the SAME objective.
Money grid_reference_price(const collective::GeneralizedPricer& pricer,
                           const dist::Distribution& bids, double demand) {
  const std::function<double(double)> negated = [&](double pi) {
    return -pricer.objective(bids, Money{pi}, demand);
  };
  const auto best = numeric::grid_then_golden(negated, pricer.pi_min().usd(),
                                              pricer.pi_bar().usd(), 1024);
  return Money{std::clamp(best.x, pricer.pi_min().usd(), pricer.pi_bar().usd())};
}

TEST(QueryPlane, KnotSweepNeverScoresBelowTheGridReference) {
  numeric::Rng rng{404};
  int instances = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // Randomized pricer parameters around the calibrated m3.xlarge values.
    const double pi_bar = rng.uniform(0.2, 0.6);
    const double pi_min = rng.uniform(0.01, 0.2 * pi_bar);
    const double beta = rng.uniform(0.1, 1.5);
    const collective::GeneralizedPricer pricer{Money{pi_bar}, Money{pi_min}, beta, 0.02};

    // Randomized bid law: varying knot counts, duplicates, atoms.
    const int raw = 2 + static_cast<int>(rng.uniform(0.0, 120.0));
    std::vector<double> bids;
    for (int i = 0; i < raw; ++i) bids.push_back(rng.uniform(0.5 * pi_min, 1.2 * pi_bar));
    if (trial % 3 == 0)  // pile an atom onto the minimum
      bids.insert(bids.end(), 5, *std::min_element(bids.begin(), bids.end()));
    std::sort(bids.begin(), bids.end());
    if (bids.front() == bids.back()) bids.back() += 0.01;
    const dist::Empirical law{bids};

    for (const double demand : {0.5, 5.0, 50.0}) {
      const Money sweep = pricer.optimal_price(law, demand);
      const Money grid = grid_reference_price(pricer, law, demand);
      const double g_sweep = pricer.objective(law, sweep, demand);
      const double g_grid = pricer.objective(law, grid, demand);
      // "Provably no worse": allow only floating-point noise in the
      // comparison (the candidate evaluation is exact arithmetic-for-
      // arithmetic; the slack absorbs the quadratic root's rounding).
      EXPECT_GE(g_sweep, g_grid - 1e-12 * (1.0 + std::abs(g_grid)))
          << "trial " << trial << " demand " << demand;
      EXPECT_GE(sweep.usd(), pi_min - 1e-15);
      EXPECT_LE(sweep.usd(), pi_bar + 1e-15);
      ++instances;
    }
  }
  EXPECT_EQ(instances, 24 * 3);
}

TEST(QueryPlane, KnotSweepFindsTheGlobalMaximumOfADenseScan) {
  // Cross-check against a much denser scan than the old grid: the sweep
  // must match the best of 20001 objective evaluations to ~1e-9.
  const collective::GeneralizedPricer pricer{Money{0.35}, Money{0.0315}, 0.595, 0.02};
  numeric::Rng rng{17};
  std::vector<double> bids;
  for (int i = 0; i < 60; ++i) bids.push_back(rng.uniform(0.02, 0.4));
  const dist::Empirical law{bids};
  for (const double demand : {1.0, 12.0}) {
    const Money sweep = pricer.optimal_price(law, demand);
    const double g_sweep = pricer.objective(law, sweep, demand);
    double g_dense = -1e300;
    const double lo = pricer.pi_min().usd();
    const double hi = pricer.pi_bar().usd();
    for (int i = 0; i <= 20000; ++i) {
      const double pi = lo + (hi - lo) * static_cast<double>(i) / 20000.0;
      g_dense = std::max(g_dense, pricer.objective(law, Money{pi}, demand));
    }
    EXPECT_GE(g_sweep, g_dense - 1e-9 * (1.0 + std::abs(g_dense))) << "demand " << demand;
  }
}

TEST(QueryPlane, GridFallbackStillHandlesParametricBidLaws) {
  // Non-Empirical laws keep the grid path; the result must stay inside the
  // band and score at least as well as the band endpoints.
  const collective::GeneralizedPricer pricer{Money{0.35}, Money{0.0315}, 0.595, 0.02};
  const dist::Uniform law{0.02, 0.3};
  const Money pi = pricer.optimal_price(law, 8.0);
  EXPECT_GE(pi.usd(), pricer.pi_min().usd());
  EXPECT_LE(pi.usd(), pricer.pi_bar().usd());
  const double g = pricer.objective(law, pi, 8.0);
  EXPECT_GE(g, pricer.objective(law, pricer.pi_min(), 8.0) - 1e-12);
  EXPECT_GE(g, pricer.objective(law, pricer.pi_bar(), 8.0) - 1e-12);
}

TEST(QueryPlane, SpotPriceModelCachesTheHotScalars) {
  numeric::Rng rng{3};
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform(0.02, 0.4));
  auto law = std::make_shared<dist::Empirical>(xs);
  const bidding::SpotPriceModel model{law, Money{0.35}, Hours{1.0 / 12.0}};

  EXPECT_EQ(model.support_lo().usd(), law->support_lo());
  EXPECT_EQ(model.support_hi().usd(), law->support_hi());
  EXPECT_EQ(model.acceptance_at_cap(), law->cdf(0.35));
  EXPECT_EQ(model.min_bid().usd(), law->quantile(bidding::kMinAcceptance));
  const double expected_hi = std::min(law->support_hi(), 0.35);
  EXPECT_EQ(model.max_bid().usd(), std::max(expected_hi, model.min_bid().usd()));
  EXPECT_GE(model.max_bid().usd(), model.min_bid().usd());
}

TEST(QueryPlane, SpotPriceModelFinitizesUnboundedSupport) {
  auto law = std::make_shared<dist::Exponential>(12.0, 0.02);
  const bidding::SpotPriceModel model{law, Money{0.35}, Hours{1.0 / 12.0}};
  EXPECT_TRUE(std::isinf(model.support_hi().usd()));
  EXPECT_TRUE(std::isfinite(model.max_bid().usd()));
  EXPECT_EQ(model.max_bid().usd(), std::min(law->quantile(1.0 - 1e-9), 0.35));
}

}  // namespace
}  // namespace spotbid
