// Tests for the parametric distribution families: generic distribution
// invariants via TEST_P plus family-specific closed forms.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "spotbid/core/types.hpp"
#include "spotbid/dist/exponential.hpp"
#include "spotbid/dist/lognormal.hpp"
#include "spotbid/dist/pareto.hpp"
#include "spotbid/dist/uniform.hpp"
#include "spotbid/numeric/integrate.hpp"

namespace spotbid::dist {
namespace {

struct Case {
  const char* label;
  DistributionPtr dist;
};

// Printed into the test names (`# GetParam() = uniform Uniform(lo=0.02,
// hi=0.35)`); without it gtest dumps the object's raw bytes, pointers
// included, so the names would change from run to run.
void PrintTo(const Case& c, std::ostream* os) { *os << c.label << ' ' << c.dist->name(); }

Case make_case(const char* label, DistributionPtr d) { return {label, std::move(d)}; }

class DistributionInvariants : public ::testing::TestWithParam<Case> {};

TEST_P(DistributionInvariants, CdfIsMonotoneWithCorrectLimits) {
  const auto& d = *GetParam().dist;
  const double lo = d.support_lo();
  const double hi = std::isfinite(d.support_hi()) ? d.support_hi() : d.quantile(0.999);
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double x = lo + (hi - lo) * i / 100.0;
    const double f = d.cdf(x);
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_NEAR(d.cdf(lo - 1.0), 0.0, 1e-12);
}

TEST_P(DistributionInvariants, QuantileIsCdfInverse) {
  const auto& d = *GetParam().dist;
  for (double q : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(q)), q, 1e-8) << "q=" << q;
  }
}

TEST_P(DistributionInvariants, PdfIsDerivativeOfCdf) {
  const auto& d = *GetParam().dist;
  const double lo = d.quantile(0.02);
  const double hi = d.quantile(0.98);
  for (int i = 1; i < 20; ++i) {
    const double x = lo + (hi - lo) * i / 20.0;
    const double h = 1e-6 * (hi - lo);
    const double numeric = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
    EXPECT_NEAR(d.pdf(x), numeric, 1e-3 * (1.0 + std::abs(numeric))) << "x=" << x;
  }
}

TEST_P(DistributionInvariants, PdfIntegratesToOne) {
  const auto& d = *GetParam().dist;
  const double lo = d.support_lo();
  const double hi = std::isfinite(d.support_hi()) ? d.support_hi() : d.quantile(1.0 - 1e-10);
  const double mass =
      numeric::adaptive_simpson([&](double x) { return d.pdf(x); }, lo, hi, 1e-11);
  EXPECT_NEAR(mass, 1.0, 1e-4);
}

TEST_P(DistributionInvariants, SampleMomentsMatch) {
  const auto& d = *GetParam().dist;
  numeric::Rng rng{4242};
  const int n = 400000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, d.support_lo() - 1e-12);
    sum += x;
    sum2 += x * x;
  }
  const double m = sum / n;
  const double v = sum2 / n - m * m;
  EXPECT_NEAR(m, d.mean(), 0.02 * (1.0 + std::abs(d.mean())));
  EXPECT_NEAR(v, d.variance(), 0.08 * (1.0 + d.variance()));
}

TEST_P(DistributionInvariants, PartialExpectationMatchesQuadrature) {
  const auto& d = *GetParam().dist;
  for (double q : {0.2, 0.5, 0.8, 0.99}) {
    const double p = d.quantile(q);
    const double direct = numeric::adaptive_simpson(
        [&](double x) { return x * d.pdf(x); }, d.support_lo(), p, 1e-12);
    EXPECT_NEAR(d.partial_expectation(p), direct, 1e-6 * (1.0 + std::abs(direct))) << "q=" << q;
  }
}

TEST_P(DistributionInvariants, PartialExpectationAtFullSupportIsMean) {
  const auto& d = *GetParam().dist;
  const double hi = std::isfinite(d.support_hi()) ? d.support_hi() : d.quantile(1.0 - 1e-12);
  EXPECT_NEAR(d.partial_expectation(hi), d.mean(), 1e-3 * (1.0 + std::abs(d.mean())));
}

TEST_P(DistributionInvariants, QuantileRejectsOutOfRange) {
  const auto& d = *GetParam().dist;
  EXPECT_THROW((void)d.quantile(-0.1), InvalidArgument);
  EXPECT_THROW((void)d.quantile(1.1), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionInvariants,
    ::testing::Values(
        make_case("uniform", std::make_shared<Uniform>(0.02, 0.35)),
        make_case("exponential", std::make_shared<Exponential>(0.5)),
        make_case("exponential_shifted", std::make_shared<Exponential>(1.3, 2.0)),
        make_case("pareto", std::make_shared<Pareto>(5.0, 0.02)),
        make_case("pareto_heavy", std::make_shared<Pareto>(2.5, 1.0)),
        make_case("bounded_pareto", std::make_shared<BoundedPareto>(5.0, 0.02, 0.2)),
        make_case("lognormal", std::make_shared<LogNormal>(-3.0, 0.5))),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.label; });

// ---- family-specific checks ----

TEST(UniformTest, ClosedForms) {
  const Uniform u{1.0, 3.0};
  EXPECT_DOUBLE_EQ(u.pdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(u.pdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(u.cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(u.mean(), 2.0);
  EXPECT_NEAR(u.variance(), 4.0 / 12.0, 1e-15);
  EXPECT_THROW((Uniform{2.0, 2.0}), InvalidArgument);
}

TEST(ExponentialTest, EtaIsTheMean) {
  const Exponential e{0.25};
  EXPECT_DOUBLE_EQ(e.mean(), 0.25);
  EXPECT_DOUBLE_EQ(e.variance(), 0.0625);
  EXPECT_NEAR(e.cdf(0.25), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_THROW((Exponential{0.0}), InvalidArgument);
}

TEST(ExponentialTest, ShiftMovesSupport) {
  const Exponential e{1.0, 5.0};
  EXPECT_DOUBLE_EQ(e.support_lo(), 5.0);
  EXPECT_DOUBLE_EQ(e.cdf(5.0), 0.0);
  EXPECT_DOUBLE_EQ(e.mean(), 6.0);
}

TEST(ParetoTest, TailIndexControlsMoments) {
  const Pareto finite{3.0, 1.0};
  EXPECT_DOUBLE_EQ(finite.mean(), 1.5);
  EXPECT_NEAR(finite.variance(), 3.0 / (4.0 * 1.0), 1e-12);

  const Pareto infinite_mean{0.9, 1.0};
  EXPECT_TRUE(std::isinf(infinite_mean.mean()));
  const Pareto infinite_var{1.5, 1.0};
  EXPECT_TRUE(std::isinf(infinite_var.variance()));
}

TEST(ParetoTest, PowerLawTail) {
  const Pareto p{2.0, 1.0};
  // P(X > x) = x^-2.
  EXPECT_NEAR(1.0 - p.cdf(10.0), 0.01, 1e-12);
  EXPECT_THROW((Pareto{0.0, 1.0}), InvalidArgument);
  EXPECT_THROW((Pareto{1.0, 0.0}), InvalidArgument);
}

TEST(BoundedParetoTest, SupportIsTruncated) {
  const BoundedPareto p{5.0, 0.02, 0.1};
  EXPECT_DOUBLE_EQ(p.cdf(0.1), 1.0);
  EXPECT_DOUBLE_EQ(p.cdf(0.02), 0.0);
  EXPECT_NEAR(p.quantile(1.0), 0.1, 1e-12);
  EXPECT_THROW((BoundedPareto{5.0, 0.2, 0.1}), InvalidArgument);
}

TEST(LogNormalTest, MedianIsExpMu) {
  const LogNormal d{-2.0, 0.7};
  EXPECT_NEAR(d.quantile(0.5), std::exp(-2.0), 1e-9);
  EXPECT_THROW((LogNormal{0.0, 0.0}), InvalidArgument);
}

}  // namespace
}  // namespace spotbid::dist
