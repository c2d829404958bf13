#include "spotbid/numeric/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "spotbid/core/contracts.hpp"

namespace spotbid::numeric {

namespace {

constexpr double kGolden = detail::kGoldenRatio;

}  // namespace

MinimizeResult brent_minimize(const std::function<double(double)>& f, double lo, double hi,
                              const MinimizeOptions& options) {
  SPOTBID_EXPECT(lo <= hi, "brent_minimize: lo > hi");
  // Brent (1973) localmin, as in Numerical Recipes.
  const double cgold = 1.0 - kGolden;
  double a = lo;
  double b = hi;
  double x = a + cgold * (b - a);
  double w = x;
  double v = x;
  double fx = f(x);
  double fw = fx;
  double fv = fx;
  double d = 0.0;
  double e = 0.0;

  MinimizeResult result;
  for (int i = 0; i < options.max_iterations; ++i) {
    const double xm = 0.5 * (a + b);
    const double tol1 = options.x_tolerance * std::abs(x) + 1e-15;
    const double tol2 = 2.0 * tol1;
    result = {x, fx, i + 1, false};
    if (std::abs(x - xm) <= tol2 - 0.5 * (b - a)) {
      result.converged = true;
      return result;
    }
    bool use_golden = true;
    if (std::abs(e) > tol1) {
      // Parabolic fit through x, v, w.
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::abs(q);
      const double e_old = e;
      e = d;
      if (std::abs(p) < std::abs(0.5 * q * e_old) && p > q * (a - x) && p < q * (b - x)) {
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) d = (xm >= x) ? tol1 : -tol1;
        use_golden = false;
      }
    }
    if (use_golden) {
      e = (x >= xm) ? a - x : b - x;
      d = cgold * e;
    }
    const double u = (std::abs(d) >= tol1) ? x + d : x + ((d >= 0) ? tol1 : -tol1);
    const double fu = f(u);
    if (fu <= fx) {
      if (u >= x) a = x; else b = x;
      v = w; fv = fw;
      w = x; fw = fx;
      x = u; fx = fu;
    } else {
      if (u < x) a = u; else b = u;
      if (fu <= fw || w == x) {
        v = w; fv = fw;
        w = u; fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u; fv = fu;
      }
    }
  }
  return result;
}

SimplexResult nelder_mead(const std::function<double(const std::vector<double>&)>& f,
                          std::vector<double> x0, const SimplexOptions& options) {
  const std::size_t n = x0.size();
  SPOTBID_EXPECT(n != 0, "nelder_mead: empty start point");

  // Build initial simplex: x0 plus n points perturbed along each axis.
  std::vector<std::vector<double>> simplex(n + 1, x0);
  for (std::size_t i = 0; i < n; ++i) {
    const double step = (x0[i] != 0.0) ? options.initial_step * std::abs(x0[i])
                                       : options.initial_step;
    simplex[i + 1][i] += step;
  }
  std::vector<double> fvals(n + 1);
  for (std::size_t i = 0; i <= n; ++i) fvals[i] = f(simplex[i]);

  std::vector<std::size_t> order(n + 1);
  SimplexResult result;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fvals[a] < fvals[b]; });
    const std::size_t lo = order.front();
    const std::size_t hi = order.back();
    const std::size_t second_hi = order[n - 1];

    result = {simplex[lo], fvals[lo], iter + 1, false};

    // Convergence: spread of f values and simplex diameter.
    const double f_spread = std::abs(fvals[hi] - fvals[lo]);
    double diameter = 0.0;
    for (std::size_t i = 0; i <= n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        diameter = std::max(diameter, std::abs(simplex[i][j] - simplex[lo][j]));
    if (f_spread <= options.f_tolerance || diameter <= options.x_tolerance) {
      result.converged = true;
      return result;
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == hi) continue;
      for (std::size_t j = 0; j < n; ++j) centroid[j] += simplex[i][j];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto blend = [&](double coef) {
      std::vector<double> x(n);
      for (std::size_t j = 0; j < n; ++j)
        x[j] = centroid[j] + coef * (simplex[hi][j] - centroid[j]);
      return x;
    };

    // Reflection.
    std::vector<double> xr = blend(-1.0);
    const double fr = f(xr);
    if (fr < fvals[lo]) {
      // Expansion.
      std::vector<double> xe = blend(-2.0);
      const double fe = f(xe);
      if (fe < fr) {
        simplex[hi] = std::move(xe);
        fvals[hi] = fe;
      } else {
        simplex[hi] = std::move(xr);
        fvals[hi] = fr;
      }
    } else if (fr < fvals[second_hi]) {
      simplex[hi] = std::move(xr);
      fvals[hi] = fr;
    } else {
      // Contraction (outside if fr improved the worst, inside otherwise).
      const double coef = (fr < fvals[hi]) ? -0.5 : 0.5;
      std::vector<double> xc = blend(coef);
      const double fc = f(xc);
      if (fc < std::min(fr, fvals[hi])) {
        simplex[hi] = std::move(xc);
        fvals[hi] = fc;
      } else {
        // Shrink toward the best vertex.
        for (std::size_t i = 0; i <= n; ++i) {
          if (i == lo) continue;
          for (std::size_t j = 0; j < n; ++j)
            simplex[i][j] = simplex[lo][j] + 0.5 * (simplex[i][j] - simplex[lo][j]);
          fvals[i] = f(simplex[i]);
        }
      }
    }
  }
  return result;
}

}  // namespace spotbid::numeric
