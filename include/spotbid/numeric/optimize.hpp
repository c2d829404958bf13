#pragma once

/// \file optimize.hpp
/// Derivative-free optimization.
///
/// Three solvers cover everything the paper needs:
///  - golden-section / Brent minimization for the unimodal 1-D cost curves
///    (eq. 10, 15, 19) and for cross-checking the provider's closed-form
///    price (eq. 3) against a direct maximization of eq. 1;
///  - grid-refined minimization for possibly non-unimodal objectives
///    (empirical cost curves built from noisy ECDFs);
///  - Nelder-Mead simplex for the multi-parameter least-squares fits of
///    Figure 3 (fitting (alpha | eta, beta, theta) to a price histogram).

#include <algorithm>
#include <functional>
#include <vector>

#include "spotbid/core/types.hpp"

namespace spotbid::numeric {

/// Options for the 1-D minimizers.
struct MinimizeOptions {
  double x_tolerance = 1e-10;
  int max_iterations = 200;
};

/// Result of a scalar minimization.
struct MinimizeResult {
  double x = 0.0;
  double f = 0.0;
  int iterations = 0;
  bool converged = false;
};

namespace detail {

inline constexpr double kGoldenRatio = 0.6180339887498948482;  // (sqrt(5) - 1) / 2

}  // namespace detail

/// Golden-section search on [lo, hi]. Converges to a local minimum; exact
/// for unimodal f. Throws spotbid::InvalidArgument if lo > hi. Templated on
/// the callable so optimizer inner loops (512-1024 objective evaluations per
/// bid decision) invoke the objective directly.
template <class F>
[[nodiscard]] MinimizeResult golden_section(F&& f, double lo, double hi,
                                            const MinimizeOptions& options = {}) {
  if (!(lo <= hi)) throw InvalidArgument{"golden_section: lo > hi"};
  double a = lo;
  double b = hi;
  double x1 = b - detail::kGoldenRatio * (b - a);
  double x2 = a + detail::kGoldenRatio * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);

  MinimizeResult result;
  int i = 0;
  for (; i < options.max_iterations && (b - a) > options.x_tolerance; ++i) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - detail::kGoldenRatio * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + detail::kGoldenRatio * (b - a);
      f2 = f(x2);
    }
  }
  result.x = (f1 < f2) ? x1 : x2;
  result.f = std::min(f1, f2);
  result.iterations = i;
  result.converged = (b - a) <= options.x_tolerance;
  return result;
}

/// Brent's parabolic-interpolation minimizer on [lo, hi]; same contract as
/// golden_section but usually far fewer evaluations on smooth objectives.
[[nodiscard]] MinimizeResult brent_minimize(const std::function<double(double)>& f, double lo,
                                            double hi, const MinimizeOptions& options = {});

/// Robust global 1-D minimization: evaluate f on an n_grid-point grid, then
/// refine around the best grid cell with golden-section. Handles objectives
/// with plateaus or several local minima (e.g. costs built on step-function
/// ECDFs) at the cost of n_grid extra evaluations.
template <class F>
[[nodiscard]] MinimizeResult grid_then_golden(F&& f, double lo, double hi, int n_grid = 256,
                                              const MinimizeOptions& options = {}) {
  if (!(lo <= hi)) throw InvalidArgument{"grid_then_golden: lo > hi"};
  n_grid = std::max(n_grid, 2);
  int best = 0;
  double best_f = f(lo);
  for (int i = 1; i <= n_grid; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / n_grid;
    const double fx = f(x);
    if (fx < best_f) {
      best_f = fx;
      best = i;
    }
  }
  const double cell = (hi - lo) / n_grid;
  const double a = std::max(lo, lo + (best - 1) * cell);
  const double b = std::min(hi, lo + (best + 1) * cell);
  MinimizeResult refined = golden_section(f, a, b, options);
  if (best_f < refined.f) {
    refined.x = lo + best * cell;
    refined.f = best_f;
  }
  refined.iterations += n_grid + 1;
  return refined;
}

/// Options for Nelder-Mead.
struct SimplexOptions {
  double f_tolerance = 1e-12;   ///< stop when simplex f-spread is below this
  double x_tolerance = 1e-10;   ///< ... or simplex diameter is below this
  int max_iterations = 2000;
  double initial_step = 0.1;    ///< relative step used to build the simplex
};

/// Result of a Nelder-Mead run.
struct SimplexResult {
  std::vector<double> x;
  double f = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Nelder-Mead downhill simplex minimization of f over R^n starting from x0.
/// Standard reflection/expansion/contraction/shrink coefficients
/// (1, 2, 0.5, 0.5).
[[nodiscard]] SimplexResult nelder_mead(const std::function<double(const std::vector<double>&)>& f,
                                        std::vector<double> x0,
                                        const SimplexOptions& options = {});

}  // namespace spotbid::numeric
