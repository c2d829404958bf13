#pragma once

/// \file deadline.hpp
/// Completion-time distributions for K-level spot portfolios.
///
/// The portfolio model (docs/PORTFOLIO.md; *Optimized Portfolio Contracts
/// for Bidding the Cloud*, arXiv 1811.12901) slices a job of execution
/// time W across K spot tranches (bid b_k, work share w_k) plus an
/// on-demand backstop share w_0, all racing one deadline T. Slots are the
/// paper's iid per-slot prices with law F: a tranche's instance wins a
/// slot exactly when the slot price is at or below its bid, so over the
/// N = floor(T / t_k) slots inside the horizon the number of won slots is
/// Binomial(N, F(b_k)). Tranche k needs m_k = ceil(w_k W / t_k) won slots
/// to finish its share, hence
///
///     P(tranche k misses T) = P(Bin(N, F(b_k)) < m_k)
///     P(T_finish > T)       = 1 - prod_k (1 - P(tranche k misses T))
///
/// with tranches independent (separate capacity pools) and the on-demand
/// share never missing. The expected spot spend is
/// sum_k m_k t_k E[pi | pi <= b_k], using eq. 9's conditional payment.
///
/// Query plane: the per-level F(b_k) and A(b_k) = integral x f(x) dx come
/// from the empirical prefix arrays in O(log K_knots) per query
/// (QueryPath::kFast). A naive O(K_knots) left-to-right scan that
/// reproduces the Empirical constructor's accumulation expressions bit for
/// bit is kept as the standing oracle (QueryPath::kOracle) — the
/// fast-vs-oracle rule of DESIGN.md §5, enforced by the ctests
/// DeadlineCalculator.FastAndOracleAgreeBitForBit and
/// PortfolioStrategy.FastAndOracleDecisionsMatchBitForBit. Both paths share
/// one binomial-tail routine, so any divergence is a query-plane bug,
/// never binomial noise.

#include <cstdint>
#include <span>

#include "spotbid/bidding/price_model.hpp"
#include "spotbid/core/types.hpp"

namespace spotbid::dist {
class Empirical;
}

namespace spotbid::portfolio {

/// Most spot bid levels a portfolio may hold (mirrors the wire body's
/// fixed-size level array; docs/PROTOCOL.md §4.2).
inline constexpr int kMaxLevels = 16;

/// Most slots a deadline horizon may span: bounds the binomial work a
/// single query can demand of a serve worker.
inline constexpr int kMaxHorizonSlots = 4096;

/// One spot tranche: a bid level and its share of the job's execution time.
struct Level {
  Money bid{};
  double share = 0.0;

  [[nodiscard]] friend bool operator==(const Level&, const Level&) = default;
};

/// Which query plane answers the per-level F / A queries (file comment).
enum class QueryPath : std::uint8_t { kFast, kOracle };

/// P(Bin(n, p) < m): the probability a tranche wins fewer than m of its n
/// horizon slots at per-slot acceptance p. Deterministic log-space term
/// accumulation (no lgamma — its global sign state is not tsan-clean);
/// shared verbatim by the fast and oracle paths.
[[nodiscard]] double binomial_miss_tail(int n, double p, int m);

/// Completion-time distribution of a portfolio against one deadline.
/// Immutable after construction; borrows the model (callers keep it alive,
/// exactly like serve::ModelSnapshot's borrowed empirical pointer).
class DeadlineCalculator {
 public:
  /// \param model    spot-price law + slot length + backstop
  /// \param deadline T; must be finite, positive, and span at least one
  ///                 slot and at most kMaxHorizonSlots of them
  /// \param path     fast prefix arrays or the naive O(K) oracle
  DeadlineCalculator(const bidding::SpotPriceModel& model, Hours deadline,
                     QueryPath path = QueryPath::kFast);

  /// N = floor(T / t_k): slots inside the horizon.
  [[nodiscard]] int horizon_slots() const { return horizon_; }
  [[nodiscard]] Hours deadline() const { return deadline_; }
  [[nodiscard]] const bidding::SpotPriceModel& model() const { return *model_; }
  [[nodiscard]] QueryPath path() const { return path_; }

  /// F(bid) through the selected query path.
  [[nodiscard]] double acceptance(Money bid) const;
  /// A(bid) through the selected query path.
  [[nodiscard]] double partial_expectation(Money bid) const;

  /// m = ceil(share * execution_time / t_k): slots a tranche must win.
  [[nodiscard]] int required_slots(double share, Hours execution_time) const;

  /// P(Bin(horizon_slots(), F(bid)) < need_slots).
  [[nodiscard]] double miss_probability(Money bid, int need_slots) const;

  /// P(T_finish <= t | levels): every tranche wins its m_k slots within
  /// floor(t / t_k) slots. Levels whose share rounds to zero slots are
  /// already done; a tranche needing more slots than fit in t cannot
  /// finish (probability 0).
  [[nodiscard]] double completion_cdf(std::span<const Level> levels, Hours execution_time,
                                      Hours t) const;

  /// P(T_finish > deadline() | levels) = 1 - completion_cdf(deadline()).
  [[nodiscard]] double violation_probability(std::span<const Level> levels,
                                             Hours execution_time) const;

  /// sum_k m_k t_k E[pi | pi <= b_k] over levels with m_k >= 1. +infinity
  /// when some needed level can never win a slot (F(b_k) = 0).
  [[nodiscard]] Money expected_spot_cost(std::span<const Level> levels,
                                         Hours execution_time) const;

 private:
  const bidding::SpotPriceModel* model_;
  const dist::Empirical* empirical_ = nullptr;  ///< oracle target (null: analytic law)
  Hours deadline_{};
  QueryPath path_ = QueryPath::kFast;
  int horizon_ = 0;
};

}  // namespace spotbid::portfolio
