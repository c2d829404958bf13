#include "spotbid/serve/engine.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <exception>
#include <limits>
#include <string>

#include "spotbid/bidding/cost.hpp"
#include "spotbid/bidding/strategies.hpp"
#include "spotbid/core/contracts.hpp"
#include "spotbid/core/metrics.hpp"
#include "spotbid/portfolio/strategy.hpp"

namespace spotbid::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::size_t kKindCount = 6;
constexpr std::size_t kStatusCount = 6;

/// Deterministic per-kind / per-status tallies: counts depend only on the
/// executed request set, never on worker count or batch boundaries.
metrics::Counter& request_counter(Kind kind) {
  static const std::array<metrics::Counter*, kKindCount> counters = [] {
    std::array<metrics::Counter*, kKindCount> c{};
    for (std::size_t i = 0; i < kKindCount; ++i)
      c[i] = &metrics::Registry::global().counter(
          "serve.requests." + std::string{kind_name(static_cast<Kind>(i))});
    return c;
  }();
  return *counters[static_cast<std::size_t>(kind)];
}

metrics::Counter& status_counter(Status status) {
  static const std::array<metrics::Counter*, kStatusCount> counters = [] {
    std::array<metrics::Counter*, kStatusCount> c{};
    for (std::size_t i = 0; i < kStatusCount; ++i)
      c[i] = &metrics::Registry::global().counter(
          "serve.responses." + std::string{status_name(static_cast<Status>(i))});
    return c;
  }();
  return *counters[static_cast<std::size_t>(status)];
}

Response base_response(const ModelSnapshot& snapshot, const Request& request) {
  Response r;
  r.kind = request.kind;
  r.epoch = snapshot.epoch();
  return r;
}

Response invalid_response(const ModelSnapshot& snapshot, const Request& request) {
  Response r = base_response(snapshot, request);
  r.status = Status::kInvalid;
  return r;
}

// ---------------------------------------------------------------------------
// Per-kind validation. Runs BEFORE any model query so malformed parameters
// (NaN bids, negative times) surface as kInvalid instead of tripping the
// model-layer contracts.

bool run_length_valid(const Request& q) { return std::isfinite(q.bid.usd()); }

bool persistent_job_valid(const bidding::JobSpec& job) {
  return std::isfinite(job.execution_time.hours()) &&
         std::isfinite(job.recovery_time.hours()) && job.recovery_time.hours() >= 0.0 &&
         job.execution_time >= job.recovery_time;
}

bool expected_cost_valid(const Request& q) {
  if (!std::isfinite(q.bid.usd())) return false;
  if (!(std::isfinite(q.job.execution_time.hours()) && q.job.execution_time.hours() >= 0.0))
    return false;
  return q.mode == BidMode::kOneTime || persistent_job_valid(q.job);
}

bool feasibility_valid(const Request& q) {
  return std::isfinite(q.bid.usd()) && persistent_job_valid(q.job);
}

bool optimal_bid_valid(const Request& q) {
  if (!(std::isfinite(q.job.execution_time.hours()) &&
        std::isfinite(q.job.recovery_time.hours())))
    return false;
  if (q.mode == BidMode::kOneTime) return q.job.execution_time.hours() > 0.0;
  // persistent_bid's eq.-13 precondition: t_s > t_r >= 0.
  return q.job.recovery_time.hours() >= 0.0 && q.job.execution_time > q.job.recovery_time;
}

bool provider_price_valid(const Request& q) {
  return std::isfinite(q.demand) && q.demand > 0.0;
}

bool portfolio_valid(const Request& q) {
  if (!(std::isfinite(q.job.execution_time.hours()) && q.job.execution_time.hours() > 0.0))
    return false;
  if (!(std::isfinite(q.job.recovery_time.hours()) && q.job.recovery_time.hours() >= 0.0))
    return false;
  if (!(std::isfinite(q.deadline.hours()) && q.deadline >= q.job.execution_time)) return false;
  if (std::isnan(q.epsilon) || q.epsilon < 0.0) return false;
  if (q.levels < 1 || q.levels > kMaxPortfolioLevels) return false;
  // The K=1, epsilon>=1 degeneration answers with Prop. 4/5, so it inherits
  // their preconditions (persistent_bid needs t_s > t_r).
  if (q.levels == 1 && q.epsilon >= 1.0 && q.mode == BidMode::kPersistent &&
      !(q.job.execution_time > q.job.recovery_time))
    return false;
  return true;
}

// ---------------------------------------------------------------------------
// Closed-form arithmetic. Each helper takes the model queries (f = F(bid),
// a = A(bid)) as inputs, answered per request by the snapshot's model. The
// expressions mirror src/bidding/cost.cpp term for term.

Response answer_run_length(const ModelSnapshot& snapshot, const Request& q, double f) {
  Response r = base_response(snapshot, q);
  r.acceptance = f;
  // eq. 8: t_k / (1 - F(p)); never interrupted at F(p) = 1.
  r.expected_hours = f >= 1.0
                         ? Hours{kInf}
                         : Hours{snapshot.model().slot_length().hours() / (1.0 - f)};
  r.status = Status::kOk;
  return r;
}

/// eq. 13 busy time off precomputed F(p); +infinity when infeasible.
Hours busy_time(const ModelSnapshot& snapshot, const bidding::JobSpec& job, double f) {
  const double r = job.recovery_time / snapshot.model().slot_length();
  const double denom = 1.0 - r * (1.0 - f);
  if (!(denom > 0.0)) return Hours{kInf};
  return Hours{(job.execution_time - job.recovery_time).hours() / denom};
}

Response answer_expected_cost(const ModelSnapshot& snapshot, const Request& q, double f,
                              double a) {
  Response r = base_response(snapshot, q);
  r.acceptance = f;
  r.bid = q.bid;
  if (q.mode == BidMode::kOneTime) {
    // eq. 10: t_s * A(p)/F(p); the job occupies exactly t_s when it runs.
    r.expected_cost =
        !(f > 0.0) ? Money{kInf} : Money{a / f} * q.job.execution_time;
    r.expected_hours = q.job.execution_time;
  } else {
    // eq. 15: busy * A(p)/F(p); completion = busy / F(p).
    const Hours busy = busy_time(snapshot, q.job, f);
    if (!(f > 0.0)) {
      r.expected_cost = Money{kInf};
      r.expected_hours = Hours{kInf};
    } else if (!std::isfinite(busy.hours())) {
      r.expected_cost = Money{kInf};
      r.expected_hours = busy;
    } else {
      r.expected_cost = Money{a / f} * busy;
      r.expected_hours = Hours{busy.hours() / f};
    }
  }
  r.status = Status::kOk;
  return r;
}

Response answer_feasibility(const ModelSnapshot& snapshot, const Request& q, double f) {
  Response r = base_response(snapshot, q);
  r.acceptance = f;
  r.bid = q.bid;
  const Hours busy = busy_time(snapshot, q.job, f);
  // eq. 14 is exactly "the eq.-13 denominator is positive".
  r.feasible = std::isfinite(busy.hours());
  r.expected_hours = busy;
  r.status = Status::kOk;
  return r;
}

Response answer_optimal_bid(const ModelSnapshot& snapshot, const Request& q) {
  Response r = base_response(snapshot, q);
  const bidding::BidDecision d = q.mode == BidMode::kOneTime
                                     ? bidding::one_time_bid(snapshot.model(), q.job)
                                     : bidding::persistent_bid(snapshot.model(), q.job);
  r.bid = d.bid;
  r.expected_cost = d.expected_cost;
  r.expected_hours = d.expected_completion;
  r.acceptance = d.acceptance;
  r.use_on_demand = d.use_on_demand;
  r.status = Status::kOk;
  return r;
}

Response answer_provider_price(const ModelSnapshot& snapshot, const Request& q) {
  Response r = base_response(snapshot, q);
  r.price = snapshot.provider().optimal_price(q.demand);
  r.status = Status::kOk;
  return r;
}

/// serve.portfolio.* telemetry (docs/METRICS.md): pure functions of the
/// executed request set — inside the determinism contract like every other
/// serve.* metric.
struct PortfolioServeMetrics {
  metrics::Histogram& levels;
  metrics::Counter& on_demand_fallback;
  metrics::Counter& degenerate;
};

PortfolioServeMetrics& portfolio_metrics() {
  static constexpr std::array<double, 5> kLevelBounds = {1.5, 2.5, 4.5, 8.5, 16.5};
  static PortfolioServeMetrics m{
      metrics::Registry::global().histogram("serve.portfolio.levels", kLevelBounds),
      metrics::Registry::global().counter("serve.portfolio.on_demand_fallback"),
      metrics::Registry::global().counter("serve.portfolio.degenerate"),
  };
  return m;
}

Response answer_portfolio(const ModelSnapshot& snapshot, const Request& q) {
  // Horizon cap: checkable only with the snapshot's slot length in hand,
  // hence here rather than in portfolio_valid.
  const double slots =
      std::floor(q.deadline.hours() / snapshot.model().slot_length().hours());
  if (slots > static_cast<double>(portfolio::kMaxHorizonSlots))
    return invalid_response(snapshot, q);

  portfolio::PortfolioQuery query;
  query.job = q.job;
  query.deadline = q.deadline;
  query.epsilon = q.epsilon;
  query.levels = q.levels;
  query.mode = q.mode == BidMode::kOneTime ? portfolio::DegenerateMode::kOneTime
                                           : portfolio::DegenerateMode::kPersistent;
  const portfolio::PortfolioStrategy strategy{snapshot.model()};
  const portfolio::PortfolioDecision d = strategy.optimize(query);

  PortfolioServeMetrics& m = portfolio_metrics();
  m.levels.observe(static_cast<double>(q.levels));
  if (d.use_on_demand) m.on_demand_fallback.increment();
  if (d.degenerate) m.degenerate.increment();

  Response r = base_response(snapshot, q);
  r.level_count = static_cast<std::uint8_t>(d.level_count);
  for (int k = 0; k < d.level_count; ++k)
    r.levels[static_cast<std::size_t>(k)] =
        PortfolioLevel{d.levels[static_cast<std::size_t>(k)].bid,
                       d.levels[static_cast<std::size_t>(k)].share};
  r.on_demand_share = d.on_demand_share;
  r.violation = d.violation;
  r.expected_cost = d.expected_cost;
  r.expected_hours = q.deadline;
  r.bid = d.level_count > 0 ? d.levels[0].bid : d.backstop;
  r.acceptance = d.level_count > 0 ? snapshot.model().acceptance(d.levels[0].bid) : 1.0;
  r.feasible = d.feasible;
  r.use_on_demand = d.use_on_demand;
  r.price = d.backstop;
  r.status = Status::kOk;
  return r;
}

/// Per-kind dispatch without metrics (the public entry points tally).
Response answer(const ModelSnapshot& snapshot, const Request& q) {
  try {
    switch (q.kind) {
      case Kind::kRunLength:
        if (!run_length_valid(q)) return invalid_response(snapshot, q);
        return answer_run_length(snapshot, q, snapshot.model().acceptance(q.bid));
      case Kind::kExpectedCost:
        if (!expected_cost_valid(q)) return invalid_response(snapshot, q);
        return answer_expected_cost(snapshot, q, snapshot.model().acceptance(q.bid),
                                    snapshot.model().partial_expectation(q.bid));
      case Kind::kPersistentFeasibility:
        if (!feasibility_valid(q)) return invalid_response(snapshot, q);
        return answer_feasibility(snapshot, q, snapshot.model().acceptance(q.bid));
      case Kind::kOptimalBid:
        if (!optimal_bid_valid(q)) return invalid_response(snapshot, q);
        return answer_optimal_bid(snapshot, q);
      case Kind::kProviderPrice:
        if (!provider_price_valid(q)) return invalid_response(snapshot, q);
        return answer_provider_price(snapshot, q);
      case Kind::kPortfolioBid:
        if (!portfolio_valid(q)) return invalid_response(snapshot, q);
        return answer_portfolio(snapshot, q);
    }
    return invalid_response(snapshot, q);  // unknown kind byte
  } catch (const std::exception&) {
    // The never-throws policy: an unexpected model error (degenerate law,
    // violated model invariant) must not kill a worker thread.
    Response r = base_response(snapshot, q);
    r.status = Status::kError;
    return r;
  }
}

Response not_found_response(const Request& q) {
  Response r;
  r.kind = q.kind;
  r.status = Status::kNotFound;
  return r;
}

}  // namespace

Response execute_one(const ModelSnapshot* snapshot, const Request& request) {
  request_counter(request.kind).increment();
  Response r = snapshot == nullptr ? not_found_response(request) : answer(*snapshot, request);
  status_counter(r.status).increment();
  return r;
}

void execute_batch(const ModelSnapshot* snapshot, std::span<const Request* const> requests,
                   std::span<Response> responses) {
  SPOTBID_EXPECT(requests.size() == responses.size(),
                 "execute_batch: requests/responses size mismatch");
  // Per-kind / per-status tallies flushed in one Counter::add each: two
  // atomic increments per request are a measurable slice of a ~40 ns
  // closed-form query, and the deterministic totals are unchanged by
  // batching them.
  std::array<std::uint64_t, kKindCount> kind_tally{};
  std::array<std::uint64_t, kStatusCount> status_tally{};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& q = *requests[i];
    ++kind_tally[static_cast<std::size_t>(q.kind)];
    responses[i] = snapshot == nullptr ? not_found_response(q) : answer(*snapshot, q);
    ++status_tally[static_cast<std::size_t>(responses[i].status)];
  }
  for (std::size_t k = 0; k < kKindCount; ++k)
    if (kind_tally[k] != 0) request_counter(static_cast<Kind>(k)).add(kind_tally[k]);
  for (std::size_t s = 0; s < kStatusCount; ++s)
    if (status_tally[s] != 0) status_counter(static_cast<Status>(s)).add(status_tally[s]);
}

}  // namespace spotbid::serve
