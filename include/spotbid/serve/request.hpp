#pragma once

/// \file request.hpp
/// The typed request/response vocabulary of the bid-advisory service.
///
/// These are exactly the questions a tenant asks the paper's user-side
/// results (docs/SERVE.md):
///
///   kOptimalBid             Proposition 4/5: the optimal one-time or
///                           persistent bid for a job (t_s, t_r);
///   kExpectedCost           eq. 10 (one-time) / eq. 15 (persistent):
///                           expected cost of running the job at a given bid;
///   kRunLength              eq. 8: expected uninterrupted run at a bid;
///   kPersistentFeasibility  eq. 14 feasibility plus the eq.-13 busy time;
///   kProviderPrice          eq. 3: the provider's optimal spot price at a
///                           demand level (the operator-side query);
///   kPortfolioBid           portfolio contract (docs/PORTFOLIO.md): K spot
///                           bid levels + an on-demand backstop share
///                           meeting a deadline at confidence 1 - epsilon.
///
/// A Request names the market it asks about through a flat string key —
/// region x instance type, composed by make_key() — resolved against the
/// SnapshotStore at execution time. Responses are plain value structs whose
/// payload is a pure function of (request, resolved snapshot); the service
/// guarantees bit-identical payloads regardless of worker count or
/// micro-batch boundaries (the determinism contract in docs/SERVE.md).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "spotbid/bidding/job.hpp"
#include "spotbid/core/types.hpp"

namespace spotbid::serve {

/// What a request asks for.
enum class Kind : std::uint8_t {
  kOptimalBid,
  kExpectedCost,
  kRunLength,
  kPersistentFeasibility,
  kProviderPrice,
  kPortfolioBid,
};

/// Short name for a Kind ("optimal_bid", ...), used in metric names and
/// reports.
[[nodiscard]] std::string_view kind_name(Kind kind);

/// Bid semantics a kOptimalBid / kExpectedCost request evaluates under.
enum class BidMode : std::uint8_t { kOneTime, kPersistent };

/// How a request was answered.
enum class Status : std::uint8_t {
  kOk,          ///< payload is valid
  kNotFound,    ///< no snapshot published for the request's key
  kInvalid,     ///< request parameters violate the query's preconditions
  kOverloaded,  ///< rejected by backpressure before entering the queue
  kShutdown,    ///< submitted after stop(); never entered the queue
  kError,       ///< the engine raised an unexpected error
};

/// Short name for a Status ("ok", "not_found", ...).
[[nodiscard]] std::string_view status_name(Status status);

/// Compose the canonical snapshot key for a (region, instance type) market,
/// e.g. make_key("us-east-1", "r3.xlarge") == "us-east-1/r3.xlarge".
[[nodiscard]] std::string make_key(std::string_view region, std::string_view instance_type);

/// Most bid levels a kPortfolioBid request may ask for / a response may
/// carry. Mirrors portfolio::kMaxLevels; restated here so the wire
/// vocabulary stays self-contained (net encodes this struct, not the
/// optimizer's).
inline constexpr int kMaxPortfolioLevels = 16;

/// One spot tranche of a portfolio answer: a bid and its share of the
/// job's execution time. Zero-initialized entries beyond level_count keep
/// whole-struct equality meaningful (the determinism bit-identity check).
struct PortfolioLevel {
  Money bid{};
  double share = 0.0;

  [[nodiscard]] friend bool operator==(const PortfolioLevel&, const PortfolioLevel&) = default;
};

/// One advisory query. Fields beyond `key` and `kind` are read per kind:
///  - kOptimalBid:            mode, job
///  - kExpectedCost:          mode, bid, job
///  - kRunLength:             bid
///  - kPersistentFeasibility: bid, job (execution_time, recovery_time)
///  - kProviderPrice:         demand
///  - kPortfolioBid:          mode, job, deadline, epsilon, levels
struct Request {
  std::string key;                      ///< market key (make_key)
  Kind kind = Kind::kOptimalBid;
  BidMode mode = BidMode::kPersistent;
  Money bid{};                          ///< candidate bid price
  bidding::JobSpec job{};               ///< t_s and t_r
  double demand = 0.0;                  ///< L for kProviderPrice
  Hours deadline{};                     ///< T for kPortfolioBid
  double epsilon = 0.0;                 ///< violation budget (>= 1: none)
  std::uint8_t levels = 1;              ///< K in [1, kMaxPortfolioLevels]

  [[nodiscard]] friend bool operator==(const Request&, const Request&) = default;
};

/// One answer. Which payload fields are meaningful depends on the request
/// kind (unused fields keep their zero defaults, so whole-struct equality
/// is the bit-identity check the determinism tests use):
///  - kOptimalBid:            bid, expected_cost, expected_hours
///                            (completion), acceptance, use_on_demand
///  - kExpectedCost:          expected_cost, expected_hours (completion for
///                            persistent, t_s for one-time), acceptance
///  - kRunLength:             expected_hours (eq. 8), acceptance
///  - kPersistentFeasibility: feasible, expected_hours (eq.-13 busy time),
///                            acceptance
///  - kProviderPrice:         price
///  - kPortfolioBid:          levels[0..level_count), on_demand_share,
///                            violation, expected_cost, expected_hours
///                            (the echoed deadline), bid (first level's),
///                            acceptance (first level's), feasible
///                            (violation <= epsilon), use_on_demand
///                            (backstop carries everything), price (the
///                            backstop price the plan was built on)
struct Response {
  Status status = Status::kError;
  Kind kind = Kind::kOptimalBid;
  std::uint64_t epoch = 0;  ///< epoch of the snapshot that answered (0: none)

  Money bid{};              ///< recommended (kOptimalBid) or echoed bid
  Money expected_cost{};    ///< eq. 10 / eq. 15 (may be +infinity)
  Hours expected_hours{};   ///< run length / busy time / completion time
  double acceptance = 0.0;  ///< F(bid)
  bool feasible = false;    ///< eq. 14 (kPersistentFeasibility)
  bool use_on_demand = false;  ///< kOptimalBid: spot cannot beat on-demand
  Money price{};            ///< eq. 3 (kProviderPrice) / portfolio backstop

  double violation = 0.0;        ///< kPortfolioBid: claimed P(miss deadline)
  double on_demand_share = 0.0;  ///< kPortfolioBid: w_0
  std::uint8_t level_count = 0;  ///< kPortfolioBid: spot tranches used
  std::array<PortfolioLevel, kMaxPortfolioLevels> levels{};  ///< tranches

  [[nodiscard]] friend bool operator==(const Response&, const Response&) = default;

  /// True when the payload fields carry an answer.
  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

}  // namespace spotbid::serve
