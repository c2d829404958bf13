#pragma once

/// \file engine.hpp
/// Pure request-execution engine: (snapshot, request) -> response.
///
/// Every request runs one code path: per-kind validation, then the model
/// queries it needs (O(log K) CDF / partial-expectation lookups on empirical
/// laws, answered from prefix arrays) feeding the eq. 8/10/13/14/15 closed
/// forms, or one of the Prop. 4/5 and portfolio optimizers.
///
///  - execute_one answers a single request;
///  - execute_batch answers a group of SAME-KEY requests (the micro-batcher's
///    unit) through that same path, request by request, and flushes the
///    per-kind / per-status tallies once per group instead of twice per
///    request. Its responses are therefore bit-identical to execute_one's.
///
/// The engine never throws for malformed requests: parameter violations
/// yield Status::kInvalid, unknown snapshots Status::kNotFound, and any
/// unexpected model error Status::kError. This keeps worker threads alive
/// no matter what a client submits.

#include <cstddef>
#include <span>

#include "spotbid/serve/model_snapshot.hpp"
#include "spotbid/serve/request.hpp"

namespace spotbid::serve {

/// Answer one request against a snapshot (nullptr snapshot -> kNotFound).
[[nodiscard]] Response execute_one(const ModelSnapshot* snapshot, const Request& request);

/// Answer a group of requests that share one key against its snapshot.
/// requests[i] is answered into responses[i]; the spans must have equal
/// sizes. Bit-identical to execute_one per request.
void execute_batch(const ModelSnapshot* snapshot, std::span<const Request* const> requests,
                   std::span<Response> responses);

}  // namespace spotbid::serve
