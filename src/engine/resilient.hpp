// resilient.hpp — resilient evaluation: retry, degradation chain, deadlines.
//
// engine::rank (registry.hpp) answers "which engines SHOULD serve this
// request, in which order"; evaluate_resilient answers "get me an answer
// anyway". It walks rank's candidate chain — head first, then the degrade
// order documented there (compiled -> batch -> kernel, batch -> kernel,
// certified -> mc, exact -> mc under a generalized game, or the auto
// candidates in ranked order) — when the preferred engine fails or runs out
// of time. This file holds no engine ordering of its own.
//
// Per attempt, a ddm::ParallelError (a chunk exhausted its in-region
// retries) is retried at request level under ResilientOptions::retry —
// bounded attempts with deterministic exponential backoff, the sleeps capped
// by the request deadline. A ddm::Error failure (lowering failure, injected
// fault surviving retries) moves to the next engine in the chain. Deadline
// handling splits the remaining budget: an engine with a fallback runs under
// a *soft* deadline at half the remaining time, so when it is cut off the
// chain still has budget to produce a degraded answer; only when the real
// deadline fires does ddm::DeadlineExceeded propagate to the caller.
// ddm::Cancelled always propagates immediately — a cancelled request is
// never served by a fallback.
//
// Any answer produced below the preferred engine sets EvalOutcome::degraded
// and records the chain walked in degradation_note; when nothing fires the
// result is bitwise identical to `selection.evaluator->evaluate(request)`.
// Counters: engine.degraded, engine.retries, engine.chain_exhausted.
// See docs/robustness.md ("Degradation chain").
#pragma once

#include "engine/evaluator.hpp"
#include "engine/policy.hpp"
#include "util/resilience.hpp"

namespace ddm::engine {

/// Knobs for evaluate_resilient.
struct ResilientOptions {
  /// Engine-selection policy, resolved via engine::rank.
  EnginePolicy policy;
  /// Request deadline + cancellation; propagated into every attempt (and
  /// tightened to a soft deadline for engines that still have a fallback).
  util::RunControl control;
  /// Request-level retry for ddm::ParallelError failures. The default
  /// disables request-level retries (the parallel region already retried
  /// each chunk); serving callers attach real backoff.
  util::RetryPolicy retry{.max_retries = 0};
};

/// Evaluates `request` with retry + degradation as documented above. Throws
/// ddm::Cancelled on cancellation, ddm::DeadlineExceeded when the deadline
/// fires with no fallback able to answer in time, and the last engine's
/// error when the whole chain fails.
[[nodiscard]] EvalOutcome evaluate_resilient(const ResilientOptions& options,
                                             const EvalRequest& request);

}  // namespace ddm::engine
