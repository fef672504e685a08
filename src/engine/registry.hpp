// registry.hpp — the process-wide engine registry and selection policy.
//
// Registry::instance() owns one Evaluator per backend (engine/evaluator.hpp)
// and registers the six built-ins on first use:
//
//   id          determinism     backend
//   ---------   -------------   ----------------------------------------------
//   exact       deterministic   exact Rational Theorem 5.1, class-grouped
//                               (O(n²) symmetric)
//   kernel      deterministic   double Gray-code Theorem 5.1 walk, one point
//                               at a time on the calling thread
//   batch       deterministic   the same walk in parallel blocks with SIMD
//                               lanes (bitwise equal to `kernel` by
//                               construction)
//   compiled    deterministic   certified Horner plan via the LRU plan cache
//   certified   certified       escalation ladder (rigorous enclosures)
//   mc          randomized      seeded Monte Carlo estimation
//
// `rank` resolves an EnginePolicy against a request into ONE ordered
// candidate chain: the head answers, the rest is the degradation order
// engine::evaluate_resilient walks (engine/resilient.hpp). It is the only
// code that orders engines:
//
//   policy        built-in order                      cost model
//   -----------   ---------------------------------   ---------------------
//   auto, homog.  compiled*, batch, kernel            reorders all three
//   auto, gener.  exact (if supported), mc            mc never moves ahead
//   forced id     id, then its degrade steps:         reorders the steps,
//                 compiled->batch->kernel,            never the head
//                 batch->kernel, certified->mc,
//                 exact->mc (generalized games only)
//
//   * compiled is a candidate only for symmetric grids with
//     1 <= n <= kCompiledAutoMaxN whose certificate clears the REQUEST
//     tolerance (one BoundMemo lookup; the plan cache lowers on a miss).
//
// Engines that decline the request via supports() are dropped. With a
// policy table loaded (engine/cost_model.hpp — `ddm_cli calibrate` output
// via --policy / DDM_POLICY / --policy-table) the chain is stable-sorted by
// predicted latency; engines the table has no data for keep the built-in
// order behind the measured ones, so "no table" is simply an empty model.
// Seeded Monte Carlo is an estimate, not a computation, so the model never
// ranks it ahead of a deterministic candidate. The selection is returned —
// never applied silently: when auto declines its first built-in choice the
// Selection carries a human-readable note so callers can surface the
// fallback (the CLI prints it to stderr and stamps the winning engine into
// sweep JSON).
//
// Observability: `engine.select` spans (args: requested id, chosen id) and
// `engine.selects` / `engine.fallbacks` counters; auto ranking under a
// non-empty table adds `engine.policy.consults` and splits it into
// `engine.policy.static_wins` (the model's head equals the built-in head)
// and `engine.policy.model_wins`; the plan cache adds `engine.cache` spans
// and hit/miss/eviction counters.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/threshold_optimizer.hpp"
#include "engine/evaluator.hpp"
#include "engine/policy.hpp"

namespace ddm::engine {

class Registry {
 public:
  /// The process-wide registry, with the built-in engines registered.
  [[nodiscard]] static Registry& instance();

  /// Adds an engine. Throws ddm::Error when the id is empty or already
  /// taken. Thread-compatible: registration happens at startup / test setup,
  /// not concurrently with lookups.
  void register_engine(std::unique_ptr<Evaluator> evaluator);

  /// Engine by id, or nullptr.
  [[nodiscard]] const Evaluator* find(std::string_view id) const noexcept;

  /// Engine by id; throws ddm::Error listing the registered ids when absent.
  [[nodiscard]] const Evaluator& require(std::string_view id) const;

  /// Registered ids, sorted.
  [[nodiscard]] std::vector<std::string_view> ids() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;
  std::vector<std::unique_ptr<Evaluator>> engines_;
};

/// The outcome of resolving an EnginePolicy against a request.
struct Selection {
  /// The chain head: the engine that should answer.
  const Evaluator* evaluator = nullptr;
  /// Every candidate that supports the request, head first, in the order
  /// evaluate_resilient falls back through.
  std::vector<const Evaluator*> chain;
  /// What the policy asked for ("auto" or a concrete id).
  std::string requested;
  /// True when the policy was "auto" (the chosen engine then appears in
  /// per-point reporting and fallbacks carry a note).
  bool auto_mode = false;
  /// True when auto declined its first built-in choice: the compiled
  /// plan's certificate missed the request tolerance or its lowering
  /// failed, or a generalized game exceeds the grouped exact cost bound
  /// (core::kGroupedExactMaxCost).
  bool fallback = false;
  /// One-line reason for the fallback, empty otherwise.
  std::string note;
  /// The compiled plan's certified max-error bound when auto looked one up
  /// (NaN when lowering was not attempted or failed).
  double compiled_bound = std::numeric_limits<double>::quiet_NaN();
  /// True when auto ranked through a non-empty CostModel (forced engines
  /// and table-less processes never set it).
  bool model_consulted = false;

  [[nodiscard]] std::string_view id() const noexcept { return evaluator->id(); }
};

/// Resolves `policy` against `request` on the process registry (see the
/// table above). Forced ids throw ddm::Error when unknown or unsupported
/// for the request's shape; "auto" throws only when no candidate supports
/// the request.
[[nodiscard]] Selection rank(const EnginePolicy& policy, const EvalRequest& request);

/// The head of rank(), for callers that evaluate once without a chain.
[[nodiscard]] inline Selection select(const EnginePolicy& policy, const EvalRequest& request) {
  return rank(policy, request);
}

/// Adapts a registered engine into the threshold optimizer's batch-objective
/// seam (core::BatchObjective): probe batches evaluate through the engine
/// instead of a hard-wired kernel call. With the default "batch" id the
/// iterate sequence is bitwise identical to the built-in objective.
[[nodiscard]] core::BatchObjective batch_objective(std::string_view engine_id = "batch");

}  // namespace ddm::engine
