// evaluator.hpp — the unified evaluation-engine interface of ddm::engine.
//
// Several backends can evaluate the Theorem 5.1 winning probability of a
// threshold protocol: exact rational arithmetic, the O(3^n) Gray-code double
// kernel (serial or block-amortized/batched), compiled Horner plans lowered
// from the exact piecewise polynomial, the certified escalation ladder, and
// Monte Carlo simulation. Before this layer existed, the policy choosing
// among them lived as ad-hoc branching inside ddm_cli. ddm::engine puts all
// of them behind ONE seam: a request describes *what* to evaluate (a
// symmetric β-grid or general threshold vectors, plus capacity t and a
// tolerance), an Evaluator adapter describes *how*, and the process-wide
// registry (engine/registry.hpp) owns the which — including the ranked
// auto dispatch (engine::rank, engine/policy.hpp) and the LRU plan cache
// (engine/plan_cache.hpp). New backends register once and every caller (CLI
// subcommands, the threshold optimizer, examples) picks them up for free.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/scenario.hpp"
#include "util/certify.hpp"
#include "util/rational.hpp"
#include "util/resilience.hpp"
#include "util/status.hpp"

namespace ddm::engine {

/// What kind of answer an engine produces. Used by callers to decide how to
/// present results (e.g. whether a tolerance or a confidence interval makes
/// sense) — never to silently change them.
enum class Determinism {
  /// Bitwise-reproducible double evaluation: same request, same bits, for
  /// any thread count (kernel, batch, compiled, exact).
  kDeterministic,
  /// Rigorous enclosure semantics: every value carries a proven interval
  /// (the certified escalation ladder).
  kCertified,
  /// Seeded pseudo-random estimation: reproducible for a fixed seed, but an
  /// estimate, not a computation (Monte Carlo).
  kRandomized,
};

[[nodiscard]] const char* to_string(Determinism determinism) noexcept;

/// One batch of evaluation work. Either a symmetric β-grid (`betas`, all n
/// players sharing each threshold) or general per-player threshold vectors
/// (`points`); `points` non-empty means general. The symmetric form may also
/// carry the exact rational image of the grid (`exact_betas`) for engines
/// that evaluate in exact arithmetic on the caller's *intended* grid points
/// (the certified sweep); engines without such a grid evaluate the double
/// values exactly via util::exact_rational.
struct EvalRequest {
  std::uint32_t n = 0;                      ///< players (symmetric form)
  util::Rational t;                         ///< bin capacity
  std::vector<double> betas;                ///< symmetric grid, double image
  std::vector<util::Rational> exact_betas;  ///< optional exact grid, parallel to betas
  std::vector<std::vector<double>> points;  ///< general per-player vectors
  /// Target enclosure width for certified evaluation.
  util::Rational tolerance{1, 1000000000};
  /// Trial count / base seed for randomized engines. Point k of a request
  /// draws from a stream keyed on seed + point_ids[k] (seed + k when
  /// point_ids is empty), so estimates are reproducible and independent of
  /// evaluation order.
  std::uint64_t trials = 200000;
  std::uint64_t seed = 42;
  /// Optional stable per-point identities, parallel to betas/points. Callers
  /// that split one logical grid across several requests (checkpoint blocks,
  /// sweep shards) pass the GLOBAL grid indices here so randomized engines
  /// key their streams on the point's identity, not its position within the
  /// request — a sharded or checkpointed Monte Carlo sweep then reproduces
  /// the unsharded run bit for bit. Deterministic engines ignore it.
  std::vector<std::uint64_t> point_ids;
  /// Cooperative stop for THIS request: engines poll it at their natural
  /// work boundaries (parallel chunks, escalation-ladder rungs, per-point
  /// loops) and surface a fired deadline/cancellation as
  /// ddm::DeadlineExceeded / ddm::Cancelled with partial-progress counts.
  /// Default-constructed = run to completion at zero polling cost.
  util::RunControl control;
  /// The game this request is posed over (engine/scenario.hpp). Defaults to
  /// the paper's homogeneous U[0,1] game; engines that cannot serve a
  /// generalized game decline it via supports(). The scenario's canonical
  /// digest joins every derived cache key, so artifacts computed for one
  /// game are never replayed for another.
  Scenario scenario;

  [[nodiscard]] static EvalRequest symmetric(std::uint32_t n, util::Rational t,
                                             std::vector<double> betas) {
    EvalRequest request;
    request.n = n;
    request.t = std::move(t);
    request.betas = std::move(betas);
    return request;
  }

  /// General per-player threshold vectors. Every point must have the same
  /// length (that length becomes `n`); a ragged batch throws ddm::Error
  /// naming the first offending point index rather than silently taking
  /// points.front().size() as n and mis-evaluating the rest.
  [[nodiscard]] static EvalRequest general(std::vector<std::vector<double>> points,
                                           util::Rational t) {
    EvalRequest request;
    request.n = points.empty() ? 0 : static_cast<std::uint32_t>(points.front().size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      if (points[k].size() != points.front().size()) {
        throw Error("EvalRequest::general: point " + std::to_string(k) + " has " +
                    std::to_string(points[k].size()) + " thresholds, expected " +
                    std::to_string(points.front().size()) + " (ragged batch)");
      }
    }
    request.t = std::move(t);
    request.points = std::move(points);
    return request;
  }

  [[nodiscard]] bool is_symmetric() const noexcept { return points.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return is_symmetric() ? betas.size() : points.size();
  }
};

/// The answer to an EvalRequest. `values[k]` corresponds to point k of the
/// request; the remaining fields say how much to trust it.
struct EvalOutcome {
  std::vector<double> values;
  /// Per-point rigorous enclosures; empty unless the engine is
  /// certificate-bearing (exact, certified).
  std::vector<CertifiedValue> certificates;
  /// Registry id of the engine that actually produced the values.
  std::string engine_id;
  /// Uniform bound on |values[k] − exact| when the engine carries one:
  /// 0 for exact evaluation, the plan certificate for compiled plans,
  /// +inf when no a-priori bound exists (double kernels, Monte Carlo).
  double certificate_bound = std::numeric_limits<double>::infinity();
  /// Escalation-ladder counters accumulated across the request (certified
  /// engine only; zero elsewhere).
  EvalStats stats;
  /// True when the answer was produced by a weaker engine than the request
  /// asked for (deadline pressure or a failing preferred engine made
  /// engine::evaluate_resilient walk its fallback chain). `degradation_note`
  /// then records the chain walked, e.g. "compiled: lowering failed ->
  /// batch". Plain Evaluator::evaluate never sets these.
  bool degraded = false;
  std::string degradation_note;
};

/// One evaluation backend. Implementations are stateless (any per-instance
/// artifacts such as compiled plans live in the shared plan cache), so a
/// single registered instance serves concurrent callers.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Stable registry id ("exact", "kernel", "batch", "compiled",
  /// "certified", "mc"). Must point at storage with static lifetime.
  [[nodiscard]] virtual std::string_view id() const noexcept = 0;

  [[nodiscard]] virtual Determinism determinism() const noexcept = 0;

  /// One-line human-readable description for help text and docs.
  [[nodiscard]] virtual std::string_view describe() const noexcept = 0;

  /// True when this engine can serve `request` (shape and size limits).
  /// evaluate() on an unsupported request throws ddm::Error naming the
  /// limit; supports() lets policy code skip the attempt.
  [[nodiscard]] virtual bool supports(const EvalRequest& request) const = 0;

  /// Evaluates the request. Throws on unsupported requests, lowering
  /// failures (compiled), or evaluation errors; never returns partial
  /// results.
  [[nodiscard]] virtual EvalOutcome evaluate(const EvalRequest& request) const = 0;
};

}  // namespace ddm::engine
