// engines.cpp — the built-in Evaluator adapters.
//
// Each adapter wraps one pre-existing backend behind the engine seam without
// changing a single floating-point operation: the forced-engine CLI outputs
// are pinned byte-identical to the pre-engine ddm_cli by tests/golden_cli/.
// The adapters are stateless; compiled plans live in the shared PlanCache.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/certified.hpp"
#include "core/deviating.hpp"
#include "core/heterogeneous.hpp"
#include "core/nonoblivious.hpp"
#include "core/protocol.hpp"
#include "engine/engines.hpp"
#include "engine/evaluator.hpp"
#include "engine/plan_cache.hpp"
#include "prob/rng.hpp"
#include "sim/monte_carlo.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

[[nodiscard]] std::uint32_t request_n(const EvalRequest& request) {
  if (request.is_symmetric()) return request.n;
  std::uint32_t n = 0;
  for (const std::vector<double>& point : request.points) {
    n = std::max(n, static_cast<std::uint32_t>(point.size()));
  }
  return n;
}

/// Per-point cooperative-stop poll for the serial engines (kernel, mc): a
/// fired deadline/cancellation surfaces with how many points were finished.
void throw_if_stopped(const EvalRequest& request, const char* label, std::size_t completed) {
  switch (request.control.should_stop()) {
    case util::StopReason::kNone:
      return;
    case util::StopReason::kCancelled:
      throw Cancelled(label, completed, request.size());
    case util::StopReason::kDeadline:
      throw DeadlineExceeded(label, completed, request.size());
  }
}

/// The exact rational image of grid point k: the caller's exact grid when
/// provided, else the (exactly representable) double itself.
[[nodiscard]] util::Rational exact_point(const EvalRequest& request, std::size_t k) {
  if (k < request.exact_betas.size()) return request.exact_betas[k];
  return util::exact_rational(request.betas[k]);
}

/// Largest n the exact/certified generalized-scenario paths accept: the
/// heterogeneous Theorem 5.1 and the deviating worst case both run O(2^n)
/// inclusion-exclusion sums (core/heterogeneous.cpp, core/deviating.cpp).
constexpr std::uint32_t kScenarioExactMaxN = 14;

/// True when the request is a well-formed instance of its generalized
/// scenario that the exact rational paths can serve. The homogeneous default
/// never reaches this helper — each engine's supports() keeps its original
/// predicate for the default scenario, byte for byte.
[[nodiscard]] bool supports_scenario_exact(const EvalRequest& request) {
  const std::uint32_t n = request_n(request);
  if (n < 1 || n > kScenarioExactMaxN) return false;
  switch (request.scenario.kind()) {
    case Scenario::Kind::kHomogeneous:
      return true;
    case Scenario::Kind::kHeterogeneous:
      return request.scenario.ranges().size() == n;
    case Scenario::Kind::kDeviating:
      // The deviating game is defined for the symmetric protocol only.
      return request.is_symmetric() && request.scenario.deviators() < n;
  }
  return false;
}

/// The exact per-player thresholds of point k under a heterogeneous
/// scenario: a symmetric grid beta is RELATIVE (a_i = beta * c_i, so the
/// [0,1] grid stays meaningful for any ranges), a general point is the
/// absolute per-player threshold vector.
[[nodiscard]] std::vector<util::Rational> heterogeneous_point(const EvalRequest& request,
                                                              std::size_t k) {
  const std::vector<util::Rational>& ranges = request.scenario.ranges();
  std::vector<util::Rational> thresholds;
  thresholds.reserve(ranges.size());
  if (request.is_symmetric()) {
    const util::Rational beta = exact_point(request, k);
    for (const util::Rational& range : ranges) thresholds.push_back(beta * range);
  } else {
    for (const double a : request.points[k]) thresholds.push_back(util::exact_rational(a));
  }
  return thresholds;
}

/// One exact rational evaluation of point k under the request's generalized
/// scenario (heterogeneous or deviating). Shared by the exact and certified
/// adapters: the generalized formulas are already exact, so "certified"
/// means a width-0 exact-tier enclosure.
[[nodiscard]] util::Rational exact_scenario_value(const EvalRequest& request, std::size_t k) {
  if (request.scenario.kind() == Scenario::Kind::kHeterogeneous) {
    const std::vector<util::Rational> thresholds = heterogeneous_point(request, k);
    return core::heterogeneous_threshold_winning_probability(thresholds,
                                                             request.scenario.ranges(),
                                                             request.t);
  }
  return core::worst_case_deviating_winning_probability(
      request_n(request), request.scenario.deviators(), exact_point(request, k), request.t);
}

/// Exact-tier certificate for an exactly computed value.
[[nodiscard]] CertifiedValue exact_certificate(util::Rational value) {
  CertifiedValue certificate;
  certificate.enclosure = util::RationalInterval{std::move(value)};
  certificate.tier = EvalTier::kExact;
  certificate.met_tolerance = true;
  return certificate;
}

/// exact — exact Rational Theorem 5.1 on the symmetric grid. O(n²) terms per
/// point, so it scales to any n; the answer is the ground truth the parity
/// suite measures every other engine against.
class ExactEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "exact"; }
  Determinism determinism() const noexcept override { return Determinism::kDeterministic; }
  std::string_view describe() const noexcept override {
    return "exact rational Theorem 5.1 (symmetric, O(n^2) terms per point; "
           "generalized scenarios up to n = 14)";
  }
  bool supports(const EvalRequest& request) const override {
    if (request.scenario.is_default()) return request.is_symmetric() && request.n >= 1;
    return supports_scenario_exact(request);
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) {
      throw Error("engine 'exact' cannot serve this request (scenario '" +
                  request.scenario.digest() + "')");
    }
    EvalOutcome outcome;
    outcome.engine_id = "exact";
    outcome.certificate_bound = 0.0;
    outcome.values.resize(request.size(), 0.0);
    outcome.certificates.resize(request.size());
    util::ParallelOptions options;
    options.grain = 1;
    options.label = "engine.exact";
    options.control = request.control;
    util::parallel_for(
        0, request.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            const util::Rational value =
                request.scenario.is_default()
                    ? core::symmetric_threshold_winning_probability(
                          request.n, exact_point(request, k), request.t)
                    : exact_scenario_value(request, k);
            outcome.values[k] = value.to_double();
            outcome.certificates[k] = exact_certificate(value);
          }
        },
        options);
    return outcome;
  }
};

/// The two drivers of the double Theorem 5.1 walk (core/nonoblivious.cpp):
/// one supports() predicate and one point construction, so `kernel` and
/// `batch` differ only in how they drive the walk and are bitwise equal by
/// construction.
class GrayWalkEvaluator : public Evaluator {
 public:
  Determinism determinism() const noexcept override { return Determinism::kDeterministic; }
  bool supports(const EvalRequest& request) const override {
    // The Gray-code walk hard-codes the U[0,1] two-bin game; generalized
    // scenarios are declined honestly so policy code routes around it.
    if (!request.scenario.is_default()) return false;
    const std::uint32_t n = request_n(request);
    return n >= 1 && n <= core::kThresholdKernelMaxN;
  }

 protected:
  /// The request's threshold vectors. A symmetric grid expands each beta to
  /// n equal thresholds in `storage` (points[k].assign(n, beta), as the
  /// pre-engine sweep loop did — pinned byte-identical by golden tests);
  /// general points pass through.
  static std::span<const std::vector<double>> points(const EvalRequest& request,
                                                     std::vector<std::vector<double>>& storage) {
    if (!request.is_symmetric()) return request.points;
    storage.resize(request.betas.size());
    for (std::size_t k = 0; k < request.betas.size(); ++k) {
      storage[k].assign(request.n, request.betas[k]);
    }
    return storage;
  }
};

/// kernel — the walk driven serially, one single-point call per point on the
/// calling thread, polling the request's control between points. Batch's
/// degrade target when the thread pool itself fails.
class KernelEvaluator final : public GrayWalkEvaluator {
 public:
  std::string_view id() const noexcept override { return "kernel"; }
  std::string_view describe() const noexcept override {
    return "serial Gray-code double kernel, O(3^n) per point (n <= 20, homogeneous only)";
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    EvalOutcome outcome;
    outcome.engine_id = "kernel";
    const double t_d = request.t.to_double();
    std::vector<std::vector<double>> storage;
    const auto threshold_points = points(request, storage);
    outcome.values.resize(threshold_points.size(), 0.0);
    for (std::size_t k = 0; k < threshold_points.size(); ++k) {
      throw_if_stopped(request, "engine.kernel", k);
      outcome.values[k] = core::threshold_winning_probability(threshold_points[k], t_d);
    }
    return outcome;
  }
};

/// batch — the walk driven in parallel chunks: one Gray-code subset walk per
/// run of same-size points within a block, vector lanes across points,
/// fanned across the thread pool. The universal fallback of the auto policy.
class BatchEvaluator final : public GrayWalkEvaluator {
 public:
  std::string_view id() const noexcept override { return "batch"; }
  std::string_view describe() const noexcept override {
    return "block-amortized parallel Gray-code batch kernel (n <= 20, homogeneous only)";
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    EvalOutcome outcome;
    outcome.engine_id = "batch";
    std::vector<std::vector<double>> storage;
    outcome.values = core::threshold_winning_probability_batch(
        points(request, storage), request.t.to_double(), request.control);
    return outcome;
  }
};

/// compiled — certified Horner plans through the process-wide LRU plan
/// cache: repeated sweeps, checkpoint blocks, and optimizer runs re-use one
/// lowering per (n, t).
class CompiledEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "compiled"; }
  Determinism determinism() const noexcept override { return Determinism::kDeterministic; }
  std::string_view describe() const noexcept override {
    return "compiled Horner plan (certified lowering, LRU plan cache, homogeneous only)";
  }
  bool supports(const EvalRequest& request) const override {
    // Plans are lowered from the homogeneous Theorem 5.1 piecewise
    // polynomial; no compiled artifact exists for a generalized game.
    return request.scenario.is_default() && request.is_symmetric() && request.n >= 1;
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) throw Error("engine 'compiled' evaluates homogeneous symmetric grids only");
    const auto plan = PlanCache::instance().get_or_lower(request.n, request.t);
    EvalOutcome outcome;
    outcome.engine_id = "compiled";
    outcome.values = plan->eval_grid(request.betas, request.control);
    outcome.certificate_bound = plan->max_error_bound();
    return outcome;
  }
};

/// certified — the escalation ladder on the exact grid: every value carries
/// a rigorous enclosure, escalating double → interval → exact until the
/// request tolerance is met.
class CertifiedEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "certified"; }
  Determinism determinism() const noexcept override { return Determinism::kCertified; }
  std::string_view describe() const noexcept override {
    return "certified escalation ladder (rigorous enclosures per point)";
  }
  bool supports(const EvalRequest& request) const override {
    if (request.scenario.is_default()) return request.is_symmetric() && request.n >= 1;
    return supports_scenario_exact(request);
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) {
      throw Error("engine 'certified' cannot serve this request (scenario '" +
                  request.scenario.digest() + "')");
    }
    // Generalized scenarios evaluate in exact rational arithmetic directly
    // (core/heterogeneous, core/deviating) — there is no double/interval
    // ladder for them, so every certificate is an exact-tier width-0
    // enclosure that trivially meets any tolerance.
    if (!request.scenario.is_default()) {
      EvalOutcome outcome;
      outcome.engine_id = "certified";
      outcome.certificate_bound = 0.0;
      outcome.values.resize(request.size(), 0.0);
      outcome.certificates.resize(request.size());
      util::ParallelOptions options;
      options.grain = 1;
      options.label = "engine.certified";
      options.control = request.control;
      util::parallel_for(
          0, request.size(),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k) {
              CertifiedValue certificate = exact_certificate(exact_scenario_value(request, k));
              certificate.stats.exact_attempts = 1;
              outcome.values[k] = certificate.value();
              outcome.certificates[k] = std::move(certificate);
            }
          },
          options);
      for (const CertifiedValue& certificate : outcome.certificates) {
        outcome.stats += certificate.stats;
      }
      return outcome;
    }
    EvalPolicy policy;
    policy.tolerance = request.tolerance;
    // The ladder polls the same control mid-escalation, so a deadline cuts a
    // point before its interval/exact rungs, not just between points.
    policy.control = request.control;
    EvalOutcome outcome;
    outcome.engine_id = "certified";
    outcome.values.resize(request.size(), 0.0);
    outcome.certificates.resize(request.size());
    util::ParallelOptions options;
    options.grain = 1;
    options.label = "engine.certified";
    options.control = request.control;
    util::parallel_for(
        0, request.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            // Fresh evaluation per attempt: idempotent under engine retry,
            // and CertifiedValue::stats carries this point's counters only.
            outcome.certificates[k] = core::certified_symmetric_threshold_winning_probability(
                request.n, exact_point(request, k), request.t, policy);
            outcome.values[k] = outcome.certificates[k].value();
          }
        },
        options);
    for (const CertifiedValue& certificate : outcome.certificates) {
      outcome.stats += certificate.stats;
    }
    return outcome;
  }
};

/// mc — seeded Monte Carlo estimation. Point k draws from its own stream
/// (seed + point_ids[k], defaulting to seed + k) and each point's trial
/// blocks fan across the pool, so the estimate is reproducible for any
/// thread count, evaluation order, and request partitioning.
class MonteCarloEvaluator final : public Evaluator {
 public:
  std::string_view id() const noexcept override { return "mc"; }
  Determinism determinism() const noexcept override { return Determinism::kRandomized; }
  std::string_view describe() const noexcept override {
    return "seeded Monte Carlo estimation (reproducible per seed; all scenarios)";
  }
  bool supports(const EvalRequest& request) const override {
    const std::uint32_t n = request_n(request);
    if (n < 1) return false;
    switch (request.scenario.kind()) {
      case Scenario::Kind::kHomogeneous:
        return true;
      case Scenario::Kind::kHeterogeneous:
        return request.scenario.ranges().size() == n;
      case Scenario::Kind::kDeviating:
        return request.is_symmetric() && request.scenario.deviators() < n;
    }
    return false;
  }
  EvalOutcome evaluate(const EvalRequest& request) const override {
    if (!supports(request)) {
      throw Error("engine 'mc' cannot serve this request (scenario '" +
                  request.scenario.digest() + "')");
    }
    EvalOutcome outcome;
    outcome.engine_id = "mc";
    outcome.values.resize(request.size(), 0.0);
    const double t_d = request.t.to_double();
    for (std::size_t k = 0; k < request.size(); ++k) {
      throw_if_stopped(request, "engine.mc", k);
      const std::uint64_t point_id =
          k < request.point_ids.size() ? request.point_ids[k] : static_cast<std::uint64_t>(k);
      prob::Rng rng{request.seed + point_id};
      switch (request.scenario.kind()) {
        case Scenario::Kind::kHomogeneous: {
          std::vector<util::Rational> thresholds;
          if (request.is_symmetric()) {
            thresholds.assign(request.n, util::exact_rational(request.betas[k]));
          } else {
            thresholds.reserve(request.points[k].size());
            for (const double a : request.points[k]) {
              thresholds.push_back(util::exact_rational(a));
            }
          }
          const core::SingleThresholdProtocol protocol{std::move(thresholds)};
          outcome.values[k] =
              sim::estimate_winning_probability(protocol, t_d, request.trials, rng,
                                                util::parallelism(), request.control)
                  .estimate;
          break;
        }
        case Scenario::Kind::kHeterogeneous:
          outcome.values[k] = heterogeneous_estimate(request, k, t_d, rng);
          break;
        case Scenario::Kind::kDeviating:
          outcome.values[k] = core::estimate_worst_case_deviating(
                                  request_n(request), request.scenario.deviators(),
                                  request.betas[k], t_d, request.trials, rng)
                                  .estimate;
          break;
      }
    }
    return outcome;
  }

 private:
  /// Heterogeneous estimation: per-player absolute thresholds (relative
  /// beta * c_i on the symmetric grid) as a FunctorProtocol —
  /// SingleThresholdProtocol caps thresholds at 1, which ranges above 1
  /// legitimately exceed — driven through the core simulation cross-check.
  static double heterogeneous_estimate(const EvalRequest& request, std::size_t k, double t_d,
                                       prob::Rng& rng) {
    const std::vector<util::Rational>& ranges = request.scenario.ranges();
    std::vector<double> ranges_d;
    ranges_d.reserve(ranges.size());
    for (const util::Rational& range : ranges) ranges_d.push_back(range.to_double());
    std::vector<core::FunctorProtocol::Rule> rules;
    rules.reserve(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const double threshold =
          request.is_symmetric() ? request.betas[k] * ranges_d[i] : request.points[k][i];
      rules.push_back([threshold](double input, prob::Rng&) {
        return input <= threshold ? core::kBin0 : core::kBin1;
      });
    }
    const core::FunctorProtocol protocol{std::move(rules), "heterogeneous-threshold"};
    return core::estimate_heterogeneous_winning_probability(protocol, ranges_d, t_d,
                                                            request.trials, rng)
        .estimate;
  }
};

}  // namespace

void register_builtin_engines(Registry& registry) {
  registry.register_engine(std::make_unique<BatchEvaluator>());
  registry.register_engine(std::make_unique<CertifiedEvaluator>());
  registry.register_engine(std::make_unique<CompiledEvaluator>());
  registry.register_engine(std::make_unique<ExactEvaluator>());
  registry.register_engine(std::make_unique<KernelEvaluator>());
  registry.register_engine(std::make_unique<MonteCarloEvaluator>());
}

}  // namespace ddm::engine
