#include "engine/registry.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "engine/bound_memo.hpp"
#include "engine/cost_model.hpp"
#include "engine/engines.hpp"
#include "engine/plan_cache.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

struct SelectMetrics {
  obs::Counter selects = obs::counter("engine.selects");
  obs::Counter fallbacks = obs::counter("engine.fallbacks");
  obs::Counter policy_consults = obs::counter("engine.policy.consults");
  obs::Counter policy_model_wins = obs::counter("engine.policy.model_wins");
  obs::Counter policy_static_wins = obs::counter("engine.policy.static_wins");

  static const SelectMetrics& get() {
    static const SelectMetrics metrics;
    return metrics;
  }
};

/// The built-in auto order for each game family. Where the cost model has
/// no data, rank() keeps these orders.
constexpr std::array<std::string_view, 3> kHomogeneousAuto{"compiled", "batch", "kernel"};
constexpr std::array<std::string_view, 2> kGeneralizedAuto{"exact", "mc"};

/// The degrade steps behind a forced engine, followed transitively
/// (compiled -> batch -> kernel). exact only degrades under a generalized
/// game, where no other computed engine can serve the request.
struct DegradeStep {
  std::string_view from;
  std::string_view to;
  bool generalized_only = false;
};
constexpr std::array<DegradeStep, 4> kDegradeSteps{{{"compiled", "batch"},
                                                    {"batch", "kernel"},
                                                    {"certified", "mc"},
                                                    {"exact", "mc", true}}};

[[nodiscard]] std::string_view degrade_step(std::string_view id, const Scenario& scenario) {
  for (const DegradeStep& step : kDegradeSteps) {
    if (step.from == id && (!step.generalized_only || !scenario.is_default())) return step.to;
  }
  return {};
}

/// True when auto may hand `request` to the compiled plan: a small
/// symmetric grid whose certificate clears the REQUEST tolerance. One
/// BoundMemo lookup per call; a miss lowers through the plan cache. A
/// declined plan leaves its reason in `selection.note`.
[[nodiscard]] bool compiled_qualifies(const EvalRequest& request, Selection& selection) {
  if (!request.is_symmetric() || request.n < 1 || request.n > kCompiledAutoMaxN) return false;
  BoundMemo& memo = BoundMemo::get();
  const std::string& digest = request.scenario.digest();
  std::optional<double> bound = memo.lookup(request.n, request.t, digest);
  if (!bound.has_value()) {
    try {
      bound = PlanCache::instance().get_or_lower(request.n, request.t, digest)->max_error_bound();
      memo.store(request.n, request.t, digest, *bound);
    } catch (const std::exception& error) {
      selection.note = std::string("compiled lowering failed (") + error.what() + ")";
      return false;
    }
  }
  selection.compiled_bound = *bound;
  const double tolerance = request.tolerance.to_double();
  if (*bound <= tolerance) return true;
  std::ostringstream note;
  note << "compiled plan certificate " << *bound << " exceeds tolerance " << tolerance;
  selection.note = note.str();
  return false;
}

/// Stable-sorts chain[first, end) by predicted cost (CostModel::order).
/// `end` stops at seeded Monte Carlo: an estimate is never ranked ahead of
/// a computed answer.
void order_by_cost(const CostModel& model, const Registry& registry, const EvalRequest& request,
                   std::vector<const Evaluator*>& chain, std::size_t first) {
  std::vector<std::string_view> ids;
  ids.reserve(chain.size());
  for (std::size_t k = first;
       k < chain.size() && chain[k]->determinism() != Determinism::kRandomized; ++k) {
    ids.push_back(chain[k]->id());
  }
  if (ids.size() < 2) return;
  model.order(ids.data(), ids.size(), request.n, request.size(), request.scenario.digest());
  for (std::size_t k = 0; k < ids.size(); ++k) chain[first + k] = registry.find(ids[k]);
}

}  // namespace

const char* to_string(Determinism determinism) noexcept {
  switch (determinism) {
    case Determinism::kDeterministic:
      return "deterministic";
    case Determinism::kCertified:
      return "certified";
    case Determinism::kRandomized:
      return "randomized";
  }
  return "unknown";
}

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* fresh = new Registry();  // leaked: outlives late callers
    register_builtin_engines(*fresh);
    return fresh;
  }();
  return *registry;
}

void Registry::register_engine(std::unique_ptr<Evaluator> evaluator) {
  if (evaluator == nullptr || evaluator->id().empty()) {
    throw Error("Registry::register_engine: engine with empty id");
  }
  if (find(evaluator->id()) != nullptr) {
    throw Error("Registry::register_engine: duplicate engine id '" +
                std::string(evaluator->id()) + "'");
  }
  engines_.push_back(std::move(evaluator));
}

const Evaluator* Registry::find(std::string_view id) const noexcept {
  for (const std::unique_ptr<Evaluator>& evaluator : engines_) {
    if (evaluator->id() == id) return evaluator.get();
  }
  return nullptr;
}

const Evaluator& Registry::require(std::string_view id) const {
  if (const Evaluator* evaluator = find(id)) return *evaluator;
  std::string message = "unknown engine '" + std::string(id) + "' (registered:";
  for (const std::string_view known : ids()) {
    message += ' ';
    message += known;
  }
  message += ')';
  throw Error(std::move(message));
}

std::vector<std::string_view> Registry::ids() const {
  std::vector<std::string_view> result;
  result.reserve(engines_.size());
  for (const std::unique_ptr<Evaluator>& evaluator : engines_) {
    result.push_back(evaluator->id());
  }
  std::sort(result.begin(), result.end());
  return result;
}

Selection rank(const EnginePolicy& policy, const EvalRequest& request) {
  const SelectMetrics& metrics = SelectMetrics::get();
  const Registry& registry = Registry::instance();
  Selection selection;
  selection.requested = policy.engine;
  selection.auto_mode = policy.is_auto();
  std::vector<const Evaluator*>& chain = selection.chain;
  chain.reserve(kHomogeneousAuto.size());  // the longest chain
  const auto admit = [&](std::string_view id) {
    const Evaluator* evaluator = registry.find(id);
    if (evaluator != nullptr && evaluator->supports(request)) chain.push_back(evaluator);
  };

  std::size_t pinned = 0;  // leading entries the cost model may not move
  if (!selection.auto_mode) {
    const Evaluator& head = registry.require(policy.engine);
    if (!head.supports(request)) {
      throw Error("engine '" + std::string(head.id()) + "' does not support this request (" +
                  std::string(head.describe()) + ")");
    }
    chain.push_back(&head);
    pinned = 1;
    for (std::string_view id = degrade_step(head.id(), request.scenario); !id.empty();
         id = degrade_step(id, request.scenario)) {
      admit(id);
    }
  } else if (request.scenario.is_default()) {
    for (const std::string_view id : kHomogeneousAuto) {
      if (id != "compiled" || compiled_qualifies(request, selection)) admit(id);
    }
  } else {
    for (const std::string_view id : kGeneralizedAuto) admit(id);
    if (!chain.empty() && chain.front()->id() != kGeneralizedAuto[0]) {
      selection.note = "scenario '" + request.scenario.digest() +
                       "' exceeds the exact cost bound";
    }
  }
  if (chain.empty()) {
    throw Error("no engine supports this request (scenario '" + request.scenario.digest() +
                "', n = " + std::to_string(request.n) + ")");
  }

  // A loaded policy table (strictly resolved: a bad DDM_POLICY throws here
  // rather than silently dispatching cold) reorders the chain.
  const std::shared_ptr<CostModel> model = CostModel::configured();
  if (model != nullptr && !model->empty()) {
    const Evaluator* built_in_head = chain.front();
    order_by_cost(*model, registry, request, chain, pinned);
    if (selection.auto_mode) {
      selection.model_consulted = true;
      metrics.policy_consults.add();
      if (chain.front() == built_in_head) {
        metrics.policy_static_wins.add();
      } else {
        metrics.policy_model_wins.add();
      }
    }
  }
  selection.evaluator = chain.front();
  if (!selection.note.empty()) {
    selection.fallback = true;
    selection.note += "; using " + std::string(selection.id());
    metrics.fallbacks.add();
  }
  metrics.selects.add();
  // Span string args must outlive the trace export; the adapter ids are
  // string literals, so they qualify (policy.engine would not).
  DDM_SPAN("engine.select",
           {{"requested", selection.auto_mode ? "auto" : selection.id().data()},
            {"chosen", selection.id().data()},
            {"fallback", selection.fallback ? std::int64_t{1} : std::int64_t{0}}});
  return selection;
}

core::BatchObjective batch_objective(std::string_view engine_id) {
  // Resolve eagerly so a bad id fails at wiring time, not mid-search.
  const Evaluator& evaluator = Registry::instance().require(engine_id);
  return [&evaluator](const std::vector<std::vector<double>>& points, double t) {
    EvalRequest request = EvalRequest::general(points, util::exact_rational(t));
    return evaluator.evaluate(request).values;
  };
}

}  // namespace ddm::engine
