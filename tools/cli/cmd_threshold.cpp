// threshold — exact P of a symmetric threshold protocol (Theorem 5.1).
#include <iomanip>
#include <iostream>
#include <limits>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "cli/report.hpp"
#include "core/certified.hpp"
#include "core/nonoblivious.hpp"
#include "engine/registry.hpp"
#include "util/status.hpp"

namespace ddm::cli {

namespace {

/// Evaluates one point through `policy` and prints the engine-tagged
/// `P(no overflow) = … [engine: …, …]` line. `request` carries the point.
void print_engine_value(const engine::EnginePolicy& policy, const engine::EvalRequest& request) {
  const engine::Selection selection = engine::select(policy, request);
  report_fallback(selection);
  const engine::EvalOutcome outcome = selection.evaluator->evaluate(request);
  const auto flags = std::cout.flags();
  const auto precision = std::cout.precision();
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "  P(no overflow) = " << outcome.values.at(0) << "  [engine: "
            << outcome.engine_id << ", "
            << engine::to_string(selection.evaluator->determinism()) << "]\n";
  std::cout.flags(flags);
  std::cout.precision(precision);
}

/// Generalized-game evaluation: route through the engine layer (the only
/// seam that knows which backend serves which scenario). --certify forces
/// the certified engine so the answer carries a rigorous enclosure; the
/// default lets auto resolve (exact within the cap, else seeded MC).
int run_threshold_scenario(const engine::Scenario& scenario, std::uint32_t n,
                           const util::Rational& t, const util::Rational& beta,
                           const Options& options) {
  std::cout << "Scenario: " << scenario.digest() << "\n";
  engine::EnginePolicy policy;
  policy.engine = options.certify.enabled ? "certified" : options.engine;
  auto request = engine::EvalRequest::symmetric(n, t, {beta.to_double()});
  request.exact_betas = {beta};
  request.scenario = scenario;
  if (!options.certify.enabled) {
    print_engine_value(policy, request);
    return 0;
  }
  request.tolerance = options.certify.policy.tolerance;
  const ddm::CertifiedValue result =
      engine::select(policy, request).evaluator->evaluate(request).certificates.at(0);
  print_certified(result, options.certify.policy);
  return result.met_tolerance ? 0 : 3;
}

}  // namespace

int run_threshold(const std::vector<std::string>& args, const Options& options) {
  const std::uint32_t n = parse_u32("n", args[1]);
  const util::Rational t = parse_rational("t", args[2]);
  const util::Rational beta = parse_rational("beta", args[3]);
  const engine::Scenario scenario = resolve_scenario(options);
  if (!scenario.is_default()) {
    try {
      scenario.check_players(n, "threshold");
    } catch (const Error& error) {
      throw BadArgument(error.what());
    }
  }
  std::cout << "Symmetric single-threshold protocol, beta = " << beta << "\n";
  if (!scenario.is_default()) return run_threshold_scenario(scenario, n, t, beta, options);
  if (options.certify.enabled) {
    const auto result =
        core::certified_symmetric_threshold_winning_probability(n, beta, t,
                                                                options.certify.policy);
    print_certified(result, options.certify.policy);
    return result.met_tolerance ? 0 : 3;
  }
  if (options.engine_set) {
    engine::EnginePolicy policy;
    policy.engine = options.engine;
    auto request = engine::EvalRequest::symmetric(n, t, {beta.to_double()});
    request.exact_betas = {beta};
    print_engine_value(policy, request);
    return 0;
  }
  const util::Rational p = core::symmetric_threshold_winning_probability(n, beta, t);
  std::cout << "  P(no overflow) = " << p << " = " << p.to_double() << "\n";
  return 0;
}

}  // namespace ddm::cli
