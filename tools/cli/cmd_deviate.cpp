// deviate — worst-case threshold protocol analysis under k deviating players.
//
// Answers the robustness question of core/deviating.hpp for one instance:
// with n players, capacity t, and the symmetric threshold-beta protocol, how
// far does P(win) drop when k players deviate adversarially? By symmetry the
// adversary's (oblivious) strategy space collapses to j, the number of
// deviators sent to bin 0; the report prints the exact P_j for every j, the
// adversary's optimum (the minimum), and a seeded Monte Carlo cross-check.
// Each P_j is a three-class grouped Theorem 5.1 point, O(n²) exact terms, so
// the exact part runs while core::deviating_exact_cost stays within
// core::kGroupedExactMaxCost (k = 2 reaches n = 133); past that bound the
// analysis is Monte Carlo only and the report says so.
#include <iomanip>
#include <iostream>
#include <limits>
#include <vector>

#include "cli/commands.hpp"
#include "cli/parse.hpp"
#include "core/deviating.hpp"
#include "core/nonoblivious.hpp"
#include "obs/trace.hpp"
#include "prob/rng.hpp"
#include "util/rational.hpp"

namespace ddm::cli {

int run_deviate(const std::vector<std::string>& args, const Options& options) {
  (void)options;
  const std::uint32_t n = parse_u32("n", args[1]);
  const util::Rational t = parse_rational("t", args[2]);
  const util::Rational beta = parse_rational("beta", args[3]);
  const std::uint32_t deviators = parse_u32("k", args[4]);
  const std::uint64_t trials = args.size() == 6 ? parse_u64("trials", args[5]) : 200000;
  if (n == 0) throw BadArgument("invalid n '0' (deviate needs n >= 1)");
  if (deviators == 0) {
    throw BadArgument("invalid k '0' (with no deviators, use `ddm_cli threshold`)");
  }
  if (deviators >= n) {
    throw BadArgument("invalid k '" + args[4] + "' (needs k < n: at least one follower)");
  }
  if (beta.signum() < 0 || beta > util::Rational{1}) {
    throw BadArgument("invalid beta '" + args[3] + "' (expected 0 <= beta <= 1)");
  }
  if (trials == 0) throw BadArgument("invalid trials '0' (deviate needs trials >= 1)");
  DDM_SPAN("cli.deviate", {{"n", static_cast<std::int64_t>(n)},
                           {"k", static_cast<std::int64_t>(deviators)}});

  std::cout << "Worst-case threshold protocol under " << deviators
            << " adversarially deviating player" << (deviators == 1 ? "" : "s") << "\n"
            << "n = " << n << ", t = " << t << ", beta = " << beta << " (j = deviators in bin 0)\n";
  const double cost = core::deviating_exact_cost(n, deviators);
  const bool exact = cost <= core::kGroupedExactMaxCost;
  if (exact) {
    util::Rational worst;
    std::uint32_t worst_j = 0;
    for (std::uint32_t j = 0; j <= deviators; ++j) {
      const util::Rational p_j =
          core::deviating_threshold_winning_probability(n, deviators, j, beta, t);
      std::cout << "  P_" << j << " = " << p_j << " = " << p_j.to_double() << "\n";
      if (j == 0 || p_j < worst) {
        worst = p_j;
        worst_j = j;
      }
    }
    std::cout << "Worst case (adversary optimum): j = " << worst_j << ", P = " << worst << " = "
              << worst.to_double() << "\n";
  } else {
    std::cout << "grouped cost " << cost << " > " << core::kGroupedExactMaxCost
              << ": exact analysis skipped; Monte Carlo only\n";
  }
  prob::Rng rng{42};
  const core::DeviatingSimResult sim =
      core::estimate_worst_case_deviating(n, deviators, beta.to_double(), t.to_double(), trials,
                                          rng);
  const auto flags = std::cout.flags();
  const auto precision = std::cout.precision();
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "Monte Carlo cross-check (" << sim.trials << " trials/strategy, seed 42): P ~= "
            << sim.estimate << " at j = " << sim.worst_bin0 << "\n";
  std::cout.flags(flags);
  std::cout.precision(precision);
  return 0;
}

}  // namespace ddm::cli
