#include "core/deviating.hpp"

#include <string>

#include "core/nonoblivious.hpp"
#include "util/status.hpp"

namespace ddm::core {

using util::Rational;

namespace {

void check_instance(std::uint32_t n, std::uint32_t deviators, const Rational& beta,
                    const char* what) {
  if (n == 0) throw Error(std::string(what) + ": need >= 1 player");
  if (deviators >= n) {
    throw Error(std::string(what) + ": deviators (" + std::to_string(deviators) +
                ") must be < n (" + std::to_string(n) + ")");
  }
  if (beta < Rational{0} || beta > Rational{1}) {
    throw Error(std::string(what) + ": beta outside [0, 1]");
  }
}

std::vector<PlayerClass> strategy_classes(std::uint32_t n, std::uint32_t deviators,
                                          std::uint32_t bin0_deviators, const Rational& beta) {
  // A deviator sent to bin 0 plays threshold 1, one sent to bin 1 threshold 0.
  return {PlayerClass{n - deviators, beta, Rational{1}},
          PlayerClass{bin0_deviators, Rational{1}, Rational{1}},
          PlayerClass{deviators - bin0_deviators, Rational{0}, Rational{1}}};
}

}  // namespace

double deviating_exact_cost(std::uint32_t n, std::uint32_t deviators) {
  double cost = 0.0;
  for (std::uint32_t j = 0; j <= deviators; ++j) {
    cost += grouped_exact_cost(strategy_classes(n, deviators, j, Rational(1, 2)));
  }
  return cost;
}

Rational deviating_threshold_winning_probability(std::uint32_t n, std::uint32_t deviators,
                                                 std::uint32_t bin0_deviators,
                                                 const Rational& beta, const Rational& t) {
  const char* what = "deviating_threshold_winning_probability";
  check_instance(n, deviators, beta, what);
  if (bin0_deviators > deviators) {
    throw Error(std::string(what) + ": bin0 deviators (" + std::to_string(bin0_deviators) +
                ") must be <= deviators (" + std::to_string(deviators) + ")");
  }
  const std::vector<PlayerClass> classes = strategy_classes(n, deviators, bin0_deviators, beta);
  check_grouped_exact_cost(grouped_exact_cost(classes), what);
  return grouped_threshold_winning_probability(classes, t);
}

Rational worst_case_deviating_winning_probability(std::uint32_t n, std::uint32_t deviators,
                                                  const Rational& beta, const Rational& t) {
  const char* what = "worst_case_deviating_winning_probability";
  check_instance(n, deviators, beta, what);
  check_grouped_exact_cost(deviating_exact_cost(n, deviators), what);
  Rational worst;
  bool first = true;
  for (std::uint32_t j = 0; j <= deviators; ++j) {
    const Rational value = deviating_threshold_winning_probability(n, deviators, j, beta, t);
    if (first || value < worst) {
      worst = value;
      first = false;
    }
  }
  return worst;
}

DeviatingSimResult estimate_worst_case_deviating(std::uint32_t n, std::uint32_t deviators,
                                                 double beta, double t, std::uint64_t trials,
                                                 prob::Rng& rng) {
  const char* what = "estimate_worst_case_deviating";
  check_instance(n, deviators, util::Rational::from_double(beta), what);
  if (trials == 0) throw Error(std::string(what) + ": zero trials");

  const std::uint32_t followers = n - deviators;
  DeviatingSimResult result;
  result.trials = trials;
  bool first = true;
  for (std::uint32_t j = 0; j <= deviators; ++j) {
    std::uint64_t wins = 0;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      double load0 = 0.0;
      double load1 = 0.0;
      for (std::uint32_t d = 0; d < deviators; ++d) {
        const double x = rng.uniform(0.0, 1.0);
        if (d < j) {
          load0 += x;
        } else {
          load1 += x;
        }
      }
      for (std::uint32_t f = 0; f < followers; ++f) {
        const double x = rng.uniform(0.0, 1.0);
        if (x <= beta) {
          load0 += x;
        } else {
          load1 += x;
        }
      }
      if (load0 <= t && load1 <= t) ++wins;
    }
    const double estimate = static_cast<double>(wins) / static_cast<double>(trials);
    if (first || estimate < result.estimate) {
      result.estimate = estimate;
      result.worst_bin0 = j;
      first = false;
    }
  }
  return result;
}

}  // namespace ddm::core
