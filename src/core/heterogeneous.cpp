#include "core/heterogeneous.hpp"

#include <cmath>
#include <string>

#include "core/nonoblivious.hpp"
#include "prob/uniform_sum.hpp"
#include "util/status.hpp"

namespace ddm::core {

using util::Rational;

namespace {

// Validation throws ddm::Error (util/status.hpp), the taxonomy the CLI maps
// to exit 2 and ddm_serve to a structured bad_request — not a bare
// std::invalid_argument that would surface as an internal error.
void check_common(std::span<const Rational> first, std::span<const Rational> ranges,
                  const char* what) {
  if (first.empty()) throw Error(std::string(what) + ": need >= 1 player");
  if (first.size() != ranges.size()) {
    throw Error(std::string(what) + ": size mismatch (" + std::to_string(first.size()) +
                " players, " + std::to_string(ranges.size()) + " ranges)");
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].signum() <= 0) {
      throw Error(std::string(what) + ": range " + std::to_string(i) + " must be > 0");
    }
  }
}

}  // namespace

Rational heterogeneous_oblivious_winning_probability(std::span<const Rational> alpha,
                                                     std::span<const Rational> ranges,
                                                     const Rational& t) {
  check_common(alpha, ranges, "heterogeneous_oblivious_winning_probability");
  for (const Rational& a : alpha) {
    if (a < Rational{0} || a > Rational{1}) {
      throw Error("heterogeneous_oblivious_winning_probability: alpha outside [0, 1]");
    }
  }
  const std::size_t n = alpha.size();
  if (n > 14) {
    throw Error("heterogeneous_oblivious_winning_probability: n too large for exact "
                "evaluation (n = " + std::to_string(n) + " > 14)");
  }
  if (t.signum() <= 0) return Rational{0};

  // Condition on the decision vector b (independent of inputs for oblivious
  // protocols); the two bins' loads are independent sums of U[0, c_i].
  Rational total{0};
  std::vector<Rational> ranges0;
  std::vector<Rational> ranges1;
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    Rational weight{1};
    ranges0.clear();
    ranges1.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (b & (std::uint64_t{1} << i)) {
        weight *= Rational{1} - alpha[i];
        ranges1.push_back(ranges[i]);
      } else {
        weight *= alpha[i];
        ranges0.push_back(ranges[i]);
      }
    }
    if (weight.is_zero()) continue;
    const Rational f0 = prob::sum_uniform_cdf(ranges0, t);
    if (f0.is_zero()) continue;
    total += weight * f0 * prob::sum_uniform_cdf(ranges1, t);
  }
  return total;
}

Rational heterogeneous_threshold_winning_probability(std::span<const Rational> thresholds,
                                                     std::span<const Rational> ranges,
                                                     const Rational& t) {
  check_common(thresholds, ranges, "heterogeneous_threshold_winning_probability");
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (thresholds[i] < Rational{0} || thresholds[i] > ranges[i]) {
      throw Error("heterogeneous_threshold_winning_probability: threshold " + std::to_string(i) +
                  " must lie in [0, range]");
    }
  }
  const std::vector<PlayerClass> classes = group_players(thresholds, ranges);
  check_grouped_exact_cost(grouped_exact_cost(classes),
                           "heterogeneous_threshold_winning_probability");
  return grouped_threshold_winning_probability(classes, t);
}

HeterogeneousSimResult estimate_heterogeneous_winning_probability(
    const Protocol& protocol, std::span<const double> ranges, double t, std::uint64_t trials,
    prob::Rng& rng) {
  if (ranges.size() != protocol.size()) {
    throw Error("estimate_heterogeneous_winning_probability: size mismatch");
  }
  if (trials == 0) {
    throw Error("estimate_heterogeneous_winning_probability: zero trials");
  }
  std::vector<double> inputs(ranges.size());
  std::uint64_t won = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.uniform(0.0, ranges[i]);
    if (wins(protocol, inputs, t, rng)) ++won;
  }
  HeterogeneousSimResult result;
  result.wins = won;
  result.trials = trials;
  result.estimate = static_cast<double>(won) / static_cast<double>(trials);
  result.standard_error = std::sqrt(result.estimate * (1.0 - result.estimate) /
                                    static_cast<double>(trials));
  return result;
}

}  // namespace ddm::core
