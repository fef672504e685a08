// deviating.hpp — worst-case analysis under k adversarially deviating players.
//
// "Consensus in Equilibrium" (PAPERS.md) asks how a protocol's guarantee
// degrades when some players stop following it. This module answers that for
// the paper's symmetric threshold protocols: n players with x_i ~ U[0, 1],
// of which k deviate. A follower drops into bin 0 iff x_i <= beta; a
// deviator ignores its input and picks a bin adversarially (obliviously —
// the choice may not depend on the realized inputs, matching the oblivious
// adversary of Section 4). By symmetry the adversary's strategy space
// collapses to j, the number of deviators sent to bin 0, and the worst case
// is the minimum over j in {0..k}.
//
// For fixed j the game is a Theorem 5.1 point: a deviator sent to bin 0
// acts as a player with threshold 1, one sent to bin 1 as one with threshold
// 0, so P_j is the class-grouped evaluator (core/nonoblivious.hpp) at three
// classes (β^{n−k}, 1^j, 0^{k−j}): exact, O(n²) terms per j. The cost bound
// kGroupedExactMaxCost keeps deviating:2 exact to n = 133; the Monte Carlo
// cross-check below covers larger n.
//
// With k = 0 this reduces to Theorem 5.1 exactly; with β at the homogeneous
// optimum it measures the protocol's robustness margin.
#pragma once

#include <cstdint>
#include <vector>

#include "prob/rng.hpp"
#include "util/rational.hpp"

namespace ddm::core {

/// The grouped_exact_cost of the exact worst case: its k + 1 three-class
/// points summed, at an interior β (β ∈ {0, 1} only costs less).
[[nodiscard]] double deviating_exact_cost(std::uint32_t n, std::uint32_t deviators);

/// P(win) of the symmetric threshold-β protocol when exactly j of the k
/// deviators choose bin 0 and the rest bin 1. Exact; throws ddm::Error when
/// n == 0, k >= n, j > k, β outside [0, 1], or the point's grouped cost
/// exceeds kGroupedExactMaxCost.
[[nodiscard]] util::Rational deviating_threshold_winning_probability(
    std::uint32_t n, std::uint32_t deviators, std::uint32_t bin0_deviators,
    const util::Rational& beta, const util::Rational& t);

/// The adversarial worst case: min over j in {0..k} of the probability
/// above. Same validation; the cost bound applies to deviating_exact_cost.
[[nodiscard]] util::Rational worst_case_deviating_winning_probability(
    std::uint32_t n, std::uint32_t deviators, const util::Rational& beta,
    const util::Rational& t);

/// Monte Carlo cross-check of the worst case: simulates the same model per
/// adversary strategy j (deviator bin choices fixed, follower inputs and
/// choices drawn) and returns the minimum estimate over j. Point streams are
/// keyed on `rng`'s current state; throws ddm::Error on zero trials or
/// invalid (n, k, beta).
struct DeviatingSimResult {
  double estimate = 0.0;        ///< min over j of the per-strategy estimates
  std::uint32_t worst_bin0 = 0; ///< the j attaining the minimum
  std::uint64_t trials = 0;     ///< trials per strategy
};
[[nodiscard]] DeviatingSimResult estimate_worst_case_deviating(std::uint32_t n,
                                                               std::uint32_t deviators,
                                                               double beta, double t,
                                                               std::uint64_t trials,
                                                               prob::Rng& rng);

}  // namespace ddm::core
