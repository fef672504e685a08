// heterogeneous.hpp — heterogeneous input ranges (extension enabled by the
// paper's own tools).
//
// The paper's model fixes x_i ~ U[0, 1], but its probabilistic lemmas
// (Lemma 2.4/2.7) are stated for arbitrary ranges U[0, π_i]. This module
// generalizes the winning-probability engines to players with input ranges
// x_i ~ U[0, c_i] — e.g. jobs from machines of different speeds — exercising
// the full generality of Section 2.
#pragma once

#include <span>
#include <vector>

#include "core/protocol.hpp"
#include "prob/rng.hpp"
#include "util/rational.hpp"

namespace ddm::core {

/// Theorem 4.1 generalized: oblivious protocol α (α_i = P(bin 0)) with inputs
/// x_i ~ U[0, ranges_i], ranges_i > 0. Exact; O(2^n · 2^n) subset sums —
/// throws ddm::Error for n > 14 or invalid parameters.
[[nodiscard]] util::Rational heterogeneous_oblivious_winning_probability(
    std::span<const util::Rational> alpha, std::span<const util::Rational> ranges,
    const util::Rational& t);

/// Theorem 5.1 generalized: single-threshold protocol with thresholds
/// a_i ∈ [0, ranges_i] and inputs x_i ~ U[0, ranges_i]. Exact: players with
/// equal (a_i, c_i) form one class of the grouped evaluator
/// (core/nonoblivious.hpp), so a few distinct ranges cost polynomial time.
/// Throws ddm::Error for invalid parameters or when the grouped cost
/// exceeds kGroupedExactMaxCost (never for n <= 14).
[[nodiscard]] util::Rational heterogeneous_threshold_winning_probability(
    std::span<const util::Rational> thresholds, std::span<const util::Rational> ranges,
    const util::Rational& t);

/// Monte Carlo cross-check: estimate the winning probability of `protocol`
/// when player i's input is U[0, ranges_i] (the protocol's decide() receives
/// the raw input value).
struct HeterogeneousSimResult {
  double estimate = 0.0;
  double standard_error = 0.0;
  std::uint64_t wins = 0;
  std::uint64_t trials = 0;
};
[[nodiscard]] HeterogeneousSimResult estimate_heterogeneous_winning_probability(
    const Protocol& protocol, std::span<const double> ranges, double t, std::uint64_t trials,
    prob::Rng& rng);

}  // namespace ddm::core
