// scenario_oracles.hpp — the ungrouped exact evaluators of the generalized
// games, kept as test oracles for the class-grouped Theorem 5.1
// (core::grouped_threshold_winning_probability).
//
// These are the conditioning loop core/deviating.cpp used to run and the
// 2^n decision-vector loop of core/heterogeneous.cpp, unchanged but for
// their validation, which the library functions own. Both call an ungrouped
// Rational Lemma 2.4 (the subset loop prob::sum_uniform_cdf used to run), so
// no part of an oracle shares code with the grouped path it checks. They
// cost O(2^n) Lemma 2.4 sums per conditioning step; keep n <= ~12.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "combinat/binomial.hpp"
#include "util/rational.hpp"

namespace ddm::oracle {

using util::Rational;

/// Lemma 2.4 over all 2^m subsets: P(Σ x_i <= t) with x_i ~ U[0, π_i].
inline Rational sum_uniform_cdf(std::span<const Rational> pi, const Rational& t) {
  if (t.signum() < 0) return Rational{0};
  const std::size_t m = pi.size();
  if (m == 0) return Rational{1};

  Rational sum{0};
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    Rational subset_sum{0};
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    if (subset_sum >= t) continue;  // guard Σ_{l∈I} π_l < t  (Lemma 2.4)
    const Rational term = (t - subset_sum).pow(static_cast<std::int64_t>(m));
    if (__builtin_popcountll(mask) % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  Rational denominator{1};
  for (const Rational& p : pi) denominator *= p;
  Rational result =
      sum * combinat::inverse_factorial(static_cast<std::uint32_t>(m)) / denominator;
  if (result > Rational{1}) result = Rational{1};
  return result;
}

/// P_j of the deviating game: condition on m, the number of followers in
/// bin 0, and multiply the two bins' Lemma 2.4 CDFs.
inline Rational deviating_threshold_winning_probability(std::uint32_t n, std::uint32_t deviators,
                                                        std::uint32_t bin0_deviators,
                                                        const Rational& beta, const Rational& t) {
  if (t.signum() <= 0) return Rational{0};

  const std::uint32_t followers = n - deviators;
  const std::uint32_t j = bin0_deviators;
  const Rational one_minus_beta = Rational{1} - beta;

  // Condition on m, the number of followers in bin 0 (each independently
  // with probability beta). Given m, bin 0 carries m inputs U[0, β] plus j
  // deviator inputs U[0, 1]; bin 1 carries the remaining followers' inputs
  // U[β, 1] (recentered by their β shift for Lemma 2.4) plus k − j deviator
  // inputs U[0, 1].
  Rational total{0};
  std::vector<Rational> widths0;
  std::vector<Rational> widths1;
  for (std::uint32_t m = 0; m <= followers; ++m) {
    const Rational weight = Rational{combinat::binomial(followers, m), util::BigInt{1}} *
                            beta.pow(m) * one_minus_beta.pow(followers - m);
    if (weight.is_zero()) continue;
    widths0.assign(m, beta);
    widths0.insert(widths0.end(), j, Rational{1});
    const Rational f0 = sum_uniform_cdf(widths0, t);
    if (f0.is_zero()) continue;
    const std::uint32_t bin1_followers = followers - m;
    widths1.assign(bin1_followers, one_minus_beta);
    widths1.insert(widths1.end(), deviators - j, Rational{1});
    const Rational shift = beta * Rational{bin1_followers};
    total += weight * f0 * sum_uniform_cdf(widths1, t - shift);
  }
  return total;
}

/// Generalized Theorem 5.1 over all 2^n decision vectors b.
inline Rational heterogeneous_threshold_winning_probability(std::span<const Rational> thresholds,
                                                            std::span<const Rational> ranges,
                                                            const Rational& t) {
  if (t.signum() <= 0) return Rational{0};
  const std::size_t n = thresholds.size();

  // Condition on b: a 0-player's input is U[0, a_i] (weight a_i / c_i), a
  // 1-player's input is U[a_i, c_i] = a_i + U[0, c_i − a_i] (weight
  // (c_i − a_i)/c_i). Bin 1's load is recentered for Lemma 2.4.
  Rational total{0};
  std::vector<Rational> widths0;
  std::vector<Rational> widths1;
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    Rational weight{1};
    widths0.clear();
    widths1.clear();
    Rational shift1{0};
    for (std::size_t i = 0; i < n; ++i) {
      if (b & (std::uint64_t{1} << i)) {
        const Rational width = ranges[i] - thresholds[i];
        weight *= width / ranges[i];
        widths1.push_back(width);
        shift1 += thresholds[i];
      } else {
        weight *= thresholds[i] / ranges[i];
        widths0.push_back(thresholds[i]);
      }
    }
    if (weight.is_zero()) continue;
    const Rational f0 = sum_uniform_cdf(widths0, t);
    if (f0.is_zero()) continue;
    total += weight * f0 * sum_uniform_cdf(widths1, t - shift1);
  }
  return total;
}

}  // namespace ddm::oracle
