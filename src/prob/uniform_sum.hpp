// uniform_sum.hpp — distributions of sums of independent uniform variables.
//
// Section 2.2 of the paper: inclusion-exclusion formulas, derived from the
// polytope volume of Proposition 2.2, for
//   Lemma 2.4     F(t) of  Σ x_i,  x_i ~ U[0, π_i]      (heterogeneous ranges)
//   Lemma 2.5     the density of that sum (answers Rota's research problem)
//   Corollary 2.6 the Irwin–Hall special case π_i = 1
//   Lemma 2.7     F(t) of  Σ x_i,  x_i ~ U[π_i, 1]      (shifted uniforms)
// These are the conditional no-overflow probabilities of a single bin given
// which players chose it. Exact Rational and fast double versions provided;
// the double versions use the same summation (numerically stable for the
// small m of interest, m <= ~40).
// The exact versions sum integers over one common denominator (one gcd per
// call), with equal widths merged: grouped_uniform_volume below.
#pragma once

#include <cstdint>
#include <span>

#include "util/bigint.hpp"
#include "util/rational.hpp"

namespace ddm::prob {

// -- exact ------------------------------------------------------------------

/// Lemma 2.4 grouped by width class, in integer volume form: widths w_c
/// (> 0 wherever counts_c > 0) taken counts_c times give
///   V = Σ_{0 <= s <= counts} Π_c C(counts_c, s_c) (−1)^{Σ s} (x − Σ_c s_c w_c)₊^e,
/// so V / (m! Π w_c^{counts_c}) is the CDF at x for e = m = Σ counts (the
/// 2^m-subset sum is the case of multiplicities 1). `terms`, when given, is
/// incremented by the number of positive-base terms evaluated.
[[nodiscard]] util::BigInt grouped_uniform_volume(std::span<const util::BigInt> widths,
                                                  std::span<const std::uint32_t> counts,
                                                  const util::BigInt& x, std::uint32_t exponent,
                                                  std::uint64_t* terms = nullptr);

/// The lcm of the denominators of `values` (1 when empty).
[[nodiscard]] util::BigInt common_denominator(std::span<const util::Rational> values);

/// Lemma 2.4: P(Σ x_i <= t) with x_i ~ U[0, π_i], all π_i > 0.
/// An empty collection sums to 0, so the CDF is 1 for t >= 0 and 0 otherwise.
[[nodiscard]] util::Rational sum_uniform_cdf(std::span<const util::Rational> pi,
                                             const util::Rational& t);

/// Lemma 2.5: density of Σ x_i with x_i ~ U[0, π_i] at t (0 for m == 0).
[[nodiscard]] util::Rational sum_uniform_pdf(std::span<const util::Rational> pi,
                                             const util::Rational& t);

/// Corollary 2.6: P(Σ_{i=1..m} x_i <= t) with x_i ~ U[0, 1] (Irwin–Hall CDF).
[[nodiscard]] util::Rational irwin_hall_cdf(std::uint32_t m, const util::Rational& t);

/// Lemma 2.7: P(Σ x_i <= t) with x_i ~ U[π_i, 1], all 0 <= π_i < 1.
[[nodiscard]] util::Rational sum_shifted_uniform_cdf(std::span<const util::Rational> pi,
                                                     const util::Rational& t);

// -- double -----------------------------------------------------------------

[[nodiscard]] double sum_uniform_cdf(std::span<const double> pi, double t);
[[nodiscard]] double sum_uniform_pdf(std::span<const double> pi, double t);
[[nodiscard]] double irwin_hall_cdf(std::uint32_t m, double t);
[[nodiscard]] double sum_shifted_uniform_cdf(std::span<const double> pi, double t);

}  // namespace ddm::prob
