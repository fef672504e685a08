// nonoblivious.hpp — winning probabilities of single-threshold protocols
// (Section 5, Theorem 5.1).
//
// A deterministic single-threshold protocol has thresholds a_1..a_n; player i
// picks bin 0 iff x_i <= a_i. Conditioned on the decision vector b, the
// inputs of 0-players are U[0, a_i] and of 1-players U[a_i, 1], so the two
// no-overflow probabilities come from Lemma 2.4 and Lemma 2.7. Theorem 5.1
// folds P(y = b) = Π_{b_i=0} a_i · Π_{b_i=1} (1 − a_i) into the brackets:
//
//  P_A(t) = Σ_b  [ (1/(n−|b|)!) Σ_{I ⊆ zeros(b), Σa_l < t} (−1)^{|I|}(t − Σ_{l∈I} a_l)^{n−|b|} ]
//              · [ Π_{l∈ones(b)} (1−a_l)
//                  − (1/|b|!) Σ_{I ⊆ ones(b), |b|−t−|I|+Σa_l > 0} (−1)^{|I|}(|b|−t−|I|+Σ_{l∈I}a_l)^{|b|} ]
//
// The general evaluator runs in O(3^n) exact arithmetic; the symmetric
// special case (all a_i = β, Section 5.2) collapses to O(n²) terms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rational.hpp"
#include "util/resilience.hpp"

namespace ddm::core {

/// Theorem 5.1 for arbitrary thresholds a_i ∈ [0, 1]. Exact; throws
/// std::invalid_argument for n > 16 (use the symmetric version or the
/// double engine for larger systems).
[[nodiscard]] util::Rational threshold_winning_probability(std::span<const util::Rational> a,
                                                           const util::Rational& t);

/// Largest n the double Theorem 5.1 walk accepts (O(3^n) subset steps).
inline constexpr std::size_t kThresholdKernelMaxN = 20;

/// Double-precision Theorem 5.1 for arbitrary thresholds (same O(3^n) sum).
/// A constant point (every coordinate with the same bit pattern) walks each
/// bracket once per size instead of once per decision vector, O(2^n), with
/// the same bits (docs/performance.md §1.5). This is a one-point run of the
/// walk behind threshold_winning_probability_batch, at width 1.
[[nodiscard]] double threshold_winning_probability(std::span<const double> a, double t);

/// Points per parallel chunk of threshold_winning_probability_batch. One
/// amortized Gray-code subset walk serves a whole run of same-size points
/// inside a chunk, and fault-injection directives address chunks by ordinal
/// floor(first_point_index / kThresholdBatchBlock).
inline constexpr std::size_t kThresholdBatchBlock = 16;

/// Evaluates threshold_winning_probability(points[p], t) for every p, fanning
/// blocks of kThresholdBatchBlock points out across the global thread pool
/// (util::parallel_for). Within a block, each run of equal-size points shares
/// ONE reflected-Gray-code subset walk per bracket (per bracket size when
/// every point of the run is constant, per decision vector otherwise): the
/// flip-bit / sign / subset bookkeeping is hoisted into per-subset state and
/// full SIMD-width groups of points advance in vector lanes; the remaining
/// points run the serial walk a single-point call runs. Per point the
/// floating-point op sequence is the same either way, so values[p] is
/// bitwise equal to a single-point call by construction — neither blocking
/// nor parallelism nor vectorization ever changes results. Used by grid sweeps (`ddm_cli sweep`) and the probe
/// batches of `maximize_thresholds`. Validates all points up front in index
/// order with the single-point evaluator's messages.
/// `control` (util/resilience.hpp) is polled at block boundaries: a fired
/// deadline or cancellation surfaces as ddm::DeadlineExceeded /
/// ddm::Cancelled with the completed-block count. The default runs to
/// completion at zero polling cost.
[[nodiscard]] std::vector<double> threshold_winning_probability_batch(
    std::span<const std::vector<double>> points, double t,
    const util::RunControl& control = {});

/// Symmetric Theorem 5.1: all thresholds equal β; O(n²) exact terms
///   P(β) = Σ_k C(n,k) · B0_{n−k}(β) · B1_k(β).
[[nodiscard]] util::Rational symmetric_threshold_winning_probability(std::uint32_t n,
                                                                     const util::Rational& beta,
                                                                     const util::Rational& t);
[[nodiscard]] double symmetric_threshold_winning_probability(std::uint32_t n, double beta,
                                                             double t);

/// The "zeros" bracket for m players below a common threshold β:
///   B0_m(β) = (1/m!) Σ_{l=0..m, t−lβ>0} (−1)^l C(m,l) (t − lβ)^m.
/// Equals a_m^m · P(Σ of m U[0,β] <= t) with the β^m factor folded in.
[[nodiscard]] util::Rational symmetric_zero_bracket(std::uint32_t m, const util::Rational& beta,
                                                    const util::Rational& t);

/// The "ones" bracket for k players above a common threshold β:
///   B1_k(β) = (1−β)^k − (1/k!) Σ_{l=0..k, k−t−l+lβ>0} (−1)^l C(k,l) (k−t−l+lβ)^k.
[[nodiscard]] util::Rational symmetric_one_bracket(std::uint32_t k, const util::Rational& beta,
                                                   const util::Rational& t);

}  // namespace ddm::core
