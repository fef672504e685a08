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
// The exact evaluator groups players into classes of equal (threshold,
// range) and sums over per-class bin-0 counts: O(3^n) terms when every
// player differs, O(n²) in the symmetric case (all a_i = β, Section 5.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rational.hpp"
#include "util/resilience.hpp"

namespace ddm::core {

/// m interchangeable players with threshold a ∈ [0, c] and inputs U[0, c]:
/// a = 0 sends every one of them to bin 1, a = c every one to bin 0.
struct PlayerClass {
  std::uint32_t count = 0;
  util::Rational threshold;
  util::Rational range{1};
};

/// Players with equal (thresholds[i], ranges[i]) merged into classes.
[[nodiscard]] std::vector<PlayerClass> group_players(std::span<const util::Rational> thresholds,
                                                     std::span<const util::Rational> ranges);

/// Theorem 5.1 over player classes, exact: a sum over the per-class bin-0
/// counts whose brackets are grouped Lemma 2.4 volumes over integers
/// (docs/performance.md §8), one Rational per call. Throws
/// std::invalid_argument without players or for a class with range <= 0 or
/// a threshold outside [0, range]; no size cap (see grouped_exact_cost).
[[nodiscard]] util::Rational grouped_threshold_winning_probability(
    std::span<const PlayerClass> classes, const util::Rational& t);

/// The work of grouped_threshold_winning_probability: the bracket terms it
/// visits (at most 2·Π_c C(m_c + 2, 2)) times n² for the growth of the
/// integers with n.
[[nodiscard]] double grouped_exact_cost(std::span<const PlayerClass> classes);

/// The largest grouped_exact_cost the generalized games accept: that of 14
/// distinct players, the most any n <= 14 request can cost.
inline constexpr double kGroupedExactMaxCost = 2.0 * 4782969.0 * 14.0 * 14.0;

/// Throws ddm::Error, prefixed with `what`, when `cost` exceeds
/// kGroupedExactMaxCost.
void check_grouped_exact_cost(double cost, const char* what);

/// Theorem 5.1 for arbitrary thresholds a_i ∈ [0, 1]: the grouped evaluator
/// with equal thresholds merged. Exact; throws std::invalid_argument for
/// n > 16 (use the symmetric version or the double engine for larger
/// systems).
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

/// Symmetric Theorem 5.1: all thresholds equal β, so one player class and
/// (n + 1)(n + 2) exact terms.
[[nodiscard]] util::Rational symmetric_threshold_winning_probability(std::uint32_t n,
                                                                     const util::Rational& beta,
                                                                     const util::Rational& t);
[[nodiscard]] double symmetric_threshold_winning_probability(std::uint32_t n, double beta,
                                                             double t);

}  // namespace ddm::core
