#include "core/nonoblivious.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "combinat/binomial.hpp"
#include "combinat/subsets.hpp"
#include "core/batch_walk.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/kahan.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/status.hpp"

namespace ddm::core {

using util::Rational;

namespace {

// Kernel metrics (docs/observability.md). subsets_visited counts Gray-code
// subset evaluations (2·3^n per general-kernel call); kahan_compensation
// records the absolute compensation a bracket accumulated — the live
// cancellation-severity signal behind the certified ladder's tier-0 bound.
struct KernelMetrics {
  obs::Counter gray_calls = obs::counter("kernel.gray_calls");
  obs::Counter symmetric_calls = obs::counter("kernel.symmetric_calls");
  obs::Counter subsets_visited = obs::counter("kernel.subsets_visited");
  obs::Histogram kahan_compensation = obs::histogram("kernel.kahan_compensation");

  static const KernelMetrics& get() {
    static const KernelMetrics metrics;
    return metrics;
  }
};

// 2·3^n: total Gray-code subset evaluations of one general-kernel call
// (each outer assignment with m zeros and k ones walks 2^m + 2^k subsets;
// Σ_b 2^m + 2^k = 2·3^n). n <= 20, so this fits comfortably in 64 bits.
std::uint64_t general_kernel_subsets(std::size_t n) noexcept {
  std::uint64_t p = 1;
  for (std::size_t i = 0; i < n; ++i) p *= 3;
  return 2 * p;
}

// 2·(2^(n+1) − 1): subset evaluations of the per-size path, which walks one
// zeros and one ones bracket per size s = 0..n (Σ_s 2^s + 2^s).
std::uint64_t per_size_kernel_subsets(std::size_t n) noexcept {
  return 2 * ((std::uint64_t{2} << n) - 1);
}

// True when every coordinate carries a[0]'s bit pattern (so 0.0 and −0.0
// differ). Then a Theorem 5.1 bracket over any s players sees the same delta
// sequence in the same Gray order, whichever players they are, and yields
// the same bits: each bracket value depends on its size alone (Section 5.2),
// and the kernels evaluate it once per size instead of once per decision
// vector (docs/performance.md §1.5).
bool constant_point(std::span<const double> a) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(a.front());
  return std::all_of(a.begin() + 1, a.end(),
                     [bits](double x) { return std::bit_cast<std::uint64_t>(x) == bits; });
}

// Splits players 0..n−1 by decision vector b: bit i set puts player i in bin 1.
void split_players(std::uint64_t b, std::size_t n, std::vector<std::size_t>& zeros,
                   std::vector<std::size_t>& ones) {
  zeros.clear();
  ones.clear();
  for (std::size_t i = 0; i < n; ++i) ((b >> i) & 1u ? ones : zeros).push_back(i);
}

void check_thresholds(std::span<const Rational> a, std::size_t max_n) {
  if (a.empty()) throw std::invalid_argument("threshold_winning_probability: need >= 1 player");
  if (a.size() > max_n) {
    throw std::invalid_argument("threshold_winning_probability: n too large for exact 3^n sum");
  }
  for (const Rational& x : a) {
    if (x < Rational{0} || x > Rational{1}) {
      throw std::invalid_argument("threshold_winning_probability: thresholds must lie in [0, 1]");
    }
  }
}

// Both brackets below visit the subsets I in reflected Gray-code order
// (combinat::gray_code): consecutive subsets differ in one element, so the
// bracket's per-subset base value is maintained with a single add or
// subtract instead of an O(m) subset-sum loop, and the inclusion-exclusion
// sign (−1)^|I| simply alternates with the step index. The derivation —
// including why the feasibility guards commute with the reordering — is in
// docs/performance.md.

// Zeros bracket of Theorem 5.1 for the players listed in `zeros`:
//   (1/m!) Σ_{I ⊆ zeros, Σ_{l∈I} a_l < t} (−1)^{|I|} (t − Σ_{l∈I} a_l)^m.
Rational zeros_bracket(std::span<const Rational> a, std::span<const std::size_t> zeros,
                       const Rational& t) {
  const std::size_t m = zeros.size();
  if (m == 0) return Rational{1};  // empty bin never overflows (t > 0)
  Rational remainder = t;  // t − Σ_{l∈I} a_l for the current subset I
  std::uint64_t mask = 0;
  Rational sum = remainder.pow(static_cast<std::int64_t>(m));  // I = ∅ (t > 0)
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    if (mask & bit) {
      remainder -= a[zeros[j]];
    } else {
      remainder += a[zeros[j]];
    }
    if (remainder.signum() <= 0) continue;
    const Rational term = remainder.pow(static_cast<std::int64_t>(m));
    if (combinat::gray_parity_odd(i)) {
      sum -= term;
    } else {
      sum += term;
    }
  }
  return sum * combinat::inverse_factorial(static_cast<std::uint32_t>(m));
}

// Ones bracket of Theorem 5.1 for the players listed in `ones`:
//   Π (1−a_l)  −  (1/k!) Σ_{I ⊆ ones, k−t−|I|+Σ a_l > 0} (−1)^{|I|} (k−t−|I|+Σ_{l∈I} a_l)^k.
// The Gray walk maintains base = k − t + Σ_{l∈I} (a_l − 1) directly: adding
// element l to I shifts the base by (a_l − 1), covering both the +a_l and the
// −|I| bookkeeping in one update.
Rational ones_bracket(std::span<const Rational> a, std::span<const std::size_t> ones,
                      const Rational& t) {
  const std::size_t k = ones.size();
  if (k == 0) return Rational{1};
  Rational product{1};
  std::vector<Rational> shifted(k);  // a_l − 1 per listed player
  for (std::size_t j = 0; j < k; ++j) {
    product *= Rational{1} - a[ones[j]];
    shifted[j] = a[ones[j]] - Rational{1};
  }
  Rational base = Rational{static_cast<std::int64_t>(k)} - t;  // I = ∅
  std::uint64_t mask = 0;
  Rational sum{0};
  if (base.signum() > 0) sum = base.pow(static_cast<std::int64_t>(k));
  const std::uint64_t limit = std::uint64_t{1} << k;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    if (mask & bit) {
      base += shifted[j];
    } else {
      base -= shifted[j];
    }
    if (base.signum() <= 0) continue;
    const Rational term = base.pow(static_cast<std::int64_t>(k));
    if (combinat::gray_parity_odd(i)) {
      sum -= term;
    } else {
      sum += term;
    }
  }
  return product - sum * combinat::inverse_factorial(static_cast<std::uint32_t>(k));
}

}  // namespace

Rational threshold_winning_probability(std::span<const Rational> a, const Rational& t) {
  check_thresholds(a, 16);
  if (t.signum() <= 0) return Rational{0};
  const std::size_t n = a.size();
  DDM_SPAN("kernel.gray_exact", {{"n", static_cast<std::int64_t>(n)}});
  Rational total{0};
  std::vector<std::size_t> zeros;
  std::vector<std::size_t> ones;
  zeros.reserve(n);
  ones.reserve(n);
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t b = 0; b < limit; ++b) {
    split_players(b, n, zeros, ones);
    total += zeros_bracket(a, zeros, t) * ones_bracket(a, ones, t);
  }
  return total;
}

double threshold_winning_probability(std::span<const double> a, double t) {
  if (a.empty()) throw std::invalid_argument("threshold_winning_probability: need >= 1 player");
  if (a.size() > 20) {
    throw std::invalid_argument("threshold_winning_probability: n too large for 3^n sum");
  }
  if (t <= 0.0) return 0.0;
  const std::size_t n = a.size();
  const KernelMetrics& metrics = KernelMetrics::get();
  DDM_SPAN("kernel.gray_ie", {{"n", static_cast<std::int64_t>(n)}});
  metrics.gray_calls.add();
  const bool per_size = constant_point(a);
  if (obs::metrics_enabled()) {
    metrics.subsets_visited.add(per_size ? per_size_kernel_subsets(n) : general_kernel_subsets(n));
  }

  // Gray-code brackets, mirroring the exact versions above: one running-sum
  // update per subset and binary exponentiation instead of std::pow. The
  // running base and the term accumulator carry Kahan compensation so 2^m
  // incremental updates stay within a few ulps of fresh recomputation.
  const auto zeros_bracket_d = [&](std::span<const std::size_t> zeros) {
    const std::size_t m = zeros.size();
    if (m == 0) return 1.0;
    const auto mm = static_cast<std::uint32_t>(m);
    util::KahanSum remainder{t};
    std::uint64_t mask = 0;
    util::KahanSum sum{combinat::pow_uint(t, mm)};  // I = ∅ (t > 0)
    const std::uint64_t limit = std::uint64_t{1} << m;
    for (std::uint64_t i = 1; i < limit; ++i) {
      const std::uint32_t j = combinat::gray_flip_bit(i);
      const std::uint64_t bit = std::uint64_t{1} << j;
      mask ^= bit;
      remainder.add((mask & bit) ? -a[zeros[j]] : a[zeros[j]]);
      const double rem = remainder.get();
      if (rem <= 0.0) continue;
      const double term = combinat::pow_uint(rem, mm);
      sum.add(combinat::gray_parity_odd(i) ? -term : term);
    }
    if (obs::metrics_enabled()) metrics.kahan_compensation.record(std::abs(sum.compensation));
    return sum.get() * combinat::inverse_factorial_double(mm);
  };
  const auto ones_bracket_d = [&](std::span<const std::size_t> ones) {
    const std::size_t k = ones.size();
    if (k == 0) return 1.0;
    const auto kk = static_cast<std::uint32_t>(k);
    double product = 1.0;
    for (const std::size_t idx : ones) product *= 1.0 - a[idx];
    // base = k − t + Σ_{l∈I} (a_l − 1): adding player l to I covers both the
    // +a_l and the −|I| bookkeeping in one update.
    util::KahanSum base{static_cast<double>(k) - t};
    std::uint64_t mask = 0;
    util::KahanSum sum{base.get() > 0.0 ? combinat::pow_uint(base.get(), kk) : 0.0};
    const std::uint64_t limit = std::uint64_t{1} << k;
    for (std::uint64_t i = 1; i < limit; ++i) {
      const std::uint32_t j = combinat::gray_flip_bit(i);
      const std::uint64_t bit = std::uint64_t{1} << j;
      mask ^= bit;
      base.add((mask & bit) ? a[ones[j]] - 1.0 : 1.0 - a[ones[j]]);
      const double b = base.get();
      if (b <= 0.0) continue;
      const double term = combinat::pow_uint(b, kk);
      sum.add(combinat::gray_parity_odd(i) ? -term : term);
    }
    if (obs::metrics_enabled()) metrics.kahan_compensation.record(std::abs(sum.compensation));
    return product - sum.get() * combinat::inverse_factorial_double(kk);
  };

  double total = 0.0;
  const std::uint64_t limit = std::uint64_t{1} << n;
  if (per_size) {
    // One bracket per size, then the general path's b-ordered sum.
    std::vector<std::size_t> players(n);
    std::iota(players.begin(), players.end(), std::size_t{0});
    std::vector<double> zeros_by_size(n + 1);
    std::vector<double> ones_by_size(n + 1);
    for (std::size_t s = 0; s <= n; ++s) {
      zeros_by_size[s] = zeros_bracket_d(std::span{players}.first(s));
      ones_by_size[s] = ones_bracket_d(std::span{players}.first(s));
    }
    for (std::uint64_t b = 0; b < limit; ++b) {
      const std::size_t k = combinat::popcount(b);
      total += zeros_by_size[n - k] * ones_by_size[k];
    }
    return require_finite(total, "threshold_winning_probability: double result");
  }
  std::vector<std::size_t> zeros;
  std::vector<std::size_t> ones;
  for (std::uint64_t b = 0; b < limit; ++b) {
    split_players(b, n, zeros, ones);
    total += zeros_bracket_d(zeros) * ones_bracket_d(ones);
  }
  return require_finite(total, "threshold_winning_probability: double result");
}

namespace {

// Batch-kernel metrics (docs/observability.md). `batch.subset_walks_amortized`
// counts the per-point Gray walks the amortized evaluator did NOT have to run:
// a run of P same-size points shares one walk, saving P − 1 of them.
// `engine.simd_width` reports the pack width the walk actually dispatched
// (after DDM_SIMD, compiled widths, and CPU support — never the compiled
// maximum), and `kernel.vector_lanes` counts the points that went through
// full-width vector lanes (tail points run the pinned scalar path).
struct BatchMetrics {
  obs::Counter points = obs::counter("batch.points");
  obs::Counter walks_amortized = obs::counter("batch.subset_walks_amortized");
  obs::Gauge simd_width = obs::gauge("engine.simd_width");
  obs::Counter vector_lanes = obs::counter("kernel.vector_lanes");

  static const BatchMetrics& get() {
    static const BatchMetrics metrics;
    return metrics;
  }
};

using detail::BatchWorkspace;

// The amortized Gray-code subset walk, W points per lane (the generic
// implementation and the bitwise-identity argument live in
// core/batch_walk.hpp; the AVX2/AVX-512 instantiations in their own
// translation units). `width` is the caller's util::simd::dispatch_width()
// — resolved once per batch call so a malformed DDM_SIMD throws on the
// calling thread, before any chunk runs.
void subset_walk(const double* deltas, std::size_t sz, std::size_t count, std::uint32_t exponent,
                 BatchWorkspace& ws, int width) {
  switch (width) {
#if defined(DDM_SIMD_COMPILED_AVX512)
    case 8:
      detail::subset_walk_avx512(deltas, sz, count, exponent, ws);
      return;
#endif
#if defined(DDM_SIMD_COMPILED_AVX2)
    case 4:
      detail::subset_walk_avx2(deltas, sz, count, exponent, ws);
      return;
#endif
#if defined(DDM_SIMD_HAS_SSE2) || defined(DDM_SIMD_HAS_NEON)
    case 2:
      detail::subset_walk_pack<util::simd::Pack<2>>(deltas, sz, count, exponent, ws);
      return;
#endif
    default:
      detail::subset_walk_pack<util::simd::Pack<1>>(deltas, sz, count, exponent, ws);
      return;
  }
}

void record_compensation(const BatchWorkspace& ws, std::size_t count) {
  if (!obs::metrics_enabled()) return;
  const KernelMetrics& metrics = KernelMetrics::get();
  for (std::size_t p = 0; p < count; ++p) metrics.kahan_compensation.record(std::abs(ws.sc[p]));
}

// Zeros bracket over the players in `zeros` for every point of the run,
// written to out[p]. The base tracks t − Σ_{l∈I} a_l, so entering adds −a_l.
void zeros_bracket_run(std::span<const std::size_t> zeros, std::size_t count, double t,
                       double* out, BatchWorkspace& ws, int width) {
  const std::size_t m = zeros.size();
  if (m == 0) {
    std::fill_n(out, count, 1.0);
    return;
  }
  const auto mm = static_cast<std::uint32_t>(m);
  const double init = combinat::pow_uint(t, mm);  // I = ∅ (t > 0)
  for (std::size_t p = 0; p < count; ++p) {
    ws.rs[p] = t;
    ws.rc[p] = 0.0;
    ws.ss[p] = init;
    ws.sc[p] = 0.0;
  }
  for (std::size_t j = 0; j < m; ++j) {
    const double* col = ws.coords.data() + zeros[j] * count;
    for (std::size_t p = 0; p < count; ++p) ws.deltas[j * count + p] = -col[p];
  }
  subset_walk(ws.deltas.data(), m, count, mm, ws, width);
  record_compensation(ws, count);
  const double inv_fact = combinat::inverse_factorial_double(mm);
  for (std::size_t p = 0; p < count; ++p) out[p] = (ws.ss[p] + ws.sc[p]) * inv_fact;
}

// Ones bracket over the players in `ones` for every point of the run, written
// to out[p]. The base tracks k − t + Σ_{l∈I} (a_l − 1), entering adds a_l − 1.
void ones_bracket_run(std::span<const std::size_t> ones, std::size_t count, double t,
                      double* out, BatchWorkspace& ws, int width) {
  const std::size_t k = ones.size();
  if (k == 0) {
    std::fill_n(out, count, 1.0);
    return;
  }
  const auto kk = static_cast<std::uint32_t>(k);
  std::fill(ws.prod.begin(), ws.prod.end(), 1.0);
  for (std::size_t j = 0; j < k; ++j) {
    const double* col = ws.coords.data() + ones[j] * count;
    for (std::size_t p = 0; p < count; ++p) {
      ws.prod[p] *= 1.0 - col[p];
      ws.deltas[j * count + p] = col[p] - 1.0;
    }
  }
  const double base0 = static_cast<double>(k) - t;
  const double init = base0 > 0.0 ? combinat::pow_uint(base0, kk) : 0.0;
  for (std::size_t p = 0; p < count; ++p) {
    ws.rs[p] = base0;
    ws.rc[p] = 0.0;
    ws.ss[p] = init;
    ws.sc[p] = 0.0;
  }
  subset_walk(ws.deltas.data(), k, count, kk, ws, width);
  record_compensation(ws, count);
  const double inv_fact = combinat::inverse_factorial_double(kk);
  for (std::size_t p = 0; p < count; ++p) {
    out[p] = ws.prod[p] - (ws.ss[p] + ws.sc[p]) * inv_fact;
  }
}

// Evaluates Theorem 5.1 for a run of `count` points of equal size n sharing
// one Gray-code subset walk per bracket, writing out[p] bitwise equal to
// threshold_winning_probability(points[first + p], t). When every point of
// the run is constant the brackets depend on their size alone, so the run
// walks one zeros and one ones bracket per size instead of per decision
// vector, then sums in the same b order.
void amortized_run(std::span<const std::vector<double>> points, std::size_t first,
                   std::size_t count, double t, std::span<double> out, BatchWorkspace& ws,
                   int width) {
  const std::size_t n = points[first].size();
  const auto run = points.subspan(first, count);
  const bool per_size = std::all_of(run.begin(), run.end(), [](const std::vector<double>& point) {
    return constant_point(point);
  });
  DDM_SPAN("kernel.batch_walk", {{"n", static_cast<std::int64_t>(n)},
                                 {"points", static_cast<std::int64_t>(count)}});
  const KernelMetrics& kernel_metrics = KernelMetrics::get();
  const BatchMetrics& batch_metrics = BatchMetrics::get();
  batch_metrics.points.add(count);
  batch_metrics.walks_amortized.add(count - 1);
  if (obs::metrics_enabled()) {
    kernel_metrics.subsets_visited.add(per_size ? per_size_kernel_subsets(n)
                                                : general_kernel_subsets(n));
    batch_metrics.simd_width.set(width);
    if (width > 1) {
      batch_metrics.vector_lanes.add(count - count % static_cast<std::size_t>(width));
    }
  }

  ws.coords.resize(n * count);
  for (std::size_t p = 0; p < count; ++p) {
    for (std::size_t i = 0; i < n; ++i) ws.coords[i * count + p] = run[p][i];
  }
  ws.deltas.resize(n * count);
  for (auto* buf : {&ws.rs, &ws.rc, &ws.ss, &ws.sc, &ws.prod, &ws.zres, &ws.ores, &ws.total}) {
    buf->resize(count);
  }
  std::fill(ws.total.begin(), ws.total.end(), 0.0);

  const std::uint64_t limit = std::uint64_t{1} << n;
  if (per_size) {
    ws.zeros_by_size.resize((n + 1) * count);
    ws.ones_by_size.resize((n + 1) * count);
    std::vector<std::size_t> players(n);
    std::iota(players.begin(), players.end(), std::size_t{0});
    for (std::size_t s = 0; s <= n; ++s) {
      const auto members = std::span<const std::size_t>{players}.first(s);
      zeros_bracket_run(members, count, t, ws.zeros_by_size.data() + s * count, ws, width);
      ones_bracket_run(members, count, t, ws.ones_by_size.data() + s * count, ws, width);
    }
    for (std::uint64_t b = 0; b < limit; ++b) {
      const std::size_t k = combinat::popcount(b);
      const double* zres = ws.zeros_by_size.data() + (n - k) * count;
      const double* ores = ws.ones_by_size.data() + k * count;
      for (std::size_t p = 0; p < count; ++p) ws.total[p] += zres[p] * ores[p];
    }
  } else {
    std::vector<std::size_t> zeros;
    std::vector<std::size_t> ones;
    zeros.reserve(n);
    ones.reserve(n);
    for (std::uint64_t b = 0; b < limit; ++b) {
      split_players(b, n, zeros, ones);
      zeros_bracket_run(zeros, count, t, ws.zres.data(), ws, width);
      ones_bracket_run(ones, count, t, ws.ores.data(), ws, width);
      for (std::size_t p = 0; p < count; ++p) ws.total[p] += ws.zres[p] * ws.ores[p];
    }
  }

  for (std::size_t p = 0; p < count; ++p) {
    out[p] = require_finite(ws.total[p], "threshold_winning_probability: double result");
  }
}

}  // namespace

std::vector<double> threshold_winning_probability_batch(
    std::span<const std::vector<double>> points, double t, const util::RunControl& control) {
  DDM_SPAN("kernel.batch", {{"points", static_cast<std::int64_t>(points.size())}});
  // Validate every point up front, in index order, with the single-point
  // evaluator's exact messages — the batch throws like a sequential loop
  // would, independent of how chunks land on threads.
  for (const std::vector<double>& point : points) {
    if (point.empty()) {
      throw std::invalid_argument("threshold_winning_probability: need >= 1 player");
    }
    if (point.size() > 20) {
      throw std::invalid_argument("threshold_winning_probability: n too large for 3^n sum");
    }
  }
  std::vector<double> values(points.size(), 0.0);
  if (t <= 0.0) return values;  // mirrors the single-point evaluator
  // Resolve the SIMD dispatch width up front, on the calling thread: a
  // malformed DDM_SIMD throws ddm::Error here (exit 2 from the CLI) before
  // any chunk is scheduled, and every chunk then walks at the same width.
  const int simd_width = util::simd::dispatch_width();
  // Chunks of kThresholdBatchBlock points share one Gray-code subset walk per
  // run of equal-size points (amortized_run above); per point the arithmetic
  // is bitwise identical to a single-point call — at EVERY dispatch width,
  // because the vector lanes run across points with the serial op sequence
  // per lane (core/batch_walk.hpp) — so neither blocking nor parallelism nor
  // vectorization ever changes results. The validate hook rejects any chunk
  // holding a non-finite value — whether produced by the kernel or injected
  // by a nan-poison fault directive — so the engine recomputes it instead of
  // returning silently-corrupt rows.
  util::ParallelOptions options;
  options.grain = kThresholdBatchBlock;
  options.label = "threshold_batch";
  options.control = control;
  options.validate = [&values](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      if (!std::isfinite(values[p])) return false;
    }
    return true;
  };
  util::parallel_for(
      0, points.size(),
      [&](std::size_t lo, std::size_t hi) {
        BatchWorkspace ws;
        std::size_t idx = lo;
        while (idx < hi) {
          std::size_t end = idx + 1;
          while (end < hi && points[end].size() == points[idx].size()) ++end;
          amortized_run(points, idx, end - idx, t,
                        std::span<double>{values.data() + idx, end - idx}, ws, simd_width);
          idx = end;
        }
        // Chunk ordinal for fault directives: lo / kThresholdBatchBlock.
        if (util::fault::active() && util::fault::consume_nan(lo / kThresholdBatchBlock)) {
          values[lo] = std::numeric_limits<double>::quiet_NaN();
        }
      },
      options);
  return values;
}

Rational symmetric_zero_bracket(std::uint32_t m, const Rational& beta, const Rational& t) {
  if (m == 0) return Rational{1};
  Rational sum{0};
  for (std::uint32_t l = 0; l <= m; ++l) {
    const Rational base = t - Rational{static_cast<std::int64_t>(l)} * beta;
    if (base.signum() <= 0) continue;
    const Rational term =
        Rational{combinat::binomial(m, l), util::BigInt{1}} * base.pow(static_cast<std::int64_t>(m));
    if (l % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  return sum * combinat::inverse_factorial(m);
}

Rational symmetric_one_bracket(std::uint32_t k, const Rational& beta, const Rational& t) {
  if (k == 0) return Rational{1};
  const Rational kk{static_cast<std::int64_t>(k)};
  Rational sum{0};
  for (std::uint32_t l = 0; l <= k; ++l) {
    const Rational ll{static_cast<std::int64_t>(l)};
    const Rational base = kk - t - ll + ll * beta;
    if (base.signum() <= 0) continue;
    const Rational term =
        Rational{combinat::binomial(k, l), util::BigInt{1}} * base.pow(static_cast<std::int64_t>(k));
    if (l % 2 == 0) {
      sum += term;
    } else {
      sum -= term;
    }
  }
  return (Rational{1} - beta).pow(static_cast<std::int64_t>(k)) -
         sum * combinat::inverse_factorial(k);
}

Rational symmetric_threshold_winning_probability(std::uint32_t n, const Rational& beta,
                                                 const Rational& t) {
  if (n == 0) throw std::invalid_argument("symmetric_threshold_winning_probability: n == 0");
  if (beta < Rational{0} || beta > Rational{1}) {
    throw std::invalid_argument("symmetric_threshold_winning_probability: beta outside [0, 1]");
  }
  if (t.signum() <= 0) return Rational{0};
  DDM_SPAN("kernel.sym_exact", {{"n", static_cast<std::int64_t>(n)}});
  Rational total{0};
  for (std::uint32_t k = 0; k <= n; ++k) {
    total += Rational{combinat::binomial(n, k), util::BigInt{1}} *
             symmetric_zero_bracket(n - k, beta, t) * symmetric_one_bracket(k, beta, t);
  }
  return total;
}

double symmetric_threshold_winning_probability(std::uint32_t n, double beta, double t) {
  if (n == 0) throw std::invalid_argument("symmetric_threshold_winning_probability: n == 0");
  if (beta < 0.0 || beta > 1.0) {
    throw std::invalid_argument("symmetric_threshold_winning_probability: beta outside [0, 1]");
  }
  if (t <= 0.0) return 0.0;
  DDM_SPAN("kernel.symmetric", {{"n", static_cast<std::int64_t>(n)}});
  KernelMetrics::get().symmetric_calls.add();

  const auto zero_bracket = [&](std::uint32_t m) {
    if (m == 0) return 1.0;
    double sum = 0.0;
    for (std::uint32_t l = 0; l <= m; ++l) {
      const double base = t - static_cast<double>(l) * beta;
      if (base <= 0.0) continue;
      const double term = combinat::binomial_double(m, l) * std::pow(base, m);
      sum += (l % 2 == 0) ? term : -term;
    }
    return sum * combinat::inverse_factorial_double(m);
  };
  const auto one_bracket = [&](std::uint32_t k) {
    if (k == 0) return 1.0;
    double sum = 0.0;
    for (std::uint32_t l = 0; l <= k; ++l) {
      const double base =
          static_cast<double>(k) - t - static_cast<double>(l) + static_cast<double>(l) * beta;
      if (base <= 0.0) continue;
      const double term = combinat::binomial_double(k, l) * std::pow(base, k);
      sum += (l % 2 == 0) ? term : -term;
    }
    return std::pow(1.0 - beta, static_cast<double>(k)) -
           sum * combinat::inverse_factorial_double(k);
  };

  double total = 0.0;
  for (std::uint32_t k = 0; k <= n; ++k) {
    total += combinat::binomial_double(n, k) * zero_bracket(n - k) * one_bracket(k);
  }
  return require_finite(total, "symmetric_threshold_winning_probability: double result");
}

}  // namespace ddm::core
