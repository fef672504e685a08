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
// subset evaluations (per walk: 2·3^n, or 2·(2^(n+1) − 1) per size for
// constant points); kahan_compensation records the absolute compensation a
// bracket accumulated — the live cancellation-severity signal behind the
// certified ladder's tier-0 bound.
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

namespace {

// Batch-driver metrics (docs/observability.md). `batch.subset_walks_amortized`
// counts the per-point Gray walks the batch driver did NOT have to run: a
// run of P same-size points shares one walk, saving P − 1 of them.
// `engine.simd_width` reports the pack width the walk actually dispatched
// (after DDM_SIMD, compiled widths, and CPU support — never the compiled
// maximum), and `kernel.vector_lanes` counts the points that went through
// full-width vector lanes (tail points run the serial walk).
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

using detail::WalkState;

// Scratch for one run of the walk, reused across a thread's runs so neither
// entry point allocates per call once warm.
struct Workspace {
  std::vector<double> coords;  // batch driver: transposed run coordinates, [i·P + p]
  std::vector<double> deltas;  // per-member base increments for the current walk, [j·P + p]
  std::vector<double> rs, rc;  // running-base Kahan state (sum, compensation)
  std::vector<double> ss, sc;  // bracket-accumulator Kahan state
  std::vector<double> zres;    // zeros-bracket value per point
  std::vector<double> ores;    // ones-bracket value per point
  std::vector<double> zeros_by_size;  // per-size path: zeros bracket, [s·P + p]
  std::vector<double> ones_by_size;   // per-size path: ones bracket, [s·P + p]
  std::vector<double> total;
  std::vector<std::size_t> zeros, ones;  // the current bracket members
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

// Points of a run that advance in full-width vector lanes; the other
// count % width run the serial walk. 0 at width 1.
std::size_t vector_points(std::size_t count, int width) {
  return width > 1 ? count - count % static_cast<std::size_t>(width) : 0;
}

// The vector lanes of one bracket walk over the first vector_points(count,
// width) points (core/batch_walk.hpp; the AVX2 and AVX-512 instantiations sit
// in their own translation units). `width` comes from
// util::simd::dispatch_width(), which only returns compiled widths.
void subset_walk(const double* deltas, std::size_t sz, std::size_t count, std::uint32_t exponent,
                 const WalkState& state, int width) {
  switch (width) {
#if defined(DDM_SIMD_COMPILED_AVX512)
    case 8:
      detail::subset_walk_avx512(deltas, sz, count, exponent, state);
      return;
#endif
#if defined(DDM_SIMD_COMPILED_AVX2)
    case 4:
      detail::subset_walk_avx2(deltas, sz, count, exponent, state);
      return;
#endif
#if defined(DDM_SIMD_HAS_SSE2) || defined(DDM_SIMD_HAS_NEON)
    case 2:
      detail::subset_walk_pack<util::simd::Pack<2>>(deltas, sz, count, exponent, state);
      return;
#endif
    default:
      return;
  }
}

// The serial walk: one point's whole reflected-Gray walk over `sz` members,
// its Kahan state in registers from the bracket's I = ∅ values (base0,
// init) on. `deltas` is the run's matrix offset to the point's column
// (stride `count`). Per point it runs the op sequence of one lane of
// subset_walk_pack; where a lane adds the clamped ±0.0 term of an
// infeasible subset, this loop skips the subset, which leaves the
// accumulator bitwise the same (core/batch_walk.hpp). It evaluates every
// bracket of a single point and the count % W rest of a batch run, and
// returns the bracket accumulator.
util::KahanSum serial_walk(const double* deltas, std::size_t sz, std::size_t count,
                           std::uint32_t exponent, double base0, double init) {
  util::KahanSum base{base0};
  util::KahanSum sum{init};
  const std::uint64_t limit = std::uint64_t{1} << sz;
  std::uint64_t mask = 0;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    const double delta = deltas[j * count];
    base.add((mask & bit) ? delta : -delta);
    const double b = base.get();
    if (b <= 0.0) continue;
    const double term = combinat::pow_uint(b, exponent);
    sum.add(combinat::gray_parity_odd(i) ? -term : term);
  }
  return sum;
}

// One Theorem 5.1 bracket over the players in `members` for every point of
// the run, written to out[p]. The zeros bracket tracks the base
// t − Σ_{l∈I} a_l (entering adds −a_l) and is (1/m!)·S; the ones bracket
// tracks k − t + Σ_{l∈I} (a_l − 1) (entering adds a_l − 1, covering both the
// +a_l and the −|I| bookkeeping in one update) and is Π (1 − a_l) − (1/k!)·S.
// The walk's per-bracket compensation is the one metric recorded here: only
// the walk sees it.
void bracket_run(bool ones, std::span<const std::size_t> members, const double* coords,
                 std::size_t count, double t, double* out, Workspace& ws, int width) {
  const std::size_t m = members.size();
  if (m == 0) {  // empty bin never overflows (t > 0)
    std::fill_n(out, count, 1.0);
    return;
  }
  const auto mm = static_cast<std::uint32_t>(m);
  double* deltas = ws.deltas.data();
  for (std::size_t j = 0; j < m; ++j) {
    const double* col = coords + members[j] * count;
    for (std::size_t p = 0; p < count; ++p) {
      deltas[j * count + p] = ones ? col[p] - 1.0 : -col[p];
    }
  }
  const double base0 = ones ? static_cast<double>(m) - t : t;  // I = ∅
  const double init = base0 > 0.0 ? combinat::pow_uint(base0, mm) : 0.0;
  const WalkState state{ws.rs.data(), ws.rc.data(), ws.ss.data(), ws.sc.data()};
  const std::size_t lanes = vector_points(count, width);
  if (lanes > 0) {
    for (std::size_t p = 0; p < lanes; ++p) {
      state.rs[p] = base0;
      state.rc[p] = 0.0;
      state.ss[p] = init;
      state.sc[p] = 0.0;
    }
    subset_walk(deltas, m, count, mm, state, width);
  }
  for (std::size_t p = lanes; p < count; ++p) {
    const util::KahanSum sum = serial_walk(deltas + p, m, count, mm, base0, init);
    state.ss[p] = sum.sum;
    state.sc[p] = sum.compensation;
  }
  const double inv_fact = combinat::inverse_factorial_double(mm);
  const bool record = obs::metrics_enabled();
  for (std::size_t p = 0; p < count; ++p) {
    if (record) KernelMetrics::get().kahan_compensation.record(std::abs(state.sc[p]));
    const double sum = (state.ss[p] + state.sc[p]) * inv_fact;
    if (!ones) {
      out[p] = sum;
      continue;
    }
    double product = 1.0;
    for (std::size_t j = 0; j < m; ++j) product *= 1.0 - coords[members[j] * count + p];
    out[p] = product - sum;
  }
}

// True when every coordinate of point p carries the same bit pattern (so 0.0
// and −0.0 differ). Then a bracket over any s players sees the same delta
// sequence in the same Gray order, whichever players they are, and yields
// the same bits: each bracket value depends on its size alone (Section 5.2),
// and the run evaluates it once per size instead of once per decision
// vector (docs/performance.md §1.5).
bool constant_point(const double* coords, std::size_t n, std::size_t count, std::size_t p) {
  const auto bits = std::bit_cast<std::uint64_t>(coords[p]);
  for (std::size_t i = 1; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(coords[i * count + p]) != bits) return false;
  }
  return true;
}

// The double Theorem 5.1 walk: evaluates a run of `count` points of size n,
// given as the n × count matrix `coords` ([i·count + p]), and writes
// out[p]. Each bracket is one Gray-code subset walk shared by the run:
// full-width vector lanes for the first count − count % width points, the
// serial walk for the rest — so width 1 is the plain per-point loop. When
// every point is constant the run walks one zeros and one ones bracket per
// size, else one pair per decision vector; the sum over b is in the same
// order either way. Returns the subsets one walk visited: 2·(2^(n+1) − 1)
// per size, 2·3^n per decision vector. Opens no span and counts nothing
// but the compensation histogram (bracket_run); the two entry points own
// their metrics.
std::uint64_t amortized_run(const double* coords, std::size_t n, std::size_t count, double t,
                            double* out, Workspace& ws, int width) {
  ws.deltas.resize(n * count);
  for (auto* buf : {&ws.rs, &ws.rc, &ws.ss, &ws.sc, &ws.zres, &ws.ores, &ws.total}) {
    buf->resize(count);
  }
  std::fill(ws.total.begin(), ws.total.end(), 0.0);
  bool per_size = true;
  for (std::size_t p = 0; p < count && per_size; ++p) per_size = constant_point(coords, n, count, p);

  const std::uint64_t limit = std::uint64_t{1} << n;
  std::uint64_t subsets = 0;
  if (per_size) {
    ws.zeros_by_size.resize((n + 1) * count);
    ws.ones_by_size.resize((n + 1) * count);
    ws.zeros.resize(n);
    std::iota(ws.zeros.begin(), ws.zeros.end(), std::size_t{0});
    for (std::size_t s = 0; s <= n; ++s) {
      const auto members = std::span<const std::size_t>{ws.zeros}.first(s);
      bracket_run(false, members, coords, count, t, ws.zeros_by_size.data() + s * count, ws, width);
      bracket_run(true, members, coords, count, t, ws.ones_by_size.data() + s * count, ws, width);
    }
    for (std::uint64_t b = 0; b < limit; ++b) {
      const std::size_t k = combinat::popcount(b);
      const double* zres = ws.zeros_by_size.data() + (n - k) * count;
      const double* ores = ws.ones_by_size.data() + k * count;
      for (std::size_t p = 0; p < count; ++p) ws.total[p] += zres[p] * ores[p];
    }
    subsets = 2 * ((std::uint64_t{2} << n) - 1);
  } else {
    for (std::uint64_t b = 0; b < limit; ++b) {
      split_players(b, n, ws.zeros, ws.ones);
      bracket_run(false, ws.zeros, coords, count, t, ws.zres.data(), ws, width);
      bracket_run(true, ws.ones, coords, count, t, ws.ores.data(), ws, width);
      for (std::size_t p = 0; p < count; ++p) ws.total[p] += ws.zres[p] * ws.ores[p];
    }
    subsets = 2;
    for (std::size_t i = 0; i < n; ++i) subsets *= 3;
  }

  for (std::size_t p = 0; p < count; ++p) {
    out[p] = require_finite(ws.total[p], "threshold_winning_probability: double result");
  }
  return subsets;
}

// The batch driver's step for one run of equal-size points: its span and
// metrics, the coordinate transpose, and one walk at the dispatched width.
void batch_run(std::span<const std::vector<double>> run, double t, double* out, Workspace& ws,
               int width) {
  const std::size_t n = run.front().size();
  const std::size_t count = run.size();
  DDM_SPAN("kernel.batch_walk", {{"n", static_cast<std::int64_t>(n)},
                                 {"points", static_cast<std::int64_t>(count)}});
  const BatchMetrics& batch_metrics = BatchMetrics::get();
  batch_metrics.points.add(count);
  batch_metrics.walks_amortized.add(count - 1);
  ws.coords.resize(n * count);
  for (std::size_t p = 0; p < count; ++p) {
    for (std::size_t i = 0; i < n; ++i) ws.coords[i * count + p] = run[p][i];
  }
  const std::uint64_t subsets = amortized_run(ws.coords.data(), n, count, t, out, ws, width);
  if (obs::metrics_enabled()) {
    KernelMetrics::get().subsets_visited.add(subsets);
    batch_metrics.simd_width.set(width);
    batch_metrics.vector_lanes.add(vector_points(count, width));
  }
}

// Both entry points throw on a bad size before looking at t, with the same
// messages.
void check_point_size(std::size_t n) {
  if (n == 0) throw std::invalid_argument("threshold_winning_probability: need >= 1 player");
  if (n > kThresholdKernelMaxN) {
    throw std::invalid_argument("threshold_winning_probability: n too large for 3^n sum");
  }
}

}  // namespace

double threshold_winning_probability(std::span<const double> a, double t) {
  check_point_size(a.size());
  if (t <= 0.0) return 0.0;
  const std::size_t n = a.size();
  const KernelMetrics& metrics = KernelMetrics::get();
  DDM_SPAN("kernel.gray_ie", {{"n", static_cast<std::int64_t>(n)}});
  metrics.gray_calls.add();
  // One point is its own n × 1 coordinate matrix. Width 1, whatever DDM_SIMD
  // says: every bracket runs the serial walk.
  double value = 0.0;
  const std::uint64_t subsets = amortized_run(a.data(), n, 1, t, &value, workspace(), 1);
  if (obs::metrics_enabled()) metrics.subsets_visited.add(subsets);
  return value;
}

std::vector<double> threshold_winning_probability_batch(
    std::span<const std::vector<double>> points, double t, const util::RunControl& control) {
  DDM_SPAN("kernel.batch", {{"points", static_cast<std::int64_t>(points.size())}});
  // Validate every point up front, in index order, with the single-point
  // evaluator's exact messages — the batch throws like a sequential loop
  // would, independent of how chunks land on threads.
  for (const std::vector<double>& point : points) check_point_size(point.size());
  std::vector<double> values(points.size(), 0.0);
  if (t <= 0.0) return values;  // mirrors the single-point evaluator
  // Resolve the SIMD dispatch width up front, on the calling thread: a
  // malformed DDM_SIMD throws ddm::Error here (exit 2 from the CLI) before
  // any chunk is scheduled, and every chunk then walks at the same width.
  const int simd_width = util::simd::dispatch_width();
  // Chunks of kThresholdBatchBlock points share one Gray-code subset walk per
  // run of equal-size points (batch_run above); per point the arithmetic
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
        Workspace& ws = workspace();
        std::size_t idx = lo;
        while (idx < hi) {
          std::size_t end = idx + 1;
          while (end < hi && points[end].size() == points[idx].size()) ++end;
          batch_run(points.subspan(idx, end - idx), t, values.data() + idx, ws, simd_width);
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
