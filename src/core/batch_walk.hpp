// batch_walk.hpp — internal detail header for the batch kernel's amortized
// Gray-code subset walk (core/nonoblivious.cpp), shared with the
// SIMD-specialized translation units (batch_walk_avx2.cpp /
// batch_walk_avx512.cpp).
//
// The walk is generic over a util::simd::Pack width W. Lanes run ACROSS
// POINTS of the amortized run, never across subsets: every per-point
// floating-point op sequence is exactly the serial bracket's (one Neumaier
// base update, one clamp, one binary-exponentiation power, one signed
// Neumaier accumulate per subset), so each lane's result is bitwise
// identical to the scalar kernel for every width — the contract is KEPT,
// not versioned. The three ingredients (derivations in
// docs/performance.md §1.4 and §4):
//
//   1. element-wise pack add/sub/mul round to nearest per lane, exactly
//      like the corresponding scalar op (no FMA anywhere: the packs have
//      no fused ops and the wide TUs compile with -ffp-contract=off);
//   2. the Neumaier compensation branch becomes a per-lane select of the
//      SAME two expressions the scalar ternary chooses between, and the
//      infeasibility clamp produces the literal +0.0 bit pattern
//      (Pack::clamp_positive), preserving the ±0.0-Kahan no-op argument;
//   3. the count % W trailing points run the pinned scalar tail path —
//      walk_step<Pack<1>> — which IS the pre-SIMD loop body.
//
// The templates sit in an anonymous namespace ON PURPOSE: each translation
// unit (baseline, -mavx2, -mavx512f) must get its OWN internal-linkage
// instantiations. With external linkage the linker would merge e.g. the
// Pack<1> tail across TUs and could keep the AVX-compiled copy, silently
// executing AVX instructions on the scalar dispatch path and crashing
// pre-AVX hosts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "combinat/subsets.hpp"
#include "util/simd.hpp"

namespace ddm::core::detail {

// Structure-of-arrays scratch for one amortized run; one instance per chunk,
// reused across the chunk's runs and decision vectors (or bracket sizes).
struct BatchWorkspace {
  std::vector<double> coords;  // transposed run coordinates, coords[i·P + p]
  std::vector<double> deltas;  // per-member base increments for the current walk
  std::vector<double> rs, rc;  // running-base Kahan state (sum, compensation)
  std::vector<double> ss, sc;  // bracket-accumulator Kahan state
  std::vector<double> prod;    // ones-bracket Π (1 − a_l)
  std::vector<double> zres;    // zeros-bracket value per point
  std::vector<double> ores;    // ones-bracket value per point
  std::vector<double> zeros_by_size;  // per-size path: zeros bracket, [s·P + p]
  std::vector<double> ones_by_size;   // per-size path: ones bracket, [s·P + p]
  std::vector<double> total;
};

#if defined(DDM_SIMD_COMPILED_AVX2)
/// subset_walk_pack<Pack<4>>, instantiated in batch_walk_avx2.cpp (compiled
/// with -mavx2 -ffp-contract=off). Call only when dispatch_width() says the
/// host executes AVX2.
void subset_walk_avx2(const double* deltas, std::size_t sz, std::size_t count,
                      std::uint32_t exponent, BatchWorkspace& ws);
#endif
#if defined(DDM_SIMD_COMPILED_AVX512)
/// subset_walk_pack<Pack<8>>, instantiated in batch_walk_avx512.cpp
/// (compiled with -mavx512f -ffp-contract=off).
void subset_walk_avx512(const double* deltas, std::size_t sz, std::size_t count,
                        std::uint32_t exponent, BatchWorkspace& ws);
#endif

namespace {

/// One subset step for the W points starting at `p`: Neumaier base advance,
/// clamp, base^exponent in pow_uint's multiply order, signed Neumaier
/// accumulate. With P = Pack<1> this is literally the serial per-point
/// update (the pinned scalar tail path).
template <class P>
inline void walk_step(const double* row, std::size_t p, bool entering, bool negative,
                      std::uint32_t exponent, double* rs, double* rc, double* ss,
                      double* sc) {
  // Advance the running base (Neumaier update) and clamp. The clamp must be
  // the literal +0.0 (never −0.0) so the power phase raises an exact ±0.0
  // for infeasible points; both select operands match the scalar ternary's.
  const P row_p = P::load(row + p);
  const P term = entering ? row_p : -row_p;
  const P rsv = P::load(rs + p);
  P rcv = P::load(rc + p);
  const P next = rsv + term;
  rcv = rcv + P::select_abs_ge(rsv, term, (rsv - next) + term, (term - next) + rsv);
  next.store(rs + p);
  rcv.store(rc + p);
  const P base = P::clamp_positive(next + rcv);
  // base^exponent, replicating pow_uint's multiply order (the final squaring
  // never feeds the result and is skipped).
  P pw = P::broadcast(1.0);
  P sq = base;
  for (std::uint32_t e = exponent; e != 0; e >>= 1) {
    if (e & 1u) pw = pw * sq;
    if (e > 1u) sq = sq * sq;
  }
  // Signed Neumaier accumulate.
  const P acc_term = negative ? -pw : pw;
  const P ssv = P::load(ss + p);
  P scv = P::load(sc + p);
  const P acc_next = ssv + acc_term;
  scv = scv + P::select_abs_ge(ssv, acc_term, (ssv - acc_next) + acc_term,
                               (acc_term - acc_next) + ssv);
  acc_next.store(ss + p);
  scv.store(sc + p);
}

/// One reflected-Gray subset walk over `sz` members, shared by a run of
/// `count` points, W lanes at a time with a scalar tail. `deltas` is an
/// sz × count matrix of per-point running-base increments: entering the
/// subset adds +delta, leaving adds −delta (for the zeros bracket
/// delta = −a_l, for the ones bracket delta = a_l − 1; IEEE negation is
/// exact and x − y = −(y − x) under round-to-nearest, so this matches the
/// serial brackets' two-sided updates bitwise). Infeasible subsets
/// (base <= 0), which the serial code skips with a branch, contribute a
/// clamped ±0.0 term instead; adding ±0.0 leaves a Kahan accumulator
/// bitwise unchanged because neither its sum nor its compensation can ever
/// be −0.0 (derivation in docs/performance.md).
template <class P>
void subset_walk_pack(const double* deltas, std::size_t sz, std::size_t count,
                      std::uint32_t exponent, BatchWorkspace& ws) {
  double* rs = ws.rs.data();
  double* rc = ws.rc.data();
  double* ss = ws.ss.data();
  double* sc = ws.sc.data();
  constexpr std::size_t W = P::width;
  const std::size_t vec = count - count % W;
  const std::uint64_t limit = std::uint64_t{1} << sz;
  std::uint64_t mask = 0;
  for (std::uint64_t i = 1; i < limit; ++i) {
    const std::uint32_t j = combinat::gray_flip_bit(i);
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    const bool entering = (mask & bit) != 0;
    const bool negative = combinat::gray_parity_odd(i);
    const double* row = deltas + j * count;
    for (std::size_t p = 0; p < vec; p += W) {
      walk_step<P>(row, p, entering, negative, exponent, rs, rc, ss, sc);
    }
    for (std::size_t p = vec; p < count; ++p) {
      walk_step<util::simd::Pack<1>>(row, p, entering, negative, exponent, rs, rc, ss, sc);
    }
  }
}

}  // namespace

}  // namespace ddm::core::detail
