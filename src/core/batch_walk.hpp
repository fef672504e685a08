// batch_walk.hpp — internal detail header for the vector lanes of the
// Theorem 5.1 Gray-code subset walk (core/nonoblivious.cpp), shared with the
// SIMD-specialized translation units (batch_walk_avx2.cpp /
// batch_walk_avx512.cpp).
//
// The walk is generic over a util::simd::Pack width W. Lanes run ACROSS
// POINTS of the run, never across subsets: every per-point floating-point
// op sequence is exactly the serial walk's (one Neumaier base update, one
// clamp, one binary-exponentiation power, one signed Neumaier accumulate
// per subset), so each lane's result is bitwise identical to the serial
// walk for every width — the contract is KEPT, not versioned. The three
// ingredients (derivations in docs/performance.md §1.4 and §4):
//
//   1. element-wise pack add/sub/mul round to nearest per lane, exactly
//      like the corresponding scalar op (no FMA anywhere: the packs have
//      no fused ops and the wide TUs compile with -ffp-contract=off);
//   2. the Neumaier compensation branch becomes a per-lane select of the
//      SAME two expressions the scalar ternary chooses between, and the
//      infeasibility clamp produces the literal +0.0 bit pattern
//      (Pack::clamp_positive), preserving the ±0.0-Kahan no-op argument;
//   3. the count % W trailing points are not walked here at all: the
//      caller runs them through the serial walk in nonoblivious.cpp, the
//      same loop that evaluates a single point.
//
// Linkage. The templates sit in an anonymous namespace, so each
// translation unit (baseline, -mavx2, -mavx512f) gets its own
// internal-linkage instantiation of walk_step and subset_walk_pack. That
// does NOT extend to the inline functions they call: an inline function
// with external linkage that the compiler does not inline (a Debug build)
// is emitted as a weak symbol in every TU that uses it, and the linker keeps
// whichever copy comes first in link order. Had this header used
// util::KahanSum, std::abs, std::vector or a combinat helper, an
// AVX-compiled copy of that function could serve the whole library and
// crash pre-AVX hosts. So the header calls none: the Gray bookkeeping is
// spelled out below, the state arrives as raw pointers, and the only
// external-linkage functions an -mavx* TU emits are the members of its own
// Pack<4> / Pack<8>, which no other TU defines (check with
// `nm -C batch_walk_avx2.cpp.o | grep ' W '` in a Debug build). For the
// same reason the serial walk — scalar code built from KahanSum and
// combinat::pow_uint — lives in the baseline TU, nonoblivious.cpp, and not
// here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace ddm::core::detail {

/// Per-point Kahan state of one bracket walk, structure-of-arrays over the
/// run's points: the running base (rs, rc) and the bracket accumulator
/// (ss, sc).
struct WalkState {
  double* rs;
  double* rc;
  double* ss;
  double* sc;
};

#if defined(DDM_SIMD_COMPILED_AVX2)
/// subset_walk_pack<Pack<4>>, instantiated in batch_walk_avx2.cpp (compiled
/// with -mavx2 -ffp-contract=off). Call only when dispatch_width() says the
/// host executes AVX2.
void subset_walk_avx2(const double* deltas, std::size_t sz, std::size_t count,
                      std::uint32_t exponent, const WalkState& state);
#endif
#if defined(DDM_SIMD_COMPILED_AVX512)
/// subset_walk_pack<Pack<8>>, instantiated in batch_walk_avx512.cpp
/// (compiled with -mavx512f -ffp-contract=off).
void subset_walk_avx512(const double* deltas, std::size_t sz, std::size_t count,
                        std::uint32_t exponent, const WalkState& state);
#endif

namespace {

/// One subset step for the W points starting at `p`: Neumaier base advance,
/// clamp, base^exponent in pow_uint's multiply order, signed Neumaier
/// accumulate.
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

/// One reflected-Gray subset walk over `sz` members for the first
/// count − count % W points of a run, W lanes at a time. `deltas` is an
/// sz × count matrix of per-point running-base increments: entering the
/// subset adds +delta, leaving adds −delta (for the zeros bracket
/// delta = −a_l, for the ones bracket delta = a_l − 1; IEEE negation is
/// exact and x − y = −(y − x) under round-to-nearest, so this matches the
/// two-sided updates of the paper's brackets bitwise). Infeasible subsets
/// (base <= 0), which the serial walk skips with a branch, contribute a
/// clamped ±0.0 term instead; adding ±0.0 leaves a Kahan accumulator
/// bitwise unchanged because neither its sum nor its compensation can ever
/// be −0.0 (derivation in docs/performance.md).
template <class P>
void subset_walk_pack(const double* deltas, std::size_t sz, std::size_t count,
                      std::uint32_t exponent, const WalkState& state) {
  double* rs = state.rs;
  double* rc = state.rc;
  double* ss = state.ss;
  double* sc = state.sc;
  constexpr std::size_t W = P::width;
  const std::size_t vec = count - count % W;
  const std::uint64_t limit = std::uint64_t{1} << sz;
  std::uint64_t mask = 0;
  for (std::uint64_t i = 1; i < limit; ++i) {
    // combinat::gray_flip_bit and gray_parity_odd, spelled out (see Linkage).
    const auto j = static_cast<std::uint32_t>(__builtin_ctzll(i));
    const std::uint64_t bit = std::uint64_t{1} << j;
    mask ^= bit;
    const bool entering = (mask & bit) != 0;
    const bool negative = (i & 1u) != 0;
    const double* row = deltas + j * count;
    for (std::size_t p = 0; p < vec; p += W) {
      walk_step<P>(row, p, entering, negative, exponent, rs, rc, ss, sc);
    }
  }
}

}  // namespace

}  // namespace ddm::core::detail
