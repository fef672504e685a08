// simd.hpp — the library's portable SIMD layer: fixed-width double packs
// plus the runtime dispatch policy that decides how many lanes the hot
// kernels actually use.
//
// Design (docs/performance.md §4):
//
//   * `Pack<W>` is a W-wide vector of doubles (W = 1, 2, 4, 8) exposing the
//     handful of IEEE-754 operations the kernels need: load/store,
//     broadcast, +, -, *, unary -, abs, a positive clamp, and a per-lane
//     select keyed on |a| >= |b| (the Neumaier compensation branch). Every
//     operation is an element-wise double op with round-to-nearest
//     semantics, so lane l of any Pack expression is BITWISE IDENTICAL to
//     the same scalar expression on lane l's inputs. That identity — not a
//     tolerance — is what lets the vectorized subset walk and vector Horner
//     keep the repo's bitwise-reproducibility contract; the packs therefore
//     never use fused multiply-add (and the AVX2/AVX-512 translation units
//     are compiled with -ffp-contract=off so the compiler cannot fuse
//     behind our back).
//
//   * Width availability is decided at COMPILE TIME per translation unit:
//     Pack<2> maps to SSE2 (x86-64 baseline) or NEON (AArch64 baseline),
//     Pack<4> to AVX2 and Pack<8> to AVX-512F, each guarded by the
//     corresponding predefined macro. The wide kernels live in dedicated
//     *_avx2.cpp / *_avx512.cpp sources that src/CMakeLists.txt compiles
//     with -mavx2 / -mavx512f when the compiler supports the flag
//     (DDM_SIMD_COMPILED_AVX2 / _AVX512 are then defined for the whole
//     library); the rest of the library keeps the default target flags, so
//     the binary stays runnable on machines without those extensions.
//
//   * Which compiled width a call actually uses is decided at RUNTIME by
//     dispatch_width(): the DDM_SIMD environment variable
//     (off|scalar|native|avx2|neon, strict parse, ddm::Error names the
//     variable on garbage — exit 2 from the CLI), clamped to what the
//     binary was compiled with AND what the host CPU reports. `off` and
//     `scalar` force the pre-SIMD scalar paths; `native` (and unset) means
//     "widest compiled width this CPU supports"; `avx2`/`neon` request a
//     specific width (4 / 2) and clamp down when it is not available —
//     the `engine.simd_width` gauge always reports the width actually
//     dispatched, never the one requested or compiled
//     (docs/observability.md).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define DDM_SIMD_HAS_SSE2 1
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#define DDM_SIMD_HAS_AVX2 1
#endif
#if defined(__AVX512F__)
#include <immintrin.h>
#define DDM_SIMD_HAS_AVX512 1
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define DDM_SIMD_HAS_NEON 1
#endif

namespace ddm::util::simd {

/// Lane count of the replicated-coefficient rows used by the vector Horner
/// layout (poly/compiled.hpp): wide enough for the widest supported pack, so
/// one layout serves every dispatch width.
inline constexpr std::size_t kCoeffLanes = 8;

/// Parsed DDM_SIMD request. `kOff` and `kScalar` both force the scalar
/// paths (`off` is the kill-switch spelling, `scalar` the descriptive one);
/// `kAvx2`/`kNeon` request a width (4 / 2) by its common ISA name.
enum class SimdMode { kOff, kScalar, kNative, kAvx2, kNeon };

/// Strict DDM_SIMD parser (same contract as util::parse_thread_count):
/// accepts exactly "off", "scalar", "native", "avx2", or "neon"; anything
/// else — including empty — throws ddm::Error naming `env_name` and the
/// offending text. Exposed for tests.
[[nodiscard]] SimdMode parse_simd_mode(const char* env_name, const char* text);

/// Widest pack width compiled into this binary that the host CPU supports:
/// 8 (AVX-512F), 4 (AVX2), 2 (SSE2/NEON baseline), or 1. Ignores DDM_SIMD.
[[nodiscard]] int native_width() noexcept;

/// The width the hot kernels dispatch on: DDM_SIMD (parsed once, cached on
/// success; a malformed value throws ddm::Error on every call so the CLI
/// rejects it with exit 2 instead of latching) clamped to native_width().
/// Returns 1, 2, 4, or 8.
[[nodiscard]] int dispatch_width();

/// Test/benchmark hook: forces dispatch_width() to `width` (clamped to
/// native_width()) for the lifetime of the object, bypassing DDM_SIMD.
/// Process-global (the batch kernels run on pool threads), so scopes must
/// not be nested concurrently with different widths.
class ScopedForceWidth {
 public:
  explicit ScopedForceWidth(int width) noexcept;
  ~ScopedForceWidth();
  ScopedForceWidth(const ScopedForceWidth&) = delete;
  ScopedForceWidth& operator=(const ScopedForceWidth&) = delete;

 private:
  int previous_ = 0;
};

/// Test hook: drops the cached DDM_SIMD parse so a test can setenv() a new
/// value and observe dispatch_width() re-resolve it.
void reset_dispatch_cache_for_testing() noexcept;

// --- packs ---------------------------------------------------------------
//
// Only the primary template is declared; each width is a specialization
// guarded by its ISA macro, so a translation unit can only name the packs
// its target flags can actually execute. All specializations expose the
// same interface:
//
//   static constexpr std::size_t width;
//   static Pack load(const double* p);       // unaligned
//   static Pack broadcast(double x);
//   void store(double* p) const;             // unaligned
//   friend Pack operator+/-/* (Pack, Pack);  // IEEE, round-to-nearest
//   Pack operator-() const;                  // sign flip (exact)
//   static Pack abs(Pack);
//   static Pack clamp_positive(Pack);        // x > 0 ? x : +0.0 (never -0.0)
//   static Pack select_abs_ge(a, b, x, y);   // |a| >= |b| ? x : y per lane

template <std::size_t W>
struct Pack;

/// Scalar "pack": the W = 1 fallback. Using it in the generic kernels
/// reproduces the plain scalar loops exactly (it IS the pinned scalar tail
/// path the vector Horner kernel uses for its n % W trailing points; the
/// subset walk's tail is its serial walk in core/nonoblivious.cpp).
template <>
struct Pack<1> {
  static constexpr std::size_t width = 1;
  double v;

  static Pack load(const double* p) noexcept { return {*p}; }
  static Pack broadcast(double x) noexcept { return {x}; }
  void store(double* p) const noexcept { *p = v; }
  friend Pack operator+(Pack a, Pack b) noexcept { return {a.v + b.v}; }
  friend Pack operator-(Pack a, Pack b) noexcept { return {a.v - b.v}; }
  friend Pack operator*(Pack a, Pack b) noexcept { return {a.v * b.v}; }
  Pack operator-() const noexcept { return {-v}; }
  static Pack abs(Pack a) noexcept { return {std::abs(a.v)}; }
  // The clamp must produce the literal +0.0 (never -0.0): the batch walk's
  // power phase relies on infeasible points contributing an exact ±0.0 that
  // leaves a Neumaier accumulator bitwise unchanged (docs/performance.md).
  static Pack clamp_positive(Pack a) noexcept { return {a.v > 0.0 ? a.v : 0.0}; }
  static Pack select_abs_ge(Pack a, Pack b, Pack x, Pack y) noexcept {
    return {std::abs(a.v) >= std::abs(b.v) ? x.v : y.v};
  }
};

#if defined(DDM_SIMD_HAS_SSE2)
/// 2-wide pack over SSE2 (__m128d) — always available on x86-64.
template <>
struct Pack<2> {
  static constexpr std::size_t width = 2;
  __m128d v;

  static Pack load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
  static Pack broadcast(double x) noexcept { return {_mm_set1_pd(x)}; }
  void store(double* p) const noexcept { _mm_storeu_pd(p, v); }
  friend Pack operator+(Pack a, Pack b) noexcept { return {_mm_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) noexcept { return {_mm_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) noexcept { return {_mm_mul_pd(a.v, b.v)}; }
  Pack operator-() const noexcept { return {_mm_xor_pd(v, _mm_set1_pd(-0.0))}; }
  static Pack abs(Pack a) noexcept {
    return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
  }
  static Pack clamp_positive(Pack a) noexcept {
    // AND with the x > 0 mask: kept lanes pass through unchanged, dropped
    // lanes become all-zero bits — the literal +0.0 the contract needs.
    return {_mm_and_pd(a.v, _mm_cmpgt_pd(a.v, _mm_setzero_pd()))};
  }
  static Pack select_abs_ge(Pack a, Pack b, Pack x, Pack y) noexcept {
    const __m128d mask = _mm_cmpge_pd(abs(a).v, abs(b).v);
    return {_mm_or_pd(_mm_and_pd(mask, x.v), _mm_andnot_pd(mask, y.v))};
  }
};
#endif  // DDM_SIMD_HAS_SSE2

#if defined(DDM_SIMD_HAS_NEON)
/// 2-wide pack over NEON (float64x2_t) — always available on AArch64.
template <>
struct Pack<2> {
  static constexpr std::size_t width = 2;
  float64x2_t v;

  static Pack load(const double* p) noexcept { return {vld1q_f64(p)}; }
  static Pack broadcast(double x) noexcept { return {vdupq_n_f64(x)}; }
  void store(double* p) const noexcept { vst1q_f64(p, v); }
  friend Pack operator+(Pack a, Pack b) noexcept { return {vaddq_f64(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) noexcept { return {vsubq_f64(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) noexcept { return {vmulq_f64(a.v, b.v)}; }
  Pack operator-() const noexcept { return {vnegq_f64(v)}; }
  static Pack abs(Pack a) noexcept { return {vabsq_f64(a.v)}; }
  static Pack clamp_positive(Pack a) noexcept {
    const uint64x2_t mask = vcgtq_f64(a.v, vdupq_n_f64(0.0));
    return {vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(a.v), mask))};
  }
  static Pack select_abs_ge(Pack a, Pack b, Pack x, Pack y) noexcept {
    return {vbslq_f64(vcgeq_f64(abs(a).v, abs(b).v), x.v, y.v)};
  }
};
#endif  // DDM_SIMD_HAS_NEON

#if defined(DDM_SIMD_HAS_AVX2)
/// 4-wide pack over AVX2 (__m256d). Only nameable from the *_avx2.cpp
/// translation units compiled with -mavx2 -ffp-contract=off.
template <>
struct Pack<4> {
  static constexpr std::size_t width = 4;
  __m256d v;

  static Pack load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  static Pack broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  friend Pack operator+(Pack a, Pack b) noexcept { return {_mm256_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) noexcept { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) noexcept { return {_mm256_mul_pd(a.v, b.v)}; }
  Pack operator-() const noexcept { return {_mm256_xor_pd(v, _mm256_set1_pd(-0.0))}; }
  static Pack abs(Pack a) noexcept {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
  }
  static Pack clamp_positive(Pack a) noexcept {
    return {_mm256_and_pd(a.v, _mm256_cmp_pd(a.v, _mm256_setzero_pd(), _CMP_GT_OQ))};
  }
  static Pack select_abs_ge(Pack a, Pack b, Pack x, Pack y) noexcept {
    const __m256d mask = _mm256_cmp_pd(abs(a).v, abs(b).v, _CMP_GE_OQ);
    return {_mm256_blendv_pd(y.v, x.v, mask)};
  }
};
#endif  // DDM_SIMD_HAS_AVX2

#if defined(DDM_SIMD_HAS_AVX512)
/// 8-wide pack over AVX-512F (__m512d). Only nameable from the *_avx512.cpp
/// translation units compiled with -mavx512f -ffp-contract=off.
template <>
struct Pack<8> {
  static constexpr std::size_t width = 8;
  __m512d v;

  static Pack load(const double* p) noexcept { return {_mm512_loadu_pd(p)}; }
  static Pack broadcast(double x) noexcept { return {_mm512_set1_pd(x)}; }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
  friend Pack operator+(Pack a, Pack b) noexcept { return {_mm512_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) noexcept { return {_mm512_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) noexcept { return {_mm512_mul_pd(a.v, b.v)}; }
  Pack operator-() const noexcept {
    return {_mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(v), _mm512_castpd_si512(_mm512_set1_pd(-0.0))))};
  }
  static Pack abs(Pack a) noexcept { return {_mm512_abs_pd(a.v)}; }
  static Pack clamp_positive(Pack a) noexcept {
    const __mmask8 mask = _mm512_cmp_pd_mask(a.v, _mm512_setzero_pd(), _CMP_GT_OQ);
    return {_mm512_maskz_mov_pd(mask, a.v)};
  }
  static Pack select_abs_ge(Pack a, Pack b, Pack x, Pack y) noexcept {
    const __mmask8 mask = _mm512_cmp_pd_mask(abs(a).v, abs(b).v, _CMP_GE_OQ);
    return {_mm512_mask_blend_pd(mask, y.v, x.v)};
  }
};
#endif  // DDM_SIMD_HAS_AVX512

}  // namespace ddm::util::simd
