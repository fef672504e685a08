// batch_walk_avx2.cpp — the 4-wide AVX2 instantiation of the amortized
// subset walk. Compiled with -mavx2 -ffp-contract=off (src/CMakeLists.txt):
// the contract-off flag guarantees the compiler cannot fuse the pack
// multiply/add sequences into FMAs, which would break the bitwise identity
// with the scalar kernel. Nothing outside this translation unit may execute
// AVX2 instructions — callers must gate on util::simd::dispatch_width().
#include "core/batch_walk.hpp"

namespace ddm::core::detail {

void subset_walk_avx2(const double* deltas, std::size_t sz, std::size_t count,
                      std::uint32_t exponent, const WalkState& state) {
  subset_walk_pack<util::simd::Pack<4>>(deltas, sz, count, exponent, state);
}

}  // namespace ddm::core::detail
