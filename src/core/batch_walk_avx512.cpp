// batch_walk_avx512.cpp — the 8-wide AVX-512F instantiation of the
// amortized subset walk. Compiled with -mavx512f -ffp-contract=off
// (src/CMakeLists.txt); see batch_walk_avx2.cpp for why contract-off is
// load-bearing. Callers must gate on util::simd::dispatch_width().
#include "core/batch_walk.hpp"

namespace ddm::core::detail {

void subset_walk_avx512(const double* deltas, std::size_t sz, std::size_t count,
                        std::uint32_t exponent, const WalkState& state) {
  subset_walk_pack<util::simd::Pack<8>>(deltas, sz, count, exponent, state);
}

}  // namespace ddm::core::detail
