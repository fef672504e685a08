// perfbench_stamp — prints the build stamp of the linked libddm as one JSON
// object: `{"library_build_type":"release","simd_width":8}`. Both answers
// come from inside the library (util/build_info.hpp, util/simd.hpp), so they
// describe the code the benchmark actually times.
#include <iostream>

#include "util/build_info.hpp"
#include "util/simd.hpp"

int main() {
  std::cout << "{\"library_build_type\":\"" << ddm::util::build_type()
            << "\",\"simd_width\":" << ddm::util::simd::dispatch_width() << "}\n";
  return 0;
}
