// Kernel-equivalence property tests: the Gray-code inclusion-exclusion
// kernels (src/geom/volume.cpp, src/core/nonoblivious.cpp) must agree with
// the naive O(m·2^m) reference implementations kept in
// src/core/reference_kernels.hpp — exactly in Rational arithmetic, to 1e-12
// in double — on randomized inputs. Also pins the Gray-walk bookkeeping
// itself, the batch evaluator's bitwise agreement with single-point calls,
// and constant points against a table captured from the general walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "combinat/subsets.hpp"
#include "core/nonoblivious.hpp"
#include "core/reference_kernels.hpp"
#include "geom/volume.hpp"
#include "prob/rng.hpp"
#include "util/simd.hpp"

namespace ddm {
namespace {

using util::Rational;

// Random rational in (0, 1] with denominator <= 64: small enough to keep the
// exact 2^m sums fast, irregular enough to exercise every guard branch.
Rational random_unit_rational(prob::Rng& rng) {
  const auto den = static_cast<std::int64_t>(rng.uniform_below(63) + 2);
  const auto num = static_cast<std::int64_t>(rng.uniform_below(static_cast<std::uint64_t>(den)) + 1);
  return Rational{num, den};
}

TEST(GrayCode, WalkMatchesClosedForm) {
  // The incremental walk the kernels use — flip bit gray_flip_bit(i) of the
  // running mask at step i — must reproduce gray_code(i), and the sign of
  // the visited subset must alternate with i.
  std::uint64_t mask = 0;
  for (std::uint64_t i = 1; i < (std::uint64_t{1} << 12); ++i) {
    mask ^= std::uint64_t{1} << combinat::gray_flip_bit(i);
    EXPECT_EQ(mask, combinat::gray_code(i));
    EXPECT_EQ(combinat::popcount(mask) % 2 == 1, combinat::gray_parity_odd(i));
  }
}

TEST(KernelEquivalence, SimplexBoxVolumeExactMatchesReference) {
  prob::Rng rng{2024};
  for (std::size_t m = 1; m <= 9; ++m) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<Rational> sigma;
      std::vector<Rational> pi;
      for (std::size_t l = 0; l < m; ++l) {
        sigma.push_back(random_unit_rational(rng) + Rational(1, 2));
        pi.push_back(random_unit_rational(rng));
      }
      EXPECT_EQ(geom::simplex_box_volume(sigma, pi), reference::simplex_box_volume(sigma, pi))
          << "m=" << m << " rep=" << rep;
    }
  }
}

TEST(KernelEquivalence, SimplexBoxVolumeDoubleMatchesReference) {
  prob::Rng rng{77};
  for (std::size_t m = 1; m <= 12; ++m) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> sigma(m);
      std::vector<double> pi(m);
      for (std::size_t l = 0; l < m; ++l) {
        sigma[l] = 0.5 + rng.uniform();
        pi[l] = 0.05 + 0.95 * rng.uniform();
      }
      const double fast = geom::simplex_box_volume_double(sigma, pi);
      const double naive = reference::simplex_box_volume_double(sigma, pi);
      EXPECT_NEAR(fast, naive, 1e-12) << "m=" << m << " rep=" << rep;
    }
  }
}

TEST(KernelEquivalence, GeneralThresholdExactMatchesReference) {
  prob::Rng rng{5150};
  for (std::size_t n = 1; n <= 5; ++n) {
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<Rational> a;
      for (std::size_t i = 0; i < n; ++i) a.push_back(random_unit_rational(rng));
      const Rational t{static_cast<std::int64_t>(1 + rng.uniform_below(2 * n)),
                       static_cast<std::int64_t>(3)};
      EXPECT_EQ(core::threshold_winning_probability(a, t),
                reference::threshold_winning_probability(a, t))
          << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(KernelEquivalence, GeneralThresholdExactHandlesBoundaryThresholds) {
  // Thresholds at 0 and 1 drive whole brackets through their guard branches.
  const std::vector<Rational> corner{Rational{1}, Rational{1}, Rational{0}, Rational{0}};
  const Rational t{4, 3};
  EXPECT_EQ(core::threshold_winning_probability(corner, t),
            reference::threshold_winning_probability(corner, t));
  EXPECT_EQ(core::threshold_winning_probability(corner, t), Rational(49, 81));
}

TEST(KernelEquivalence, GeneralThresholdDoubleMatchesReference) {
  // Agreement is to 1e-12 wherever the NAIVE reference is itself that
  // accurate. Its ones brackets sum O(2^n) cancelling terms of magnitude up
  // to (n - t)^n / n! without compensation, so for n >= 10 the reference
  // carries up to ~2^n * eps * max(t, n-t)^n / n! of its own rounding noise
  // (a long-double probe confirms the Gray/Kahan kernel is the tighter of
  // the two there — see docs/performance.md); widen the tolerance to that
  // analytic floor where it exceeds 1e-12.
  prob::Rng rng{31337};
  for (std::size_t n = 1; n <= 12; n += (n < 8 ? 1 : 2)) {
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<double> a(n);
      for (double& x : a) x = rng.uniform();
      const double t = static_cast<double>(n) * (0.15 + 0.5 * rng.uniform());
      const double fast = core::threshold_winning_probability(a, t);
      const double naive = reference::threshold_winning_probability(a, t);
      const double spread = std::max(t, static_cast<double>(n) - t);
      const double reference_noise =
          std::ldexp(1.0, static_cast<int>(n)) * 2.3e-16 *
          std::pow(spread, static_cast<double>(n)) *
          combinat::inverse_factorial_double(static_cast<std::uint32_t>(n));
      EXPECT_NEAR(fast, naive, std::max(1e-12, reference_noise))
          << "n=" << n << " rep=" << rep << " t=" << t;
      EXPECT_GE(fast, -1e-12);
      EXPECT_LE(fast, 1.0 + 1e-12);
    }
  }
}

TEST(KernelEquivalence, GeneralThresholdDoubleLargeCapacity) {
  // For t near n/2 the brackets sum O(2^n) cancelling terms of magnitude
  // t^n, so the NAIVE reference itself carries ~2^n·eps·t^n/n! of rounding
  // noise (the Gray kernel is Kahan-compensated and tighter). Compare at a
  // tolerance scaled to that noise floor rather than pretending either side
  // is exact to 1e-12 here.
  prob::Rng rng{90210};
  for (std::size_t n = 8; n <= 12; n += 2) {
    std::vector<double> a(n);
    for (double& x : a) x = rng.uniform();
    const double t = 0.5 * static_cast<double>(n);
    const double fast = core::threshold_winning_probability(a, t);
    const double naive = reference::threshold_winning_probability(a, t);
    const double noise_floor =
        std::ldexp(1.0, static_cast<int>(n)) * 1e-16 *
        std::pow(t, static_cast<double>(n)) *
        combinat::inverse_factorial_double(static_cast<std::uint32_t>(n));
    EXPECT_NEAR(fast, naive, std::max(1e-12, 64.0 * noise_floor)) << "n=" << n;
  }
}

TEST(KernelEquivalence, DoubleTracksExactEvaluator) {
  // Independent of the reference loops: the double Gray kernel against the
  // exact Rational Gray kernel on a shared grid.
  const Rational t{4, 3};
  for (int num = 0; num <= 8; ++num) {
    const std::vector<Rational> a(4, Rational{num, 8});
    const std::vector<double> a_d(4, static_cast<double>(num) / 8.0);
    EXPECT_NEAR(core::threshold_winning_probability(a_d, t.to_double()),
                core::threshold_winning_probability(a, t).to_double(), 1e-12)
        << "beta=" << num << "/8";
  }
}

TEST(BatchEvaluator, BitwiseMatchesSinglePointCalls) {
  std::vector<std::vector<double>> points;
  for (int k = 0; k <= 32; ++k) {
    points.push_back(std::vector<double>(5, static_cast<double>(k) / 32.0));
  }
  points.push_back({0.1, 0.9, 0.4, 0.6, 0.5});
  const std::vector<double> batch = core::threshold_winning_probability_batch(points, 5.0 / 3.0);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_EQ(batch[p], core::threshold_winning_probability(points[p], 5.0 / 3.0)) << p;
  }
}

// Constant points (all n thresholds equal β), pinned to values the general
// Theorem 5.1 walk produced — one zeros and one ones bracket per decision
// vector, 2·3^n subset steps — before constant points took the per-size path
// (one bracket per size). The per-size path claims bitwise identity, so these
// pins must not depend on it. Rows cover n = 1..16 at t = 1/4 (t <= β for
// most β), n/3, n/2 and n (t >= n); columns are kGoldenBetas, which include
// β = 0 and β = 1.
constexpr double kGoldenBetas[] = {0x0p+0, 0x1.3333333333333p-2, 0x1p-1, 0x1.3e7b6fe2e6ea8p-1,
                                   0x1p+0};
constexpr std::size_t kGoldenBetaCount = std::size(kGoldenBetas);

struct GoldenRow {
  std::size_t n;
  double t;
  double values[kGoldenBetaCount];
};

// clang-format off
constexpr GoldenRow kGoldenRows[] = {
    {1, 0x1p-2, {0x1p-2, 0x1p-2, 0x1p-2, 0x1p-2, 0x1p-2}},
    {1, 0x1.5555555555555p-2, {0x1.5555555555554p-2, 0x1.5555555555553p-2, 0x1.5555555555555p-2, 0x1.5555555555555p-2, 0x1.5555555555555p-2}},
    {1, 0x1p-1, {0x1p-1, 0x1.fffffffffffffp-2, 0x1p-1, 0x1p-1, 0x1p-1}},
    {1, 0x1p+0, {0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0}},
    {2, 0x1p-2, {0x1p-5, 0x1.ffffffffffffp-6, 0x1p-5, 0x1.ffffffffffff8p-6, 0x1p-5}},
    {2, 0x1.5555555555555p-1, {0x1.c71c71c71c718p-3, 0x1.3fb72ea61d95p-2, 0x1.71c71c71c71c7p-2, 0x1.1a5f6b6156ccbp-2, 0x1.c71c71c71c71cp-3}},
    {2, 0x1p+0, {0x1p-1, 0x1.2e147ae147ae2p-1, 0x1.8p-1, 0x1.a79b6750fbbb8p-1, 0x1p-1}},
    {2, 0x1p+1, {0x1p+0, 0x1.0000000000001p+0, 0x1p+0, 0x1p+0, 0x1p+0}},
    {3, 0x1p-2, {0x1.55555555556p-9, 0x1.5555555554e75p-9, 0x1.5555555555555p-9, 0x1.5555555555e55p-9, 0x1.5555555555555p-9}},
    {3, 0x1p+0, {0x1.5555555555558p-3, 0x1.271529a485cddp-2, 0x1.eaaaaaaaaaaaap-2, 0x1.16d9e48a9512cp-1, 0x1.5555555555555p-3}},
    {3, 0x1.8p+0, {0x1p-1, 0x1.29374bc6a7efcp-1, 0x1.6p-1, 0x1.76f72e7b2ea91p-1, 0x1p-1}},
    {3, 0x1.8p+1, {0x1p+0, 0x1.fffffffffffd8p-1, 0x1p+0, 0x1p+0, 0x1p+0}},
    {4, 0x1p-2, {0x1.5555555556p-13, 0x1.5555555513bd5p-13, 0x1.5555555555555p-13, 0x1.5555555524815p-13, 0x1.5555555555555p-13}},
    {4, 0x1.5555555555555p+0, {0x1.097b425ed0978p-3, 0x1.f4ea2806b3b42p-3, 0x1.8b74f03291623p-2, 0x1.b23d43490ee14p-2, 0x1.097b425ed097bp-3}},
    {4, 0x1p+1, {0x1p-1, 0x1.2fb15b573eab4p-1, 0x1.7555555555555p-1, 0x1.b0104e1a03283p-1, 0x1p-1}},
    {4, 0x1p+2, {0x1p+0, 0x1.ffffffffffeap-1, 0x1p+0, 0x1.fffffffffffacp-1, 0x1p+0}},
    {5, 0x1p-2, {0x1.111111111p-17, 0x1.1111110aa05bfp-17, 0x1.1111111111111p-17, 0x1.1111110a0e863p-17, 0x1.1111111111111p-17}},
    {5, 0x1.aaaaaaaaaaaabp+0, {0x1.a07b9c44d418p-4, 0x1.bf8045eb611cap-3, 0x1.b64b2646ef804p-2, 0x1.06a75ed9d9ffp-1, 0x1.a07b9c44d41adp-4}},
    {5, 0x1.4p+1, {0x1p-1, 0x1.36f8fb7095d06p-1, 0x1.88aaaaaaaaaaap-1, 0x1.b3b82fa200966p-1, 0x1p-1}},
    {5, 0x1.4p+2, {0x1p+0, 0x1.0000000000174p+0, 0x1p+0, 0x1.0000000000026p+0, 0x1p+0}},
    {6, 0x1p-2, {0x1.6c16c16cp-22, 0x1.6c16cac618cb6p-22, 0x1.6c16c16c16c17p-22, 0x1.6c16b452faf1cp-22, 0x1.6c16c16c16c17p-22}},
    {6, 0x1p+1, {0x1.49f49f49f49fp-4, 0x1.925cf1a2573ap-3, 0x1.933e93e93e942p-2, 0x1.1217f5085e4d1p-1, 0x1.49f49f49f49f5p-4}},
    {6, 0x1.8p+1, {0x1p-1, 0x1.3ccc4eb0f6484p-1, 0x1.8c66666666666p-1, 0x1.bb5a4a8e099ap-1, 0x1p-1}},
    {6, 0x1.8p+2, {0x1p+0, 0x1.0000000001ce3p+0, 0x1p+0, 0x1.ffffffffffc23p-1, 0x1p+0}},
    {7, 0x1p-2, {0x1.a01a01cp-27, 0x1.a01fd9af0f477p-27, 0x1.a01a01a01a01ap-27, 0x1.a019a3898c23ep-27, 0x1.a01a01a01a01ap-27}},
    {7, 0x1.2aaaaaaaaaaabp+1, {0x1.076bdad2bf178p-4, 0x1.6c359d180eda8p-3, 0x1.97ea723afaef9p-2, 0x1.067af4f0d805ep-1, 0x1.076bdad2bf15p-4}},
    {7, 0x1.cp+1, {0x1p-1, 0x1.422aef5fbf636p-1, 0x1.991b05b05b04ep-1, 0x1.ce0d2c0e4939fp-1, 0x1p-1}},
    {7, 0x1.cp+2, {0x1p+0, 0x1.00000000162d5p+0, 0x1p+0, 0x1.0000000000ed6p+0, 0x1p+0}},
    {8, 0x1p-2, {0x1.a01ap-32, 0x1.a281fc0eb11dp-32, 0x1.a01a01a01a01ap-32, 0x1.9fe0c09011498p-32, 0x1.a01a01a01a01ap-32}},
    {8, 0x1.5555555555555p+1, {0x1.a6fd89f31386p-5, 0x1.49ffe6fcb17cep-3, 0x1.8ccc3fb28a3c5p-2, 0x1.28c1a85e082ecp-1, 0x1.a6fd89f3138b9p-5}},
    {8, 0x1p+2, {0x1p-1, 0x1.47170960f86ep-1, 0x1.a150750750753p-1, 0x1.cd92483684a2p-1, 0x1p-1}},
    {8, 0x1p+3, {0x1p+0, 0x1.000000000236ep+0, 0x1p+0, 0x1.0000000002912p+0, 0x1p+0}},
    {9, 0x1p-2, {0x1.71dep-37, 0x1.52d3c85e3cef8p-36, 0x1.71de3a556c734p-37, -0x1.ea34ec69ddfccp-38, 0x1.71de3a556c734p-37}},
    {9, 0x1.8p+1, {0x1.552152152152p-5, 0x1.2c1a60a51c969p-3, 0x1.83e4478478471p-2, 0x1.1733d2f20f057p-1, 0x1.5521521521522p-5}},
    {9, 0x1.2p+2, {0x1p-1, 0x1.4b9d066bcd43fp-1, 0x1.a7d083a83a842p-1, 0x1.d8d2a17892f52p-1, 0x1p-1}},
    {9, 0x1.2p+3, {0x1p+0, 0x1.000000017bc82p+0, 0x1p+0, 0x1.ffffffffabd6p-1, 0x1p+0}},
    {10, 0x1p-2, {0x1.27cp-42, 0x1.8dc64558587d4p-35, 0x1.27e4fb7789f5dp-42, 0x1.aaf2d9f156104p-34, 0x1.27e4fb7789f5dp-42}},
    {10, 0x1.aaaaaaaaaaaabp+1, {0x1.141eb9f442cfp-5, 0x1.119d80b6400a3p-3, 0x1.80542b166ec39p-2, 0x1.298fdf7988a11p-1, 0x1.141eb9f4421aap-5}},
    {10, 0x1.4p+2, {0x1p-1, 0x1.4fd628dc131b9p-1, 0x1.af4c93304f77ap-1, 0x1.dcefe6783ba5ap-1, 0x1p-1}},
    {10, 0x1.4p+3, {0x1p+0, 0x1.000000205158bp+0, 0x1p+0, 0x1.ffffffffe369ep-1, 0x1p+0}},
    {11, 0x1p-2, {0x1.13ap-42, 0x1.08f2f4f1b2a9cp-33, -0x1.23961a5a980acp-36, 0x1.4a27d5c4ae8a9p-32, 0x1.ae64567f544e4p-48}},
    {11, 0x1.d555555555555p+1, {0x1.c05c9415ac56p-6, 0x1.f3f6eb3d121f6p-4, 0x1.760e9e3526381p-2, 0x1.2aa26a5c6d02ep-1, 0x1.c05c9415a72b5p-6}},
    {11, 0x1.6p+2, {0x1p-1, 0x1.53cdaf029f83bp-1, 0x1.b50737aca29d8p-1, 0x1.e0dfe90cfb039p-1, 0x1p-1}},
    {11, 0x1.6p+3, {0x1p+0, 0x1.000000879d634p+0, 0x1p+0, 0x1.000000060e9c3p+0, 0x1p+0}},
    {12, 0x1p-2, {0x1.c7bcp-38, 0x1.e345e9073b3c4p-32, -0x1.7bc31faa4e201p-34, 0x1.3f458eb693e7bp-30, 0x1.1eed8eff8d898p-53}},
    {12, 0x1p+2, {0x1.6cf6915991b8p-6, 0x1.c98dc8308b2bap-4, 0x1.72935eaa8e14cp-2, 0x1.2929fa09882d8p-1, 0x1.6cf6915991b83p-6}},
    {12, 0x1.8p+2, {0x1p-1, 0x1.578c439bb23bep-1, 0x1.ba754ab07f8abp-1, 0x1.e65ba8e2b02b7p-1, 0x1p-1}},
    {12, 0x1.8p+3, {0x1p+0, 0x1.000001f37ff23p+0, 0x1.0000000006b99p+0, 0x1.00000005d015dp+0, 0x1p+0}},
    {13, 0x1p-2, {-0x1.33d28p-35, 0x1.6f75aa581c5efp-29, -0x1.1a5d7f39edcf6p-34, 0x1.721c7462eb4a5p-28, 0x1.6124613a86d0ap-59}},
    {13, 0x1.1555555555555p+2, {0x1.29bc7ccb0feep-6, 0x1.a361e0eb6f095p-4, 0x1.6a947036c7807p-2, 0x1.3518d8e5efc78p-1, 0x1.29bc7ccb0b1d2p-6}},
    {13, 0x1.ap+2, {0x1p-1, 0x1.5b193cd28d38bp-1, 0x1.bf931430fcc83p-1, 0x1.e87901b6c4edep-1, 0x1p-1}},
    {13, 0x1.ap+3, {0x1p+0, 0x1.0000019b097dbp+0, 0x1.000000040aca4p+0, 0x1.0000006b5902bp+0, 0x1p+0}},
    {14, 0x1p-2, {0x1.14486p-34, 0x1.0dea3c4384928p-27, -0x1.da0856fd86f8p-35, -0x1.b63cafe403962p-27, 0x1.93974a8c07c9ep-65}},
    {14, 0x1.2aaaaaaaaaaabp+2, {0x1.e6b8cafbe158p-7, 0x1.80e9ea7b143bfp-4, 0x1.65e425769bb99p-2, 0x1.2ee68eb7911bap-1, 0x1.e6b8cafb2f25ap-7}},
    {14, 0x1.cp+2, {0x1.ffffffffffffep-2, 0x1.5e7a41b8e8b3cp-1, 0x1.c406a1ebeb24bp-1, 0x1.ec2c925d1aefcp-1, 0x1.0000000000001p-1}},
    {14, 0x1.cp+3, {0x1p+0, 0x1.00003b1f61785p+0, 0x1.000000221cbb8p+0, 0x1.ffffff3a24cdap-1, 0x1.0000000000001p+0}},
    {15, 0x1p-2, {-0x1.21acp-37, 0x1.e8dcbb19ea0aap-26, -0x1.7b79c982da764p-28, -0x1.2c3f37bcac04ep-23, 0x1.ae7f3e733b82p-71}},
    {15, 0x1.4p+2, {0x1.8e8163c1ae68p-7, 0x1.61b2636a77b13p-4, 0x1.5fe3d7c984d0ap-2, 0x1.377d911be8fbfp-1, 0x1.8e8163c1ae6abp-7}},
    {15, 0x1.ep+2, {0x1.0000000000006p-1, 0x1.61b3fa3d9c6cp-1, 0x1.c83815b567f5dp-1, 0x1.ee85169ce6ae9p-1, 0x1.ffffffffffff5p-2}},
    {15, 0x1.ep+3, {0x1p+0, 0x1.0000d32096dacp+0, 0x1.fffffdd86f0a5p-1, 0x1.000000c2e3e28p+0, 0x1.0000000117269p+0}},
    {16, 0x1p-2, {-0x1.042cd4p-30, 0x1.69b1499ad7e88p-23, -0x1.7e490e03190c6p-27, -0x1.c2b940a10f77fp-23, 0x1.ae7f3e733b82p-77}},
    {16, 0x1.5555555555555p+2, {0x1.46c44efbcb7cp-7, 0x1.455ae85fd9b59p-4, 0x1.5aa60039142b7p-2, 0x1.3739c929c827ep-1, 0x1.46c44ef8a0e35p-7}},
    {16, 0x1p+3, {0x1.ffffffffffffep-2, 0x1.64ca4989c3db7p-1, 0x1.cc0e525c3f41ep-1, 0x1.f09489915edeep-1, 0x1.0000000000001p-1}},
    {16, 0x1p+4, {0x1p+0, 0x1.0000968bbec7p+0, 0x1.fffff37e0ed31p-1, 0x1.000020bdd9a8ap+0, 0x1.fffffff1a247p-1}},
};
// clang-format on

TEST(SymmetricGolden, KernelMatchesGeneralWalkCapture) {
  for (const GoldenRow& row : kGoldenRows) {
    for (std::size_t b = 0; b < kGoldenBetaCount; ++b) {
      const std::vector<double> point(row.n, kGoldenBetas[b]);
      EXPECT_EQ(core::threshold_winning_probability(point, row.t), row.values[b])
          << "n=" << row.n << " t=" << row.t << " beta=" << kGoldenBetas[b];
    }
  }
}

TEST(SymmetricGolden, BatchMatchesGeneralWalkCaptureAtEveryWidth) {
  // Point counts leave a lone scalar tail (1), a sub-width run (5), a full
  // block plus a straggler (17) and a full block plus a ragged one (29).
  std::vector<int> widths{1};
  for (const int w : {2, 4, 8}) {
    if (w <= util::simd::native_width()) widths.push_back(w);
  }
  for (const int width : widths) {
    const util::simd::ScopedForceWidth force{width};
    for (const GoldenRow& row : kGoldenRows) {
      for (const std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{17},
                                      std::size_t{29}}) {
        std::vector<std::vector<double>> points;
        for (std::size_t k = 0; k < count; ++k) {
          points.emplace_back(row.n, kGoldenBetas[k % kGoldenBetaCount]);
        }
        const std::vector<double> batch = core::threshold_winning_probability_batch(points, row.t);
        ASSERT_EQ(batch.size(), count);
        for (std::size_t k = 0; k < count; ++k) {
          EXPECT_EQ(batch[k], row.values[k % kGoldenBetaCount])
              << "width=" << width << " n=" << row.n << " t=" << row.t << " count=" << count
              << " point=" << k;
        }
      }
    }
  }
}

TEST(BatchEvaluator, PropagatesValidationErrors) {
  const std::vector<std::vector<double>> points{std::vector<double>{}};
  EXPECT_THROW((void)core::threshold_winning_probability_batch(points, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ddm
