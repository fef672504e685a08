// SIMD layer tests (util/simd.hpp): strict DDM_SIMD parsing, runtime
// dispatch clamping, and — the heart of the vectorization contract — the
// lane-width parity matrix: every compiled pack width must produce BITWISE
// identical results to the scalar kernels, on the batch subset walk
// (core/batch_walk.hpp) and the vector Horner grid evaluator
// (poly/compiled_detail.hpp), across golden n = 2..6 grids and the n = 12,
// t = 4 CLI acceptance instance. The matrix is re-run under pinned
// DDM_THREADS=1/4 by ctest (simd_parity_threads_*, tests/CMakeLists.txt)
// and under ASan/UBSan by scripts/run_sanitizers.sh, whose ragged tail
// counts would flag any lane over-read at a grid tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/nonoblivious.hpp"
#include "core/symmetric_threshold.hpp"
#include "obs/metrics_registry.hpp"
#include "poly/compiled.hpp"
#include "prob/rng.hpp"
#include "util/rational.hpp"
#include "util/simd.hpp"
#include "util/status.hpp"

namespace ddm {
namespace {

using poly::CompiledPiecewise;
using util::Rational;
using util::simd::ScopedForceWidth;
using util::simd::SimdMode;

// Widths to run the parity matrix over: always 1, plus every pack width the
// binary compiled AND this host can execute. ScopedForceWidth clamps to
// native anyway; filtering keeps each matrix cell honest about what it runs.
std::vector<int> available_widths() {
  std::vector<int> widths{1};
  for (const int w : {2, 4, 8}) {
    if (w <= util::simd::native_width()) widths.push_back(w);
  }
  return widths;
}

// --- DDM_SIMD parsing ----------------------------------------------------

TEST(SimdParse, AcceptsExactlyTheFiveModes) {
  EXPECT_EQ(util::simd::parse_simd_mode("DDM_SIMD", "off"), SimdMode::kOff);
  EXPECT_EQ(util::simd::parse_simd_mode("DDM_SIMD", "scalar"), SimdMode::kScalar);
  EXPECT_EQ(util::simd::parse_simd_mode("DDM_SIMD", "native"), SimdMode::kNative);
  EXPECT_EQ(util::simd::parse_simd_mode("DDM_SIMD", "avx2"), SimdMode::kAvx2);
  EXPECT_EQ(util::simd::parse_simd_mode("DDM_SIMD", "neon"), SimdMode::kNeon);
}

TEST(SimdParse, RejectsGarbageNamingTheVariableAndValue) {
  for (const char* bad : {"", "bogus", "OFF", "avx512", " native", "native ", "2"}) {
    try {
      (void)util::simd::parse_simd_mode("DDM_SIMD", bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const Error& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("DDM_SIMD"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos) << what;
    }
  }
}

// --- runtime dispatch ----------------------------------------------------

// setenv/unsetenv around each test; the cache reset makes dispatch_width()
// actually re-read the variable.
class SimdDispatch : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* prev = std::getenv("DDM_SIMD")) {
      had_previous_ = true;
      previous_ = prev;
    }
    util::simd::reset_dispatch_cache_for_testing();
  }
  void TearDown() override {
    if (had_previous_) {
      ::setenv("DDM_SIMD", previous_.c_str(), 1);
    } else {
      ::unsetenv("DDM_SIMD");
    }
    util::simd::reset_dispatch_cache_for_testing();
  }

  static void set_mode(const char* value) {
    ::setenv("DDM_SIMD", value, 1);
    util::simd::reset_dispatch_cache_for_testing();
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

TEST_F(SimdDispatch, NativeWidthIsAValidPackWidth) {
  const int native = util::simd::native_width();
  EXPECT_TRUE(native == 1 || native == 2 || native == 4 || native == 8) << native;
#if defined(DDM_SIMD_COMPILED_AVX2)
  // The binary has 4-wide kernels; this x86-64 host may still lack AVX2,
  // but the baseline SSE2 pack is always executable.
  EXPECT_GE(native, 2);
#endif
}

TEST_F(SimdDispatch, UnsetMeansNative) {
  ::unsetenv("DDM_SIMD");
  util::simd::reset_dispatch_cache_for_testing();
  EXPECT_EQ(util::simd::dispatch_width(), util::simd::native_width());
}

TEST_F(SimdDispatch, OffAndScalarForceWidthOne) {
  set_mode("off");
  EXPECT_EQ(util::simd::dispatch_width(), 1);
  set_mode("scalar");
  EXPECT_EQ(util::simd::dispatch_width(), 1);
}

TEST_F(SimdDispatch, IsaRequestsClampToNative) {
  const int native = util::simd::native_width();
  set_mode("native");
  EXPECT_EQ(util::simd::dispatch_width(), native);
  set_mode("avx2");
  EXPECT_EQ(util::simd::dispatch_width(), std::min(4, native));
  set_mode("neon");
  EXPECT_EQ(util::simd::dispatch_width(), std::min(2, native));
}

TEST_F(SimdDispatch, MalformedValueThrowsOnEveryCall) {
  // The parse failure must not latch: both calls throw (the CLI surfaces
  // this as exit 2), and the message names the variable.
  set_mode("bogus");
  EXPECT_THROW((void)util::simd::dispatch_width(), Error);
  EXPECT_THROW((void)util::simd::dispatch_width(), Error);
}

TEST_F(SimdDispatch, ScopedForceWidthOverridesEnvAndRestores) {
  set_mode("off");
  const int native = util::simd::native_width();
  {
    ScopedForceWidth force{native};
    EXPECT_EQ(util::simd::dispatch_width(), native);
    // Requests beyond native clamp instead of dispatching uncompiled code.
    ScopedForceWidth wild{64};
    EXPECT_EQ(util::simd::dispatch_width(), native);
  }
  EXPECT_EQ(util::simd::dispatch_width(), 1);
}

// --- lane-width parity: batch subset walk --------------------------------

// Golden grids: symmetric sweep points plus asymmetric corners, with point
// counts chosen to leave ragged vector tails (29 = 16 + 13 splits into one
// full block and one block whose count is no multiple of any pack width).
std::vector<std::vector<double>> golden_points(std::uint32_t n, std::size_t count,
                                               prob::Rng& rng) {
  std::vector<std::vector<double>> points;
  for (std::size_t k = 0; k < count; ++k) {
    if (k % 4 == 3) {
      std::vector<double> p(n);
      for (double& v : p) v = rng.uniform();
      points.push_back(std::move(p));
    } else {
      points.push_back(std::vector<double>(
          n, static_cast<double>(k) / static_cast<double>(count > 1 ? count - 1 : 1)));
    }
  }
  return points;
}

void expect_batch_parity(const std::vector<std::vector<double>>& points, double t) {
  // Scalar serial evaluator = the ground truth every width must hit bitwise.
  std::vector<double> serial;
  serial.reserve(points.size());
  for (const auto& p : points) {
    serial.push_back(core::threshold_winning_probability(p, t));
  }
  for (const int width : available_widths()) {
    ScopedForceWidth force{width};
    const std::vector<double> batch = core::threshold_winning_probability_batch(points, t);
    ASSERT_EQ(batch.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      EXPECT_EQ(batch[p], serial[p]) << "width=" << width << " point=" << p;
    }
  }
}

TEST(SimdParity, BatchWalkBitwiseAcrossWidthsOnGoldenGrids) {
  prob::Rng rng{4242};
  for (std::uint32_t n = 2; n <= 6; ++n) {
    expect_batch_parity(golden_points(n, 29, rng), static_cast<double>(n) / 3.0);
  }
}

TEST(SimdParity, BatchWalkRaggedTailCounts) {
  // 1, 5, and 17 points: a lone scalar tail, a sub-width run, and one full
  // batch block plus a single straggler. ASan/UBSan runs catch any lane
  // over-read past the end of the SoA accumulators here.
  prob::Rng rng{7};
  for (const std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{17}}) {
    expect_batch_parity(golden_points(5, count, rng), 5.0 / 3.0);
  }
}

TEST(SimdParity, BatchWalkMixedPointSizesDegradeToScalarRuns) {
  // Interleaved sizes break every amortized run down to length 1, so the
  // vector path's tail handling carries the whole batch.
  prob::Rng rng{11};
  std::vector<std::vector<double>> points;
  for (std::size_t k = 0; k < 18; ++k) {
    std::vector<double> p(2 + k % 5);
    for (double& v : p) v = rng.uniform();
    points.push_back(std::move(p));
  }
  expect_batch_parity(points, 1.25);
}

TEST(SimdParity, BatchWalkMixedConstantAndGeneralRuns) {
  // A run takes the per-size path only when EVERY point is constant by bit
  // pattern; one non-constant point sends the whole run through the general
  // walk. {0.0, −0.0, 0.0} compares equal but is not bit-constant, while
  // {−0.0, −0.0, −0.0} is. Every mix must equal single-point calls bitwise.
  prob::Rng rng{2718};
  std::vector<std::vector<double>> mixed;
  for (std::size_t k = 0; k < 21; ++k) {
    if (k % 7 == 6) {
      std::vector<double> p(8);
      for (double& v : p) v = rng.uniform();
      mixed.push_back(std::move(p));
    } else {
      mixed.push_back(std::vector<double>(8, static_cast<double>(k) / 20.0));
    }
  }
  expect_batch_parity(mixed, 8.0 / 3.0);
  const std::vector<std::vector<double>> zeros{
      {0.0, -0.0, 0.0}, {-0.0, -0.0, -0.0}, {0.0, 0.0, 0.0}, {0.25, 0.25, 0.25}};
  expect_batch_parity(zeros, 1.0);
  expect_batch_parity({zeros[0]}, 1.0);
  expect_batch_parity({zeros[1], zeros[2], zeros[3]}, 1.0);
}

TEST(SimdParity, BatchWalkAcceptanceInstance) {
  // The n = 12, t = 4 CLI acceptance instance
  // (`ddm_cli sweep 12 4 0 1 10000 --engine=batch`).
  prob::Rng rng{1999};
  expect_batch_parity(golden_points(12, 29, rng), 4.0);
}

// --- lane-width parity: compiled vector Horner ---------------------------

CompiledPiecewise lowered_plan(std::uint32_t n, const Rational& t) {
  const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
  return CompiledPiecewise::lower(analysis.winning_probability());
}

// Sorted sweep grid: a linspace whose size (steps + 1 + 2·pieces) is no
// multiple of any pack width, with every breakpoint inserted exactly so
// piece-run boundaries land mid-vector.
std::vector<double> sweep_grid(const CompiledPiecewise& plan, std::size_t steps) {
  std::vector<double> xs;
  const double lo = plan.domain_lo();
  const double hi = plan.domain_hi();
  for (std::size_t k = 0; k <= steps; ++k) {
    xs.push_back(lo + (hi - lo) * static_cast<double>(k) / static_cast<double>(steps));
  }
  for (const poly::CompiledPiece& piece : plan.pieces()) {
    xs.push_back(piece.lo);
    xs.push_back(piece.hi);
  }
  std::sort(xs.begin(), xs.end());
  return xs;
}

void expect_grid_parity(const CompiledPiecewise& plan, const std::vector<double>& xs) {
  for (const int width : available_widths()) {
    ScopedForceWidth force{width};
    const std::vector<double> grid = plan.eval_grid(xs);
    ASSERT_EQ(grid.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(grid[i], plan.eval(xs[i])) << "width=" << width << " x=" << xs[i];
    }
  }
}

TEST(SimdParity, EvalGridBitwiseAcrossWidthsOnGoldenInstances) {
  const struct {
    std::uint32_t n;
    Rational t;
  } cases[] = {{2, Rational{2, 3}}, {3, Rational{1}}, {4, Rational{4, 3}},
               {5, Rational{5, 3}}, {6, Rational{2}}, {12, Rational{4}}};
  for (const auto& c : cases) {
    const CompiledPiecewise plan = lowered_plan(c.n, c.t);
    expect_grid_parity(plan, sweep_grid(plan, 256));
  }
}

TEST(SimdParity, EvalGridRaggedTailCounts) {
  const CompiledPiecewise plan = lowered_plan(5, Rational{5, 3});
  const std::vector<double> full = sweep_grid(plan, 64);
  for (const std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{17}}) {
    expect_grid_parity(plan, std::vector<double>(full.begin(),
                                                 full.begin() + static_cast<std::ptrdiff_t>(
                                                                    std::min(count, full.size()))));
  }
}

TEST(SimdParity, EvalGridUnsortedDuplicatedAndBreakpointExactInputs) {
  // Run detection must not ASSUME sorted input: a descending grid with
  // duplicates and exact breakpoints degrades to short runs but stays
  // bitwise equal to per-point eval (left piece wins at shared breaks).
  const CompiledPiecewise plan = lowered_plan(4, Rational{4, 3});
  std::vector<double> xs = sweep_grid(plan, 37);
  std::reverse(xs.begin(), xs.end());
  const std::size_t original = xs.size();
  for (std::size_t i = 0; i < original; i += 5) xs.push_back(xs[i]);
  expect_grid_parity(plan, xs);
}

TEST(SimdParity, EvalGridThrowsOutOfDomainAtEveryWidth) {
  const CompiledPiecewise plan = lowered_plan(3, Rational{1});
  for (const int width : available_widths()) {
    ScopedForceWidth force{width};
    const std::vector<double> outside{plan.domain_lo(), plan.domain_hi() + 1.0};
    EXPECT_THROW((void)plan.eval_grid(outside), std::out_of_range) << width;
    const std::vector<double> nan{std::numeric_limits<double>::quiet_NaN()};
    EXPECT_THROW((void)plan.eval_grid(nan), std::out_of_range) << width;
  }
}

// --- metrics honesty -----------------------------------------------------

class SimdMetrics : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::Registry::instance().reset();
  }

  static const obs::MetricSample* find(const std::vector<obs::MetricSample>& samples,
                                       std::string_view name) {
    for (const obs::MetricSample& sample : samples) {
      if (sample.name == name) return &sample;
    }
    return nullptr;
  }

  // What one evaluation added to the walk's counters (0 when unregistered).
  struct WalkCounters {
    std::uint64_t subsets = 0;
    std::uint64_t gray_calls = 0;
    std::uint64_t batch_points = 0;
    std::uint64_t walks_amortized = 0;
    std::uint64_t vector_lanes = 0;
    std::uint64_t compensations = 0;
  };

  template <class Evaluate>
  static WalkCounters counters_after(const Evaluate& evaluate) {
    obs::Registry::instance().reset();
    evaluate();
    const auto samples = obs::Registry::instance().scrape();
    const auto counter = [&samples](std::string_view name) {
      const obs::MetricSample* sample = find(samples, name);
      return sample == nullptr ? std::uint64_t{0} : sample->counter_value;
    };
    const obs::MetricSample* compensation = find(samples, "kernel.kahan_compensation");
    return {counter("kernel.subsets_visited"),
            counter("kernel.gray_calls"),
            counter("batch.points"),
            counter("batch.subset_walks_amortized"),
            counter("kernel.vector_lanes"),
            compensation == nullptr ? 0 : compensation->histogram_count};
  }
};

TEST_F(SimdMetrics, GaugeReportsDispatchedWidthNotCompiledWidth) {
  prob::Rng rng{3};
  const auto points = golden_points(5, 29, rng);
  for (const int width : available_widths()) {
    obs::Registry::instance().reset();
    ScopedForceWidth force{width};
    (void)core::threshold_winning_probability_batch(points, 5.0 / 3.0);
    const auto samples = obs::Registry::instance().scrape();
    const obs::MetricSample* gauge = find(samples, "engine.simd_width");
    ASSERT_NE(gauge, nullptr) << width;
    EXPECT_EQ(gauge->kind, obs::MetricSample::Kind::kGauge);
    EXPECT_EQ(gauge->gauge_value, width);
    const obs::MetricSample* lanes = find(samples, "kernel.vector_lanes");
    ASSERT_NE(lanes, nullptr) << width;
    if (width == 1) {
      EXPECT_EQ(lanes->counter_value, 0u);
    } else {
      // 29 points split 16 + 13; full-width lanes per block: count − count%W.
      const auto w = static_cast<std::uint64_t>(width);
      EXPECT_EQ(lanes->counter_value, (16 - 16 % w) + (13 - 13 % w));
    }
  }
}

TEST_F(SimdMetrics, SubsetsVisitedCountsTheWalkActuallyRun) {
  // Constant points walk one bracket pair per size, 2·(2^(n+1) − 1) subsets;
  // anything else walks one pair per decision vector, 2·3^n subsets. A batch
  // counts once per amortized run, whatever its point count.
  const auto subsets_after = [](const auto& evaluate) { return counters_after(evaluate).subsets; };
  const std::vector<double> constant(12, 0.4);
  EXPECT_EQ(subsets_after([&] { (void)core::threshold_winning_probability(constant, 4.0); }),
            2u * ((1u << 13) - 1));
  const std::vector<double> general{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_EQ(subsets_after([&] { (void)core::threshold_winning_probability(general, 2.0); }),
            2u * 729u);
  const std::vector<std::vector<double>> constant_run(5, std::vector<double>(8, 0.3));
  EXPECT_EQ(subsets_after([&] {
              (void)core::threshold_winning_probability_batch(constant_run, 8.0 / 3.0);
            }),
            2u * ((1u << 9) - 1));
  const std::vector<std::vector<double>> mixed_run{
      std::vector<double>(6, 0.3), general, std::vector<double>(6, 0.7)};
  EXPECT_EQ(subsets_after([&] { (void)core::threshold_winning_probability_batch(mixed_run, 2.0); }),
            2u * 729u);
}

TEST_F(SimdMetrics, EntryPointsOwnTheirCountersAndShareTheCompensationRecords) {
  // Both entry points run the same walk. The single-point call counts one
  // kernel.gray_calls and nothing of the batch driver's; a batch call counts
  // its points, saved walks and vector lanes and no gray call. Either way the
  // walk records kernel.kahan_compensation once per point and non-empty
  // bracket: 2·(2^n − 1) per point on the general walk (b = 0 and
  // b = 2^n − 1 each have one empty bracket), 2n on the per-size path.
  const std::vector<double> general{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const std::vector<double> constant(8, 0.3);
  const std::vector<std::vector<double>> general_run(5, general);
  const std::vector<std::vector<double>> constant_run(3, constant);
  for (const int width : available_widths()) {
    ScopedForceWidth force{width};
    for (const auto& [point, records] :
         {std::pair{&general, 2u * 63u}, std::pair{&constant, 2u * 8u}}) {
      const WalkCounters single =
          counters_after([&] { (void)core::threshold_winning_probability(*point, 2.0); });
      EXPECT_EQ(single.gray_calls, 1u) << width;
      EXPECT_EQ(single.batch_points, 0u) << width;
      EXPECT_EQ(single.walks_amortized, 0u) << width;
      EXPECT_EQ(single.vector_lanes, 0u) << width;
      EXPECT_EQ(single.compensations, records) << width;
    }
    for (const auto& [run, records] :
         {std::pair{&general_run, 2u * 63u}, std::pair{&constant_run, 2u * 8u}}) {
      const WalkCounters batch =
          counters_after([&] { (void)core::threshold_winning_probability_batch(*run, 2.0); });
      const std::size_t count = run->size();
      EXPECT_EQ(batch.gray_calls, 0u) << width;
      EXPECT_EQ(batch.batch_points, count) << width;
      EXPECT_EQ(batch.walks_amortized, count - 1) << width;
      EXPECT_EQ(batch.vector_lanes, width > 1 ? count - count % static_cast<std::size_t>(width) : 0)
          << width;
      EXPECT_EQ(batch.compensations, count * records) << width;
    }
  }
}

TEST_F(SimdMetrics, CompiledEvalGridReportsDispatchedWidth) {
  const CompiledPiecewise plan = lowered_plan(3, Rational{1});
  const std::vector<double> xs = sweep_grid(plan, 64);
  for (const int width : available_widths()) {
    obs::Registry::instance().reset();
    ScopedForceWidth force{width};
    (void)plan.eval_grid(xs);
    const auto samples = obs::Registry::instance().scrape();
    const obs::MetricSample* gauge = find(samples, "engine.simd_width");
    ASSERT_NE(gauge, nullptr) << width;
    EXPECT_EQ(gauge->gauge_value, width);
  }
}

}  // namespace
}  // namespace ddm
