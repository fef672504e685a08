// test_grouped_exact.cpp — the class-grouped exact Theorem 5.1
// (core::grouped_threshold_winning_probability) and its grouped Lemma 2.4
// (prob::grouped_uniform_volume), by exact Rational ==, against
//   * the ungrouped evaluators they replaced (tests/scenario_oracles.hpp):
//     the deviating conditioning loop, the heterogeneous 2^n loop and the
//     2^m-subset Lemma 2.4;
//   * the symbolic pieces of SymmetricThresholdAnalysis, an independent
//     polynomial-in-β formulation, for the one-class symmetric path.
// The end-to-end benchmark's correctness gate reads its references from the
// program's own exact path, so a wrong grouped formula shows only here.
// Also covered: the cost bound (everything the former n <= 14 caps admitted
// stays admitted, many distinct ranges are refused), the honest
// kernel.grouped_terms counter and the kernel.grouped_exact span.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/deviating.hpp"
#include "core/heterogeneous.hpp"
#include "core/nonoblivious.hpp"
#include "core/symmetric_threshold.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "prob/uniform_sum.hpp"
#include "scenario_oracles.hpp"
#include "util/certify.hpp"
#include "util/status.hpp"

namespace ddm {
namespace {

using core::PlayerClass;
using util::Rational;

// A β of a double sweep grid: its exact value has a 2^-52-scale denominator.
Rational double_beta() { return util::exact_rational(0.3121 + 0.4 * 7.0 / 24.0); }

std::vector<Rational> capacities(std::uint32_t n) {
  return {Rational(n, 3), Rational(n, 2), Rational(1, 2), Rational{0}, Rational{-1}};
}

// --- grouped Lemma 2.4 -------------------------------------------------------

TEST(GroupedLemma24, SumUniformCdfMatchesSubsetLoop) {
  const std::vector<std::vector<Rational>> width_sets = {
      {Rational(1, 2), Rational(1, 2), Rational{1}},
      {Rational(1, 3), Rational(1, 3), Rational(1, 3), Rational(1, 3), Rational{2}, Rational{2}},
      {Rational(3, 4), Rational{1}, Rational{1}, Rational(5, 4)},
      {Rational(7, 5)},
      {double_beta(), double_beta(), Rational{1}},
  };
  for (const std::vector<Rational>& widths : width_sets) {
    Rational total{0};
    for (const Rational& w : widths) total += w;
    for (int i = -1; i <= 14; ++i) {
      const Rational t = total * Rational(i, 12);
      EXPECT_EQ(prob::sum_uniform_cdf(widths, t), oracle::sum_uniform_cdf(widths, t))
          << "m=" << widths.size() << " t=" << t;
    }
  }
}

TEST(GroupedLemma24, IrwinHallIsOneClass) {
  for (std::uint32_t m = 1; m <= 8; ++m) {
    const std::vector<Rational> unit(m, Rational{1});
    for (int i = -1; i <= 3 * static_cast<int>(m) + 1; ++i) {
      const Rational t(i, 3);
      EXPECT_EQ(prob::irwin_hall_cdf(m, t), oracle::sum_uniform_cdf(unit, t))
          << "m=" << m << " t=" << t;
    }
  }
}

TEST(GroupedLemma24, CountsTheTermsItEvaluates) {
  // Widths 2 and 3 (one each) at x = 4: bases 4, 2 (s = {1, 0}), 1 (s = {0, 1})
  // are positive, 4 − 5 is not: three terms, 4² − 2² − 1² = 11.
  const std::vector<util::BigInt> widths{util::BigInt{2}, util::BigInt{3}};
  const std::vector<std::uint32_t> counts{1, 1};
  std::uint64_t terms = 0;
  EXPECT_EQ(prob::grouped_uniform_volume(widths, counts, util::BigInt{4}, 2, &terms),
            util::BigInt{11});
  EXPECT_EQ(terms, 3u);
  // A repeated width carries its binomial weight: 2 × width 1 at x = 3,
  // 3² − 2·2² + 1² = 2.
  const util::BigInt one{1};
  const std::uint32_t two = 2;
  EXPECT_EQ(prob::grouped_uniform_volume({&one, 1}, {&two, 1}, util::BigInt{3}, 2),
            util::BigInt{2});
  // x <= 0 has no positive base.
  terms = 0;
  EXPECT_TRUE(prob::grouped_uniform_volume(widths, counts, util::BigInt{0}, 2, &terms).is_zero());
  EXPECT_EQ(terms, 0u);
}

// --- deviating: three classes against the conditioning loop ----------------

class GroupedDeviating : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GroupedDeviating, MatchesConditioningOracle) {
  const std::uint32_t n = GetParam();
  std::vector<Rational> betas{Rational{0}, Rational(1, 3), Rational(3, 5), Rational{1}};
  // The double-grid β makes every oracle term a 2^-52-denominator Rational,
  // about 20× dearer than the small-denominator βs, so it runs up to n = 8.
  if (n <= 8) betas.push_back(double_beta());
  for (std::uint32_t k = 0; k < n; ++k) {
    for (std::uint32_t j = 0; j <= k; ++j) {
      for (const Rational& beta : betas) {
        for (const Rational& t : capacities(n)) {
          EXPECT_EQ(core::deviating_threshold_winning_probability(n, k, j, beta, t),
                    oracle::deviating_threshold_winning_probability(n, k, j, beta, t))
              << "n=" << n << " k=" << k << " j=" << j << " beta=" << beta << " t=" << t;
        }
      }
    }
  }
}

TEST_P(GroupedDeviating, IsAThresholdPoint) {
  // A deviator in bin 0 is a player with threshold 1, one in bin 1 a player
  // with threshold 0: P_j is Theorem 5.1 at (β^{n−k}, 1^j, 0^{k−j}).
  const std::uint32_t n = GetParam();
  for (std::uint32_t k = 0; k < n; ++k) {
    for (std::uint32_t j = 0; j <= k; ++j) {
      for (const Rational& beta : {Rational(1, 3), Rational(3, 5), double_beta()}) {
        std::vector<Rational> a(n - k, beta);
        a.insert(a.end(), j, Rational{1});
        a.insert(a.end(), k - j, Rational{0});
        const Rational t(n, 3);
        EXPECT_EQ(core::deviating_threshold_winning_probability(n, k, j, beta, t),
                  core::threshold_winning_probability(a, t))
            << "n=" << n << " k=" << k << " j=" << j << " beta=" << beta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(N, GroupedDeviating, ::testing::Range(1u, 13u),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

// --- heterogeneous: classes by (a_i, c_i) against the 2^n loop --------------

TEST(GroupedHeterogeneous, RepeatedRangesMatchOracle) {
  const std::vector<std::vector<Rational>> range_sets = {
      {Rational(1, 2), Rational(3, 4), Rational{1}, Rational{1}, Rational(5, 4), Rational(3, 2)},
      {Rational{1}, Rational{1}, Rational{2}, Rational{2}, Rational{2}},
      {Rational(1, 3), Rational(1, 3), Rational(1, 3), Rational(1, 3), Rational{2}, Rational{2},
       Rational{2}},
      std::vector<Rational>(6, Rational(3, 2)),
  };
  for (const std::vector<Rational>& ranges : range_sets) {
    Rational total{0};
    for (const Rational& c : ranges) total += c;
    const auto n = static_cast<std::int64_t>(ranges.size());
    for (const Rational& beta :
         {Rational{0}, Rational(1, 4), Rational(1, 3), Rational(3, 5), Rational{1}, double_beta()}) {
      std::vector<Rational> thresholds;
      for (const Rational& c : ranges) thresholds.push_back(beta * c);
      for (const Rational& t : {Rational(1, 2), Rational(n, 3), total * Rational(1, 2), total,
                                total + Rational{1}, Rational{0}}) {
        EXPECT_EQ(core::heterogeneous_threshold_winning_probability(thresholds, ranges, t),
                  oracle::heterogeneous_threshold_winning_probability(thresholds, ranges, t))
            << "n=" << n << " beta=" << beta << " t=" << t;
      }
    }
  }
}

TEST(GroupedHeterogeneous, ForcedPlayersMatchOracle) {
  // Per-player thresholds with a_i = 0 (always bin 1) and a_i = c_i (always
  // bin 0) beside free players, repeated pairs included.
  const std::vector<Rational> ranges{Rational{1},    Rational{1}, Rational(3, 4), Rational(1, 2),
                                     Rational(1, 2), Rational{2}, Rational{1}};
  const std::vector<Rational> thresholds{Rational{0},    Rational(1, 2), Rational(3, 4),
                                         Rational(1, 4), Rational(1, 4), Rational{0},
                                         Rational{1}};
  for (int i = 0; i <= 14; ++i) {
    const Rational t(i, 2);
    EXPECT_EQ(core::heterogeneous_threshold_winning_probability(thresholds, ranges, t),
              oracle::heterogeneous_threshold_winning_probability(thresholds, ranges, t))
        << "t=" << t;
  }
  // Unit ranges: the per-player exact Theorem 5.1.
  const std::vector<Rational> a{Rational{0}, Rational{1},    Rational(2, 5), Rational(2, 5),
                                Rational{0}, Rational(3, 4), double_beta()};
  const std::vector<Rational> unit(a.size(), Rational{1});
  for (int i = 0; i <= 8; ++i) {
    const Rational t(i, 2);
    EXPECT_EQ(core::threshold_winning_probability(a, t),
              oracle::heterogeneous_threshold_winning_probability(a, unit, t))
        << "t=" << t;
  }
}

TEST(GroupedExact, CapacityAtTotalRangeIsCertainWin) {
  // t >= Σ c_i: neither bin can overflow.
  const std::vector<Rational> ranges{Rational(1, 2), Rational{1}, Rational{1}, Rational(5, 2)};
  const std::vector<Rational> thresholds{Rational(1, 4), Rational{0}, Rational{1}, Rational{1}};
  for (const Rational& t : {Rational{5}, Rational{6}, Rational(100, 3)}) {
    EXPECT_EQ(core::heterogeneous_threshold_winning_probability(thresholds, ranges, t),
              Rational{1});
    EXPECT_EQ(core::worst_case_deviating_winning_probability(9, 3, Rational(3, 5), t * 2),
              Rational{1});
    EXPECT_EQ(core::symmetric_threshold_winning_probability(5, double_beta(), t), Rational{1});
  }
}

// --- symmetric: one class against the symbolic pieces -----------------------

class GroupedSymmetric : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GroupedSymmetric, MatchesSymbolicPieces) {
  const std::uint32_t n = GetParam();
  // t = 1/2 has n + 1 pieces, the fewest of any capacity with a non-constant
  // P(β), which keeps the exact build affordable at n = 40.
  std::vector<Rational> ts{Rational(1, 2)};
  if (n <= 12) ts.push_back(Rational(n, 3));
  for (const Rational& t : ts) {
    const auto analysis = core::SymmetricThresholdAnalysis::build(n, t);
    const poly::PiecewisePolynomial& pieces = analysis.winning_probability();
    for (const poly::Piece& piece : pieces.pieces()) {
      for (const Rational& beta : {piece.lo, (piece.lo + piece.hi) * Rational(1, 2)}) {
        EXPECT_EQ(core::symmetric_threshold_winning_probability(n, beta, t), pieces(beta))
            << "n=" << n << " t=" << t << " beta=" << beta;
      }
    }
    EXPECT_EQ(core::symmetric_threshold_winning_probability(n, Rational{1}, t),
              pieces(Rational{1}));
  }
}

INSTANTIATE_TEST_SUITE_P(N, GroupedSymmetric, ::testing::Range(1u, 41u),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

// --- the cost bound ------------------------------------------------------------

std::vector<PlayerClass> distinct_players(std::uint32_t n) {
  std::vector<PlayerClass> classes;
  for (std::uint32_t i = 0; i < n; ++i) {
    classes.push_back(PlayerClass{1, Rational(1, 2), Rational(static_cast<std::int64_t>(i) + 1)});
  }
  return classes;
}

TEST(GroupedCost, AdmitsEverythingTheFormerCapAdmitted) {
  // 14 distinct free players are the costliest n <= 14 request: exactly the
  // bound. Merging players or forcing them only lowers the cost.
  EXPECT_EQ(core::grouped_exact_cost(distinct_players(14)), core::kGroupedExactMaxCost);
  for (std::uint32_t n = 1; n <= 14; ++n) {
    EXPECT_LE(core::grouped_exact_cost(distinct_players(n)), core::kGroupedExactMaxCost) << n;
    for (std::uint32_t k = 0; k < n; ++k) {
      EXPECT_LE(core::deviating_exact_cost(n, k), core::kGroupedExactMaxCost) << n << " " << k;
    }
  }
  std::vector<PlayerClass> forced = distinct_players(14);
  forced[0].threshold = Rational{0};
  forced[1].threshold = forced[1].range;
  EXPECT_LT(core::grouped_exact_cost(forced), core::kGroupedExactMaxCost);
}

TEST(GroupedCost, RefusesManyDistinctRanges) {
  EXPECT_GT(core::grouped_exact_cost(distinct_players(15)), core::kGroupedExactMaxCost);
  std::vector<Rational> ranges;
  std::vector<Rational> thresholds;
  for (std::int64_t i = 1; i <= 20; ++i) {
    ranges.emplace_back(i, 20);
    thresholds.push_back(ranges.back() * Rational(1, 2));
  }
  EXPECT_THROW((void)core::heterogeneous_threshold_winning_probability(thresholds, ranges,
                                                                       Rational{7}),
               Error);
  // The same 20 players with one range are a single class: polynomial, exact.
  const std::vector<Rational> one_range(20, Rational(1, 2));
  const std::vector<Rational> quarter(20, Rational(1, 4));
  const Rational p =
      core::heterogeneous_threshold_winning_probability(quarter, one_range, Rational{3});
  EXPECT_EQ(p, core::symmetric_threshold_winning_probability(20, Rational(1, 2), Rational{6}));
}

TEST(GroupedCost, DeviatingStaysExactPastFourteen) {
  EXPECT_LE(core::deviating_exact_cost(60, 2), core::kGroupedExactMaxCost);
  const Rational worst =
      core::worst_case_deviating_winning_probability(60, 2, Rational(1, 2), Rational{20});
  EXPECT_GT(worst, Rational{0});
  EXPECT_LE(worst, core::symmetric_threshold_winning_probability(60, Rational(1, 2),
                                                                 Rational{20}));
}

// --- observability -------------------------------------------------------------

TEST(GroupedObservability, TermCounterCountsEvaluatedTerms) {
  obs::Registry::instance().reset();
  obs::set_metrics_enabled(true);
  // With t above every load, every bracket term has a positive base, so the
  // counter reads exactly the visited-term count grouped_exact_cost / n².
  const std::vector<PlayerClass> classes{{3, Rational(1, 3), Rational{1}},
                                         {2, Rational{1}, Rational{1}},
                                         {2, Rational{0}, Rational{2}}};
  (void)core::grouped_threshold_winning_probability(classes, Rational{10});
  std::uint64_t terms = 0;
  for (const obs::MetricSample& sample : obs::Registry::instance().scrape()) {
    if (sample.name == "kernel.grouped_terms") terms = sample.counter_value;
  }
  obs::set_metrics_enabled(false);
  obs::Registry::instance().reset();
  EXPECT_EQ(static_cast<double>(terms), core::grouped_exact_cost(classes) / 49.0);
}

TEST(GroupedObservability, SpanCarriesSizeAndClassCount) {
  const std::string path = ::testing::TempDir() + "ddm_grouped_exact_trace.json";
  obs::start_tracing();
  (void)core::worst_case_deviating_winning_probability(8, 2, Rational(1, 2), Rational(8, 3));
  obs::stop_tracing();
  obs::export_chrome_trace(path);
  std::ifstream in(path);
  const std::string json{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"name\": \"kernel.grouped_exact\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"n\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"classes\": 3"), std::string::npos) << json;
}

}  // namespace
}  // namespace ddm
