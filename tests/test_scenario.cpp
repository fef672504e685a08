// test_scenario.cpp — the first-class Scenario seam, end to end.
//
// Covers: digest canonicalization and descriptor parsing (including
// near-collision ranges that must never share a digest), the ragged
// EvalRequest::general regression, scenario-keyed caching (PlanCache and
// BoundMemo must never hand a homogeneous artifact to a generalized digest),
// exact/mc/certified engine parity against the core/heterogeneous and
// core/deviating ground truth, the auto-selection and fallback-chain
// reshaping under generalized games, cost-model scenario rows, checkpoint
// header round-trips, and the ddm_serve NDJSON scenario field. The caching
// property tests are matrix-run under DDM_THREADS=1/4 (tests/CMakeLists.txt,
// label "scenario").
#include "engine/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/deviating.hpp"
#include "core/heterogeneous.hpp"
#include "core/nonoblivious.hpp"
#include "engine/bound_memo.hpp"
#include "engine/cost_model.hpp"
#include "engine/plan_cache.hpp"
#include "engine/registry.hpp"
#include "prob/rng.hpp"
#include "util/checkpoint.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"
#ifdef __unix__
#include "net/service.hpp"
#endif

namespace ddm {
namespace {

using engine::EvalOutcome;
using engine::EvalRequest;
using engine::Scenario;
using util::Rational;

std::vector<Rational> ranges3() {
  return {Rational(1, 2), Rational{1}, Rational{2}};
}

// --- digest canonicalization -----------------------------------------------

TEST(ScenarioDigest, CanonicalForms) {
  EXPECT_EQ(Scenario{}.digest(), "homogeneous");
  EXPECT_TRUE(Scenario{}.is_default());
  EXPECT_EQ(Scenario::homogeneous().digest(), "homogeneous");
  EXPECT_EQ(Scenario::heterogeneous(ranges3()).digest(), "heterogeneous:1/2,1,2");
  EXPECT_EQ(Scenario::deviating(2).digest(), "deviating:2");
  // Lowest terms: 2/4 and 1/2 are the same game and must share a digest.
  EXPECT_EQ(Scenario::heterogeneous({Rational(2, 4)}).digest(), "heterogeneous:1/2");
}

TEST(ScenarioDigest, NearCollisionRangesStayDistinct) {
  // "1/12,2" vs "1,12/2" vs "1,2": naive separator-free concatenation would
  // collide some of these; the canonical comma/slash form must not.
  const Scenario a = Scenario::heterogeneous({Rational(1, 12), Rational{2}});
  const Scenario b = Scenario::heterogeneous({Rational{1}, Rational(12, 2)});
  const Scenario c = Scenario::heterogeneous({Rational{1}, Rational{2}});
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(b.digest(), c.digest());
  EXPECT_FALSE(a == b);
}

TEST(ScenarioParse, RoundTripsDigest) {
  for (const Scenario& scenario :
       {Scenario::homogeneous(), Scenario::heterogeneous(ranges3()), Scenario::deviating(3)}) {
    const Scenario reparsed = Scenario::parse(scenario.digest());
    EXPECT_EQ(reparsed.digest(), scenario.digest());
    EXPECT_EQ(reparsed.kind(), scenario.kind());
  }
  EXPECT_EQ(Scenario::parse("heterogeneous:2/4,1").digest(), "heterogeneous:1/2,1");
}

TEST(ScenarioParse, RejectsMalformedDescriptors) {
  EXPECT_THROW((void)Scenario::parse(""), Error);
  EXPECT_THROW((void)Scenario::parse("exotic"), Error);
  EXPECT_THROW((void)Scenario::parse("homogeneous:1"), Error);
  EXPECT_THROW((void)Scenario::parse("heterogeneous"), Error);
  EXPECT_THROW((void)Scenario::parse("heterogeneous:"), Error);
  EXPECT_THROW((void)Scenario::parse("heterogeneous:1,,2"), Error);
  EXPECT_THROW((void)Scenario::parse("heterogeneous:1,x"), Error);
  EXPECT_THROW((void)Scenario::parse("heterogeneous:0,1"), Error);
  EXPECT_THROW((void)Scenario::parse("heterogeneous:-1"), Error);
  EXPECT_THROW((void)Scenario::parse("deviating"), Error);
  EXPECT_THROW((void)Scenario::parse("deviating:"), Error);
  EXPECT_THROW((void)Scenario::parse("deviating:0"), Error);
  EXPECT_THROW((void)Scenario::parse("deviating:two"), Error);
}

TEST(ScenarioParse, CheckPlayersValidatesShape) {
  EXPECT_NO_THROW(Scenario::heterogeneous(ranges3()).check_players(3, "test"));
  EXPECT_THROW(Scenario::heterogeneous(ranges3()).check_players(4, "test"), Error);
  EXPECT_NO_THROW(Scenario::deviating(2).check_players(3, "test"));
  EXPECT_THROW(Scenario::deviating(3).check_players(3, "test"), Error);
  EXPECT_NO_THROW(Scenario{}.check_players(100, "test"));
}

// --- EvalRequest::general ragged-batch regression ---------------------------

TEST(EvalRequestGeneral, AcceptsUniformBatch) {
  const EvalRequest request =
      EvalRequest::general({{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}}, Rational{1});
  EXPECT_EQ(request.n, 3u);
  EXPECT_EQ(request.size(), 2u);
}

TEST(EvalRequestGeneral, RejectsRaggedBatchNamingOffendingPoint) {
  try {
    (void)EvalRequest::general({{0.1, 0.2, 0.3}, {0.4, 0.5}, {0.6, 0.7, 0.8}}, Rational{1});
    FAIL() << "ragged batch must throw";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("point 1"), std::string::npos) << what;
    EXPECT_NE(what.find("ragged"), std::string::npos) << what;
  }
}

// --- scenario-keyed caching (PlanCache + BoundMemo) -------------------------

TEST(ScenarioCaching, PlanCacheKeysOnDigest) {
  engine::PlanCache cache(8);
  const Rational t{1};
  const auto homogeneous = cache.get_or_lower(3, t);
  ASSERT_NE(homogeneous, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  // The legacy empty digest and the homogeneous digest are the SAME key —
  // pre-scenario callers and scenario-aware callers share one entry.
  EXPECT_EQ(cache.get_or_lower(3, t, "homogeneous").get(), homogeneous.get());
  EXPECT_EQ(cache.size(), 1u);
  // A generalized digest is a different key: the homogeneous plan must never
  // satisfy it, even for adversarially similar ranges.
  const auto het_a = cache.get_or_lower(3, t, "heterogeneous:1/12,2,1");
  const auto het_b = cache.get_or_lower(3, t, "heterogeneous:1,12/2,1");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(het_a.get(), homogeneous.get());
  EXPECT_NE(het_b.get(), homogeneous.get());
  EXPECT_NE(het_a.get(), het_b.get());
  // Repeat lookups hit their own entries, never a neighbor's.
  EXPECT_EQ(cache.get_or_lower(3, t, "heterogeneous:1/12,2,1").get(), het_a.get());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ScenarioCaching, BoundMemoNeverCrossesScenarios) {
  engine::BoundMemo memo;
  const Rational t{1};
  memo.store(3, t, "homogeneous", 1e-12);
  EXPECT_TRUE(memo.lookup(3, t, "homogeneous").has_value());
  // The homogeneous bound must not answer a generalized lookup (same n, t —
  // same direct-mapped slot — different game).
  EXPECT_FALSE(memo.lookup(3, t, "heterogeneous:1/12,2,1").has_value());
  EXPECT_FALSE(memo.lookup(3, t, "deviating:1").has_value());
  memo.store(3, t, "heterogeneous:1/12,2,1", 2e-12);
  EXPECT_FALSE(memo.lookup(3, t, "homogeneous").has_value());  // slot re-keyed
  EXPECT_FALSE(memo.lookup(3, t, "heterogeneous:1,12/2,1").has_value());
  const auto found = memo.lookup(3, t, "heterogeneous:1/12,2,1");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 2e-12);
}

// --- engine parity against the core ground truth ----------------------------

TEST(ScenarioEngines, ExactMatchesCoreHeterogeneous) {
  const Rational t(6, 5);
  const std::vector<Rational> ranges = ranges3();
  auto request = EvalRequest::symmetric(3, t, {0.0, 0.25, 0.5, 0.75, 1.0});
  request.exact_betas = {Rational{0}, Rational(1, 4), Rational(1, 2), Rational(3, 4),
                         Rational{1}};
  request.scenario = Scenario::heterogeneous(ranges);
  const engine::Evaluator* exact = engine::Registry::instance().find("exact");
  ASSERT_NE(exact, nullptr);
  ASSERT_TRUE(exact->supports(request));
  const EvalOutcome outcome = exact->evaluate(request);
  for (std::size_t k = 0; k < request.exact_betas.size(); ++k) {
    // Symmetric beta is RELATIVE under heterogeneous ranges: a_i = beta·c_i.
    std::vector<Rational> thresholds;
    for (const Rational& c : ranges) thresholds.push_back(request.exact_betas[k] * c);
    const Rational expected =
        core::heterogeneous_threshold_winning_probability(thresholds, ranges, t);
    EXPECT_DOUBLE_EQ(outcome.values[k], expected.to_double()) << "k=" << k;
  }
}

TEST(ScenarioEngines, ExactGeneralPointsAreAbsoluteThresholds) {
  const Rational t(6, 5);
  const std::vector<Rational> ranges = ranges3();
  // General points carry per-player ABSOLUTE thresholds (a_i, not beta).
  auto request = EvalRequest::general({{0.25, 0.4, 1.0}}, t);
  request.scenario = Scenario::heterogeneous(ranges);
  const engine::Evaluator* exact = engine::Registry::instance().find("exact");
  ASSERT_TRUE(exact->supports(request));
  const EvalOutcome outcome = exact->evaluate(request);
  const std::vector<Rational> thresholds{Rational(1, 4), Rational(2, 5), Rational{1}};
  const Rational expected =
      core::heterogeneous_threshold_winning_probability(thresholds, ranges, t);
  EXPECT_DOUBLE_EQ(outcome.values.at(0), expected.to_double());
}

TEST(ScenarioEngines, MonteCarloTracksExactHeterogeneous) {
  const Rational t(6, 5);
  auto request = EvalRequest::symmetric(3, t, {0.5});
  request.scenario = Scenario::heterogeneous(ranges3());
  request.trials = 400000;
  const engine::Evaluator* exact = engine::Registry::instance().find("exact");
  const engine::Evaluator* mc = engine::Registry::instance().find("mc");
  ASSERT_NE(mc, nullptr);
  ASSERT_TRUE(mc->supports(request));
  const double reference = exact->evaluate(request).values.at(0);
  const double estimate = mc->evaluate(request).values.at(0);
  // ~6 sigma at 400k trials for a probability near 0.5 is under 0.005.
  EXPECT_NEAR(estimate, reference, 0.005);
}

TEST(ScenarioEngines, MonteCarloTracksExactDeviating) {
  const Rational t{2};
  auto request = EvalRequest::symmetric(6, t, {0.62});
  request.scenario = Scenario::deviating(2);
  request.trials = 400000;
  const engine::Evaluator* mc = engine::Registry::instance().find("mc");
  ASSERT_TRUE(mc->supports(request));
  const double estimate = mc->evaluate(request).values.at(0);
  const double reference =
      core::worst_case_deviating_winning_probability(6, 2, Rational(62, 100), t).to_double();
  EXPECT_NEAR(estimate, reference, 0.005);
}

TEST(ScenarioEngines, CertifiedReturnsExactTierEnclosures) {
  auto request = EvalRequest::symmetric(3, Rational{1}, {0.25, 0.5});
  request.exact_betas = {Rational(1, 4), Rational(1, 2)};
  request.scenario = Scenario::heterogeneous(ranges3());
  const engine::Evaluator* certified = engine::Registry::instance().find("certified");
  ASSERT_NE(certified, nullptr);
  ASSERT_TRUE(certified->supports(request));
  const EvalOutcome outcome = certified->evaluate(request);
  ASSERT_EQ(outcome.certificates.size(), 2u);
  for (const CertifiedValue& certificate : outcome.certificates) {
    EXPECT_EQ(certificate.tier, EvalTier::kExact);
    EXPECT_EQ(certificate.width().signum(), 0);
    EXPECT_TRUE(certificate.met_tolerance);
  }
  EXPECT_EQ(outcome.certificate_bound, 0.0);
}

TEST(ScenarioEngines, HomogeneousOnlyEnginesDeclineGeneralizedGames) {
  auto request = EvalRequest::symmetric(3, Rational{1}, {0.5});
  request.scenario = Scenario::deviating(1);
  for (const char* id : {"kernel", "batch", "compiled"}) {
    const engine::Evaluator* evaluator = engine::Registry::instance().find(id);
    ASSERT_NE(evaluator, nullptr) << id;
    EXPECT_FALSE(evaluator->supports(request)) << id;
  }
  for (const char* id : {"exact", "certified", "mc"}) {
    const engine::Evaluator* evaluator = engine::Registry::instance().find(id);
    ASSERT_NE(evaluator, nullptr) << id;
    EXPECT_TRUE(evaluator->supports(request)) << id;
  }
}

// --- deviating core math -----------------------------------------------------

TEST(DeviatingCore, ZeroDeviatorsReduceToTheorem51) {
  for (int num = 0; num <= 4; ++num) {
    const Rational beta{num, 4};
    const Rational t{1};
    EXPECT_EQ(core::deviating_threshold_winning_probability(3, 0, 0, beta, t),
              core::symmetric_threshold_winning_probability(3, beta, t))
        << "beta=" << beta;
  }
}

TEST(DeviatingCore, WorstCaseIsMinOverStrategies) {
  const Rational beta(62, 100);
  const Rational t{2};
  const Rational worst = core::worst_case_deviating_winning_probability(6, 2, beta, t);
  for (std::uint32_t j = 0; j <= 2; ++j) {
    EXPECT_LE(worst, core::deviating_threshold_winning_probability(6, 2, j, beta, t))
        << "j=" << j;
  }
}

TEST(DeviatingCore, DeviatorsOnlyHurt) {
  const Rational beta(62, 100);
  const Rational t{2};
  const Rational undisturbed = core::symmetric_threshold_winning_probability(6, beta, t);
  EXPECT_LE(core::worst_case_deviating_winning_probability(6, 1, beta, t), undisturbed);
}

TEST(DeviatingCore, EdgeBetasAreServed) {
  // beta = 0 and beta = 1 exercise the zero-weight-term skip.
  const Rational t{2};
  EXPECT_NO_THROW((void)core::worst_case_deviating_winning_probability(5, 2, Rational{0}, t));
  EXPECT_NO_THROW((void)core::worst_case_deviating_winning_probability(5, 2, Rational{1}, t));
}

TEST(DeviatingCore, ValidationThrows) {
  EXPECT_THROW((void)core::worst_case_deviating_winning_probability(0, 0, Rational(1, 2),
                                                                    Rational{1}),
               Error);
  EXPECT_THROW((void)core::worst_case_deviating_winning_probability(3, 3, Rational(1, 2),
                                                                    Rational{1}),
               Error);
  EXPECT_THROW((void)core::worst_case_deviating_winning_probability(3, 1, Rational{2},
                                                                    Rational{1}),
               Error);
  EXPECT_THROW((void)core::worst_case_deviating_winning_probability(15, 1, Rational(1, 2),
                                                                    Rational{5}),
               Error);
  EXPECT_THROW((void)Scenario::deviating(0), Error);
}

TEST(DeviatingCore, SimulationTracksExactWorstCase) {
  prob::Rng rng{42};
  const core::DeviatingSimResult sim =
      core::estimate_worst_case_deviating(6, 2, 0.62, 2.0, 200000, rng);
  const double reference =
      core::worst_case_deviating_winning_probability(6, 2, Rational(62, 100), Rational{2})
          .to_double();
  EXPECT_NEAR(sim.estimate, reference, 0.01);
}

// --- selection under generalized games (chains: EngineRank.*) ------------

TEST(ScenarioSelection, AutoPicksExactWithinCapAndMcBeyond) {
  engine::EnginePolicy policy;  // auto
  auto small = EvalRequest::symmetric(3, Rational{1}, {0.5});
  small.scenario = Scenario::deviating(1);
  const engine::Selection within = engine::select(policy, small);
  EXPECT_EQ(within.id(), "exact");
  EXPECT_FALSE(within.fallback);

  auto large = EvalRequest::symmetric(20, Rational{7}, {0.5});
  large.scenario = Scenario::heterogeneous(std::vector<Rational>(20, Rational(1, 2)));
  const engine::Selection beyond = engine::select(policy, large);
  EXPECT_EQ(beyond.id(), "mc");
  EXPECT_TRUE(beyond.fallback);
  EXPECT_FALSE(beyond.note.empty());
}

// --- cost-model scenario rows ------------------------------------------------

TEST(ScenarioCostModel, ObserveAndPredictArePerScenario) {
  engine::CostModel model;
  model.set_cell("mc", 4, 16, 1e-6);
  // Default-scenario reads: legacy empty and the homogeneous digest are the
  // same row.
  EXPECT_DOUBLE_EQ(model.predict("mc", 4, 16), 1e-6);
  EXPECT_DOUBLE_EQ(model.predict("mc", 4, 16, "homogeneous"), 1e-6);
  // A generalized digest has no data yet: +infinity, never the bare row.
  EXPECT_TRUE(std::isinf(model.predict("mc", 4, 16, "deviating:2")));
  model.observe("mc", 4, 16, 5e-5, "deviating:2");
  EXPECT_NEAR(model.predict("mc", 4, 16, "deviating:2"), 5e-5, 5e-14);
  EXPECT_DOUBLE_EQ(model.predict("mc", 4, 16), 1e-6);  // bare row untouched
}

TEST(ScenarioCostModel, RowsSurviveSaveLoadRoundTrip) {
  engine::CostModel model;
  model.set_cell("mc", 4, 16, 1e-6);
  model.observe("mc", 4, 16, 5e-5, "heterogeneous:1/2,1,2,1");
  const std::string path = testing::TempDir() + "scenario_policy.ddmpolicy";
  model.save(path);
  const auto loaded = engine::CostModel::load(path, "test");
  EXPECT_DOUBLE_EQ(loaded->predict("mc", 4, 16), 1e-6);
  EXPECT_NEAR(loaded->predict("mc", 4, 16, "heterogeneous:1/2,1,2,1"), 5e-5, 5e-14);
  EXPECT_TRUE(std::isinf(loaded->predict("mc", 4, 16, "heterogeneous:1,2,1,2")));
  std::remove(path.c_str());
}

TEST(ScenarioCostModel, LoadRejectsMalformedScenarioRows) {
  engine::CostModel model;
  model.set_cell("mc", 4, 16, 1e-6);
  const std::string path = testing::TempDir() + "scenario_policy_bad.ddmpolicy";
  model.save(path);
  // Corrupt the cell's scenario token; the checksum guards bytes, so rebuild
  // the file wholesale with a bogus digest but a fresh checksum via observe.
  engine::CostModel bad;
  bad.observe("mc", 4, 16, 1e-6, "deviating:0");  // never produced by Scenario
  const std::string bad_path = testing::TempDir() + "scenario_policy_bad2.ddmpolicy";
  bad.save(bad_path);
  EXPECT_THROW((void)engine::CostModel::load(bad_path, "test"), PolicyError);
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

// --- checkpoint headers ------------------------------------------------------

TEST(ScenarioCheckpoint, HeaderRoundTripsScenario) {
  const std::string path = testing::TempDir() + "scenario_sweep.ckpt";
  util::SweepParams params;
  params.n = 3;
  params.t = "1";
  params.beta_lo = "0";
  params.beta_hi = "1";
  params.steps = 4;
  params.engine = "auto";
  params.resolved = "exact";
  params.scenario = "heterogeneous:1/2,1,2";
  {
    util::SweepCheckpoint checkpoint(path, params, false);
    checkpoint.append({0, 0.0, 0.5});
  }
  const util::LoadedCheckpoint loaded = util::read_checkpoint(path);
  EXPECT_EQ(loaded.params.scenario, "heterogeneous:1/2,1,2");
  EXPECT_EQ(loaded.params, params);
  // Resuming under a different game must fail naming the scenario field.
  util::SweepParams other = params;
  other.scenario = "homogeneous";
  try {
    util::SweepCheckpoint resume(path, other, true);
    FAIL() << "scenario mismatch must throw";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("scenario"), std::string::npos) << error.what();
  }
  std::remove(path.c_str());
}

TEST(ScenarioCheckpoint, PreScenarioHeadersParseAsHomogeneous) {
  const std::string path = testing::TempDir() + "legacy_sweep.ckpt";
  {
    std::ofstream out(path);
    out << "{\"sweep\": {\"n\": 3, \"t\": \"1\", \"beta_lo\": \"0\", \"beta_hi\": \"1\", "
           "\"steps\": 4, \"engine\": \"auto\", \"resolved\": \"exact\", \"shard\": "
           "\"0/1\"}}\n"
        << "{\"k\": 0, \"beta\": 0, \"p_win\": 0.5}\n";
  }
  const util::LoadedCheckpoint loaded = util::read_checkpoint(path);
  EXPECT_EQ(loaded.params.scenario, "homogeneous");
  std::remove(path.c_str());
}

// --- ddm_serve scenario field ------------------------------------------------

#ifdef __unix__
TEST(ScenarioServe, ThresholdEvaluatesGeneralizedGames) {
  net::ServiceConfig config;
  config.workers = 1;
  net::EvalService service(config);
  const std::string reply = service.handle_line(
      R"({"op": "threshold", "n": 3, "t": "6/5", "beta": 0.5, )"
      R"("scenario": "heterogeneous:1/2,1,2"})");
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"scenario\":\"heterogeneous:1/2,1,2\""), std::string::npos) << reply;
  // The value must be the exact heterogeneous ground truth.
  std::vector<Rational> thresholds{Rational(1, 4), Rational(1, 2), Rational{1}};
  const double expected =
      core::heterogeneous_threshold_winning_probability(thresholds, ranges3(), Rational(6, 5))
          .to_double();
  char value_text[64];
  std::snprintf(value_text, sizeof value_text, "%.6f", expected);
  EXPECT_NE(reply.find("\"engine\":\"exact\""), std::string::npos) << reply;
  EXPECT_NE(reply.find(std::string(value_text).substr(0, 7)), std::string::npos) << reply;
}

TEST(ScenarioServe, MalformedScenariosAreBadRequests) {
  net::ServiceConfig config;
  config.workers = 1;
  net::EvalService service(config);
  for (const char* line : {
           R"({"op": "threshold", "n": 3, "t": 1, "beta": 0.5, "scenario": "exotic"})",
           R"({"op": "threshold", "n": 3, "t": 1, "beta": 0.5, "scenario": "deviating:0"})",
           R"({"op": "threshold", "n": 3, "t": 1, "beta": 0.5, "scenario": "deviating:3"})",
           R"({"op": "threshold", "n": 3, "t": 1, "beta": 0.5, )"
           R"("scenario": "heterogeneous:1/2,1"})",
           R"({"op": "threshold", "n": 3, "t": 1, "beta": 0.5, )"
           R"("scenario": "heterogeneous:1,0,1"})",
           R"({"op": "analyze", "n": 3, "t": 1, "scenario": "deviating:1"})",
       }) {
    const std::string reply = service.handle_line(line);
    EXPECT_NE(reply.find("\"error\":\"bad_request\""), std::string::npos)
        << line << " -> " << reply;
  }
  // The default game stays served without a scenario field.
  const std::string ok = service.handle_line(R"({"op": "threshold", "n": 3, "t": 1, )"
                                             R"("beta": 0.5})");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  EXPECT_EQ(ok.find("scenario"), std::string::npos) << ok;
}
#endif  // __unix__

}  // namespace
}  // namespace ddm
