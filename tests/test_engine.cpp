// ddm::engine — registry, selection policy, plan cache, and fault injection.
//
// The selection tests pin the auto policy (engine/policy.hpp): compiled for
// small symmetric grids whose certificate meets the request tolerance,
// batch otherwise, and every fallback visible in the Selection. The
// EngineRank tests pin rank()'s full candidate chain for auto and every
// forced id, per scenario, with and without a policy table. The cache-fault tests pin satellite coverage:
// a fault that strikes during lowering must leave the plan cache
// unpoisoned — no entry, no counted miss — and the next call re-lowers
// successfully (matrix-run under DDM_THREADS=1/4 from tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <latch>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/nonoblivious.hpp"
#include "core/threshold_optimizer.hpp"
#include "engine/cost_model.hpp"
#include "engine/engines.hpp"
#include "engine/evaluator.hpp"
#include "engine/plan_cache.hpp"
#include "engine/policy.hpp"
#include "engine/registry.hpp"
#include "engine/scenario.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"
#ifdef __unix__
#include "net/service.hpp"
#endif

namespace ddm::engine {
namespace {

using util::Rational;

EvalRequest small_grid(std::uint32_t n, Rational t) {
  return EvalRequest::symmetric(n, std::move(t), {0.25, 0.5, 0.625, 0.75});
}

// --- registry ------------------------------------------------------------

TEST(EngineRegistry, BuiltinsRegisteredAndSorted) {
  const auto ids = Registry::instance().ids();
  const std::vector<std::string_view> expected{"batch", "certified", "compiled",
                                               "exact", "kernel", "mc"};
  EXPECT_EQ(ids, expected);
}

TEST(EngineRegistry, FindAndRequire) {
  Registry& registry = Registry::instance();
  ASSERT_NE(registry.find("kernel"), nullptr);
  EXPECT_EQ(registry.find("kernel")->id(), "kernel");
  EXPECT_EQ(registry.find("bogus"), nullptr);
  EXPECT_EQ(&registry.require("batch"), registry.find("batch"));
  try {
    (void)registry.require("bogus");
    FAIL() << "require('bogus') did not throw";
  } catch (const Error& error) {
    // The message must list the registered ids so CLI users see the menu.
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("compiled"), std::string::npos);
  }
}

TEST(EngineRegistry, DuplicateRegistrationThrows) {
  Registry& registry = Registry::instance();
  EXPECT_THROW(register_builtin_engines(registry), Error);
  EXPECT_THROW(registry.register_engine(nullptr), Error);
}

TEST(EngineRegistry, DeterminismMetadata) {
  Registry& registry = Registry::instance();
  EXPECT_EQ(registry.require("kernel").determinism(), Determinism::kDeterministic);
  EXPECT_EQ(registry.require("certified").determinism(), Determinism::kCertified);
  EXPECT_EQ(registry.require("mc").determinism(), Determinism::kRandomized);
  EXPECT_STREQ(to_string(Determinism::kDeterministic), "deterministic");
  EXPECT_STREQ(to_string(Determinism::kCertified), "certified");
  EXPECT_STREQ(to_string(Determinism::kRandomized), "randomized");
}

// --- selection policy ----------------------------------------------------

TEST(EngineSelect, ForcedIdIsHonored) {
  EnginePolicy policy;
  policy.engine = "kernel";
  const Selection selection = select(policy, small_grid(4, Rational{4, 3}));
  EXPECT_EQ(selection.id(), "kernel");
  EXPECT_FALSE(selection.auto_mode);
  EXPECT_FALSE(selection.fallback);
}

TEST(EngineSelect, ForcedUnknownIdThrows) {
  EnginePolicy policy;
  policy.engine = "bogus";
  EXPECT_THROW((void)select(policy, small_grid(3, Rational{1})), Error);
}

TEST(EngineSelect, ForcedUnsupportedRequestThrows) {
  EnginePolicy policy;
  policy.engine = "kernel";  // double kernels cap n at 20
  EXPECT_THROW((void)select(policy, small_grid(24, Rational{8})), Error);
}

TEST(EngineSelect, AutoPicksCompiledWhenCertificateMeetsTolerance) {
  PlanCache::instance().clear();
  const Selection selection = select(EnginePolicy{}, small_grid(4, Rational{4, 3}));
  EXPECT_EQ(selection.id(), "compiled");
  EXPECT_TRUE(selection.auto_mode);
  EXPECT_FALSE(selection.fallback);
  EXPECT_LE(selection.compiled_bound, kCompiledAutoTolerance);
}

TEST(EngineSelect, AutoSkipsLoweringPastTheNCap) {
  const Selection selection = select(EnginePolicy{}, small_grid(kCompiledAutoMaxN + 1,
                                                                Rational{6}));
  EXPECT_EQ(selection.id(), "batch");
  EXPECT_TRUE(selection.auto_mode);
  // Not lowering past the cap is policy, not a failed promise: no note.
  EXPECT_FALSE(selection.fallback);
  EXPECT_TRUE(selection.note.empty());
}

TEST(EngineSelect, AutoFallsBackVisiblyOnCertificateMiss) {
  // n = 16, t = 6: the lowering succeeds but its certified bound (~7e-2)
  // blows the 1e-9 tolerance — the pre-engine CLI fell back silently here.
  const Selection selection = select(EnginePolicy{}, small_grid(16, Rational{6}));
  EXPECT_EQ(selection.id(), "batch");
  EXPECT_TRUE(selection.fallback);
  EXPECT_NE(selection.note.find("exceeds tolerance"), std::string::npos) << selection.note;
  EXPECT_GT(selection.compiled_bound, kCompiledAutoTolerance);
}

TEST(EngineSelect, AutoUsesBatchForGeneralPoints) {
  const auto request = EvalRequest::general({{0.25, 0.5, 0.75}}, Rational{1});
  const Selection selection = select(EnginePolicy{}, request);
  EXPECT_EQ(selection.id(), "batch");
  EXPECT_FALSE(selection.fallback);
}

// --- ranked dispatch: the one candidate chain ----------------------------

/// A table under which the cost model reorders everything it may: kernel
/// is cheapest, then batch, and compiled is unmeasured. Under deviating:1 it
/// claims Monte Carlo is free — an estimate must still never outrank an
/// exact answer.
std::shared_ptr<CostModel> reordering_table() {
  auto model = std::make_shared<CostModel>();
  for (const std::uint32_t n : {1u, 16u}) {
    for (const std::uint32_t batch : {1u, 4096u}) {
      model->set_cell("kernel", n, batch, 1e-9);
      model->set_cell("batch", n, batch, 1e-8);
      model->set_cell("mc@deviating:1", n, batch, 1e-15);
      model->set_cell("exact@deviating:1", n, batch, 1.0);
    }
  }
  return model;
}

/// The chain rank() returns, as ids; {"throws"} when rank() throws.
std::vector<std::string_view> ranked_ids(const std::string& engine, const Scenario& scenario) {
  EvalRequest request = small_grid(4, Rational{4, 3});
  request.scenario = scenario;
  EnginePolicy policy;
  policy.engine = engine;
  std::vector<std::string_view> ids;
  try {
    const Selection selection = rank(policy, request);
    EXPECT_EQ(selection.evaluator, selection.chain.front()) << engine;
    for (const Evaluator* evaluator : selection.chain) ids.push_back(evaluator->id());
  } catch (const Error&) {
    ids.emplace_back("throws");
  }
  return ids;
}

TEST(EngineRank, PinsEveryChainWithAndWithoutATable) {
  using Chain = std::vector<std::string_view>;
  const Scenario homogeneous;
  const Scenario heterogeneous = Scenario::parse("heterogeneous:1/2,1,1,2");
  const Scenario deviating = Scenario::parse("deviating:1");
  const struct {
    const char* engine;
    const Scenario& scenario;
    Chain without_table;
    Chain with_table;
  } cases[] = {
      {"auto", homogeneous, {"compiled", "batch", "kernel"}, {"kernel", "batch", "compiled"}},
      {"exact", homogeneous, {"exact"}, {"exact"}},
      {"kernel", homogeneous, {"kernel"}, {"kernel"}},
      {"batch", homogeneous, {"batch", "kernel"}, {"batch", "kernel"}},
      {"compiled", homogeneous, {"compiled", "batch", "kernel"}, {"compiled", "kernel", "batch"}},
      {"certified", homogeneous, {"certified", "mc"}, {"certified", "mc"}},
      {"mc", homogeneous, {"mc"}, {"mc"}},
      {"auto", heterogeneous, {"exact", "mc"}, {"exact", "mc"}},
      {"exact", heterogeneous, {"exact", "mc"}, {"exact", "mc"}},
      {"kernel", heterogeneous, {"throws"}, {"throws"}},
      {"batch", heterogeneous, {"throws"}, {"throws"}},
      {"compiled", heterogeneous, {"throws"}, {"throws"}},
      {"certified", heterogeneous, {"certified", "mc"}, {"certified", "mc"}},
      {"mc", heterogeneous, {"mc"}, {"mc"}},
      {"auto", deviating, {"exact", "mc"}, {"exact", "mc"}},
      {"exact", deviating, {"exact", "mc"}, {"exact", "mc"}},
      {"kernel", deviating, {"throws"}, {"throws"}},
      {"batch", deviating, {"throws"}, {"throws"}},
      {"compiled", deviating, {"throws"}, {"throws"}},
      {"certified", deviating, {"certified", "mc"}, {"certified", "mc"}},
      {"mc", deviating, {"mc"}, {"mc"}},
  };
  for (const auto& test_case : cases) {
    CostModel::set_configured(nullptr);
    EXPECT_EQ(ranked_ids(test_case.engine, test_case.scenario), test_case.without_table)
        << test_case.engine << " under " << test_case.scenario.digest() << ", no table";
    CostModel::set_configured(reordering_table());
    EXPECT_EQ(ranked_ids(test_case.engine, test_case.scenario), test_case.with_table)
        << test_case.engine << " under " << test_case.scenario.digest() << ", table loaded";
  }
  CostModel::set_configured(nullptr);
}

TEST(EngineRank, AutoAdmitsCompiledByTheRequestTolerance) {
  // n = 12, t = 4: the plan certificate (~3.2e-6) misses the default 1e-9
  // but clears a 1e-5 request tolerance.
  CostModel::set_configured(nullptr);
  EvalRequest request = small_grid(12, Rational{4});
  EXPECT_EQ(rank(EnginePolicy{}, request).id(), "batch");
  request.tolerance = Rational{1, 100000};
  const Selection relaxed = rank(EnginePolicy{}, request);
  EXPECT_EQ(relaxed.id(), "compiled");
  EXPECT_FALSE(relaxed.fallback);
  EXPECT_LE(relaxed.compiled_bound, 1e-5);
}

#ifdef __unix__
// A coalesced serve batch runs under its jobs' own tolerance: with the one
// worker busy on a slow head job, queued n = 12, t = 4, tol = 1e-5 twins
// fold into one batch whose replies name the engine a single such job gets
// (compiled: the ~3.2e-6 plan certificate clears 1e-5, not the 1e-9
// default).
TEST(ServeCoalescing, GroupsHonourTheRequestTolerance) {
  CostModel::set_configured(nullptr);
  net::ServiceConfig config;
  config.workers = 1;
  net::EvalService service(config);
  const std::string twin = R"({"op":"threshold","n":12,"t":"4","beta":0.5,"tol":1e-5})";
  const std::string single = service.handle_line(twin);
  ASSERT_NE(single.find("\"engine\":\"compiled\""), std::string::npos) << single;

  // ~0.3 s of Monte Carlo work keeps the worker busy while the twins queue.
  std::thread head([&service] {
    (void)service.handle_line(
        R"({"op":"threshold","n":16,"t":"5","beta":0.5,"engine":"mc","trials":6000000})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<std::string> replies(4);
  std::vector<std::thread> clients;
  for (std::string& reply : replies) {
    clients.emplace_back([&service, &twin, &reply] { reply = service.handle_line(twin); });
  }
  head.join();
  for (std::thread& client : clients) client.join();
  for (const std::string& reply : replies) {
    EXPECT_NE(reply.find("\"coalesced\":true"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"engine\":\"compiled\""), std::string::npos) << reply;
  }
}
#endif  // __unix__

// --- engine-backed optimizer objective ----------------------------------

TEST(EngineBatchObjective, BitwiseEqualToBuiltinObjective) {
  const std::vector<std::vector<double>> points{{0.4, 0.6, 0.7}, {0.62, 0.62, 0.62}};
  const auto objective = batch_objective();
  const auto via_engine = objective(points, 1.0);
  const auto direct = core::threshold_winning_probability_batch(points, 1.0);
  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_engine[i], direct[i]) << "point " << i;  // bitwise
  }
}

TEST(EngineBatchObjective, SearchIterateSequenceUnchanged) {
  const auto baseline = core::maximize_thresholds({0.5, 0.5, 0.5}, 1.0, 0.25, 1e-6);
  const auto via_engine =
      core::maximize_thresholds({0.5, 0.5, 0.5}, 1.0, batch_objective(), 0.25, 1e-6);
  EXPECT_EQ(via_engine.thresholds, baseline.thresholds);
  EXPECT_EQ(via_engine.value, baseline.value);
  EXPECT_EQ(via_engine.evaluations, baseline.evaluations);
  EXPECT_EQ(via_engine.final_step, baseline.final_step);
}

TEST(EngineBatchObjective, UnknownEngineFailsAtWiringTime) {
  EXPECT_THROW((void)batch_objective("bogus"), Error);
}

// --- plan cache ----------------------------------------------------------

TEST(PlanCacheTest, MissThenHitSharesOnePlan) {
  PlanCache cache;
  const auto first = cache.get_or_lower(4, Rational{4, 3});
  const auto second = cache.get_or_lower(4, Rational{4, 3});
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, DistinctInstancesGetDistinctEntries) {
  PlanCache cache;
  (void)cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(4, Rational{4, 3});
  (void)cache.get_or_lower(3, Rational{3, 2});  // same n, different t
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(PlanCacheTest, LruEvictionKeepsRecentlyUsed) {
  PlanCache cache(2);
  (void)cache.get_or_lower(2, Rational{2, 3});
  (void)cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(2, Rational{2, 3});  // refresh n=2 to the front
  (void)cache.get_or_lower(4, Rational{4, 3});  // evicts n=3 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto before = cache.stats();
  (void)cache.get_or_lower(2, Rational{2, 3});  // still cached
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  (void)cache.get_or_lower(3, Rational{1});  // re-lowered
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(PlanCacheTest, EvictedPlanStaysValidForHolders) {
  PlanCache cache(1);
  const auto held = cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(4, Rational{4, 3});  // evicts the held plan
  EXPECT_EQ(cache.size(), 1u);
  // The shared_ptr handle keeps the evicted plan alive and usable.
  const double exact = core::symmetric_threshold_winning_probability(
                           3, Rational{5, 8}, Rational{1})
                           .to_double();
  EXPECT_NEAR(held->eval(0.625), exact, held->max_error_bound() + 1e-12);
}

TEST(PlanCacheTest, SetCapacityShrinksAndClearEmpties) {
  PlanCache cache;
  (void)cache.get_or_lower(2, Rational{2, 3});
  (void)cache.get_or_lower(3, Rational{1});
  (void)cache.get_or_lower(4, Rational{4, 3});
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, NonCanonicalRationalsShareOneEntry) {
  // Regression: the cache key is built from t's numerator/denominator, so it
  // is only correct if equal rationals always spell identically. 2/6, 1/3,
  // and -1/-3 are one value and must be one entry — a duplicate would mean
  // duplicated lowering work and a cache that lies about its size.
  PlanCache cache;
  const auto a = cache.get_or_lower(3, Rational{2, 6});
  const auto b = cache.get_or_lower(3, Rational{1, 3});
  const auto c = cache.get_or_lower(3, Rational{-1, -3});
  const auto d = cache.get_or_lower(3, Rational::parse("3/9"));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a.get(), c.get());
  EXPECT_EQ(a.get(), d.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(PlanCacheTest, LoweringRacesAreCountedNotSilent) {
  // Four raw threads released together onto one cold key, with an injected
  // pre-lowering delay so every thread reaches the miss path before the
  // first insert lands. Losers adopt the winner's plan; the discarded
  // lowerings must be COUNTED: races == misses − entries inserted holds for
  // any interleaving, so a fleet stuck re-lowering concurrently is visible.
  constexpr std::size_t kThreads = 4;
  PlanCache cache;
  util::fault::set_plan(util::fault::Plan::parse("delay@0x4:50ms"));
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const poly::CompiledPiecewise>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      plans[i] = cache.get_or_lower(6, Rational{2});
    });
  }
  for (std::thread& thread : threads) thread.join();
  util::fault::clear_plan();

  for (const auto& plan : plans) EXPECT_EQ(plan.get(), plans[0].get());
  const auto stats = cache.stats();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
  // Exactly one miss inserted; every other miss lost the race.
  EXPECT_EQ(stats.races, stats.misses - 1);
  // The 50 ms pre-lowering window makes a genuinely sequential interleaving
  // implausible; at least one race must have been observed and counted.
  EXPECT_GE(stats.races, 1u);
}

TEST(PlanCacheTest, ConcurrentLookupsShareOnePlan) {
  PlanCache cache;
  std::vector<std::shared_ptr<const poly::CompiledPiecewise>> plans(16);
  util::ParallelOptions options;
  options.grain = 1;
  util::parallel_for(
      0, plans.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) plans[i] = cache.get_or_lower(5, Rational{5, 3});
      },
      options);
  EXPECT_EQ(cache.size(), 1u);
  // Losers of a lowering race adopt the winner's plan: one shared copy.
  for (const auto& plan : plans) EXPECT_EQ(plan.get(), plans[0].get());
}

// --- fault injection (matrix-run under DDM_THREADS=1/4) ------------------

TEST(EngineCacheFault, ThrowDuringLoweringLeavesCacheUnpoisoned) {
  PlanCache cache;
  util::fault::set_plan(util::fault::Plan::parse("throw@0"));
  EXPECT_THROW((void)cache.get_or_lower(6, Rational{2}), util::fault::TransientFault);
  // The fault struck before any cache mutation: no entry, nothing counted.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // The directive is spent; the retry re-lowers successfully.
  const auto plan = cache.get_or_lower(6, Rational{2});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  util::fault::clear_plan();
}

TEST(EngineCacheFault, AutoSelectTurnsLoweringFaultIntoVisibleFallback) {
  PlanCache::instance().clear();
  util::fault::set_plan(util::fault::Plan::parse("throw@0"));
  const Selection faulted = select(EnginePolicy{}, small_grid(6, Rational{5, 2}));
  EXPECT_EQ(faulted.id(), "batch");
  EXPECT_TRUE(faulted.fallback);
  EXPECT_NE(faulted.note.find("lowering failed"), std::string::npos) << faulted.note;
  util::fault::clear_plan();
  // The cache was left clean, so the next auto selection lowers and takes
  // the compiled plan as if the fault never happened.
  const Selection clean = select(EnginePolicy{}, small_grid(6, Rational{5, 2}));
  EXPECT_EQ(clean.id(), "compiled");
  EXPECT_FALSE(clean.fallback);
}

TEST(EngineCacheFault, ForcedCompiledPropagatesTheFault) {
  PlanCache::instance().clear();
  util::fault::set_plan(util::fault::Plan::parse("throw@0"));
  EnginePolicy policy;
  policy.engine = "compiled";
  const Selection selection = select(policy, small_grid(6, Rational{7, 3}));
  EXPECT_THROW((void)selection.evaluator->evaluate(small_grid(6, Rational{7, 3})),
               util::fault::TransientFault);
  util::fault::clear_plan();
  const auto outcome = selection.evaluator->evaluate(small_grid(6, Rational{7, 3}));
  EXPECT_EQ(outcome.values.size(), 4u);
}

}  // namespace
}  // namespace ddm::engine
