// RunSpec JSON round-trip/defaulting/rejection, api::run reproducibility
// (the fingerprint acceptance criterion), the pipeline's mining and
// robustness stages, and the unified Optimizer seam (observer hook,
// Pmo2-as-Optimizer).
#include "api/run.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"
#include "robustness/yield.hpp"

namespace rmp::api {
namespace {

RunSpec small_zdt1_spec() {
  RunSpec spec;
  spec.problem = "zdt1?n=6";
  spec.optimizer = "pmo2?islands=2&population=12&migration_interval=4";
  spec.generations = 10;
  spec.seed = 11;
  spec.threads = 1;
  return spec;
}

TEST(RunSpecTest, DefaultsFromMinimalJson) {
  const RunSpec spec = spec_from_string(R"({"problem": "zdt1"})");
  EXPECT_EQ(spec.problem, "zdt1");
  EXPECT_EQ(spec.optimizer, "pmo2");
  EXPECT_EQ(spec.generations, 100u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.threads, 0u);
  EXPECT_FALSE(spec.include_decision_vectors);
  EXPECT_TRUE(spec.mining.enabled);
  EXPECT_EQ(spec.mining.metric, pareto::DistanceMetric::kEuclidean);
  EXPECT_FALSE(spec.robustness.enabled);
  EXPECT_EQ(spec.robustness.trials, 1000u);
  EXPECT_DOUBLE_EQ(spec.robustness.max_relative, 0.10);
  EXPECT_DOUBLE_EQ(spec.robustness.epsilon_fraction, 0.05);
  EXPECT_EQ(spec.robustness.surface_samples, 0u);
}

TEST(RunSpecTest, JsonRoundTripIsIdentity) {
  RunSpec spec = small_zdt1_spec();
  spec.mining.metric = pareto::DistanceMetric::kChebyshev;
  spec.robustness.enabled = true;
  spec.robustness.trials = 123;
  spec.robustness.surface_samples = 9;
  spec.include_decision_vectors = true;

  const RunSpec back = spec_from_json(spec_to_json(spec));
  EXPECT_EQ(back.problem, spec.problem);
  EXPECT_EQ(back.optimizer, spec.optimizer);
  EXPECT_EQ(back.generations, spec.generations);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.threads, spec.threads);
  EXPECT_EQ(back.include_decision_vectors, spec.include_decision_vectors);
  EXPECT_EQ(back.mining.enabled, spec.mining.enabled);
  EXPECT_EQ(back.mining.metric, spec.mining.metric);
  EXPECT_EQ(back.robustness.enabled, spec.robustness.enabled);
  EXPECT_EQ(back.robustness.trials, spec.robustness.trials);
  EXPECT_EQ(back.robustness.surface_samples, spec.robustness.surface_samples);
  // And the serialized form is stable.
  EXPECT_EQ(spec_to_json(back).dump(), spec_to_json(spec).dump());
}

TEST(RunSpecTest, RejectsBadSpecs) {
  // Not an object / missing problem.
  EXPECT_THROW((void)spec_from_string("[]"), SpecError);
  EXPECT_THROW((void)spec_from_string("{}"), SpecError);
  // Unknown keys (typos must fail loudly), wrong types, unknown names.
  EXPECT_THROW((void)spec_from_string(R"({"problem": "zdt1", "generatoins": 5})"),
               SpecError);
  EXPECT_THROW((void)spec_from_string(R"({"problem": "zdt1", "generations": "5"})"),
               SpecError);
  EXPECT_THROW((void)spec_from_string(R"({"problem": "zdt1", "generations": -5})"),
               SpecError);
  EXPECT_THROW((void)spec_from_string(R"({"problem": "nope"})"), SpecError);
  EXPECT_THROW((void)spec_from_string(R"({"problem": "zdt1", "optimizer": "sgd"})"),
               SpecError);
  // Parameter-key typos fail at spec-parse time too, before any compute.
  EXPECT_THROW((void)spec_from_string(R"({"problem": "zdt1?vars=9"})"), SpecError);
  EXPECT_THROW(
      (void)spec_from_string(R"({"problem": "zdt1", "optimizer": "pmo2?islnds=4"})"),
      SpecError);
  EXPECT_THROW(
      (void)spec_from_string(R"({"problem": "zdt1", "mining": {"metrik": "x"}})"),
      SpecError);
  EXPECT_THROW(
      (void)spec_from_string(R"({"problem": "zdt1", "robustness": {"trials": 1.5}})"),
      SpecError);
  // Malformed JSON reaches the caller as JsonError.
  EXPECT_THROW((void)spec_from_string(R"({"problem": )"), core::JsonError);
}

TEST(RunSpecTest, RejectsTheRemovedCacheKey) {
  // The evaluation cache is gone (the warm pool's exact hit is the one
  // memo); a spec that still asks for it must fail naming the key rather
  // than run without it.
  try {
    (void)spec_from_string(
        R"({"problem": "photosynthesis?scenario=past-low", "cache": 4096})");
    FAIL() << "a spec carrying \"cache\" was accepted";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("cache"), std::string::npos)
        << "actual error: " << e.what();
  }
}

// The acceptance criterion: the same spec + seed reproduces the same archive
// fingerprint across invocations.
TEST(ApiRunTest, SameSpecSameFingerprint) {
  const RunSpec spec = small_zdt1_spec();
  const RunResult a = run(spec);
  const RunResult b = run(spec);
  ASSERT_FALSE(a.front.empty());
  EXPECT_NE(a.fingerprint, 0u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.front.size(), b.front.size());

  RunSpec reseeded = spec;
  reseeded.seed = 12;
  EXPECT_NE(run(reseeded).fingerprint, a.fingerprint);
}

TEST(ApiRunTest, EveryOptimizerRunsThroughTheSpecSeam) {
  for (const char* optimizer : {"nsga2", "spea2", "moead", "pmo2"}) {
    SCOPED_TRACE(optimizer);
    RunSpec spec;
    spec.problem = "schaffer";
    spec.optimizer = std::string(optimizer) + "?population=10";
    spec.generations = 5;
    spec.threads = 1;
    const RunResult result = run(spec);
    EXPECT_FALSE(result.front.empty());
    EXPECT_GT(result.evaluations, 0u);
    // Mining on by default: closest-to-ideal + one shadow min per objective.
    ASSERT_EQ(result.mined.size(), 3u);
    EXPECT_EQ(result.mined[0].selection, "closest-to-ideal");
  }
}

TEST(ApiRunTest, RobustnessStagesProduceYieldsAndSurface) {
  RunSpec spec = small_zdt1_spec();
  spec.robustness.enabled = true;
  spec.robustness.trials = 50;
  spec.robustness.surface_samples = 5;
  const RunResult result = run(spec);
  ASSERT_GE(result.mined.size(), 4u);  // ideal + 2 shadows + max-yield
  EXPECT_EQ(result.mined.back().selection, "max-yield");
  for (const auto& c : result.mined) {
    ASSERT_TRUE(c.yield.has_value()) << c.selection;
    EXPECT_GE(c.yield->gamma, 0.0);
    EXPECT_LE(c.yield->gamma, 1.0);
    EXPECT_EQ(c.yield->total_trials, 50u);
  }
  EXPECT_FALSE(result.surface.empty());
  // Robustness is seeded too: the whole result reproduces.
  const RunResult again = run(spec);
  ASSERT_EQ(again.mined.size(), result.mined.size());
  EXPECT_DOUBLE_EQ(again.mined[0].yield->gamma, result.mined[0].yield->gamma);
}

// DesignerTest: the paper's design pipeline end to end through api::run
// (PMO2 front, trade-off mining, Monte-Carlo yield, max-yield selection).
RunSpec design_spec() {
  RunSpec spec;
  spec.problem = "zdt1?n=8";
  spec.optimizer = "pmo2?islands=2&migration_interval=10";
  spec.generations = 30;
  spec.seed = 5;
  spec.threads = 4;
  spec.robustness.enabled = true;
  spec.robustness.trials = 100;
  spec.robustness.surface_samples = 8;
  return spec;
}

void expect_no_robustness(const RunResult& result) {
  EXPECT_TRUE(result.surface.empty());
  ASSERT_EQ(result.mined.size(), 3u);  // no max-yield pick either
  for (const auto& c : result.mined) EXPECT_FALSE(c.yield.has_value()) << c.selection;
}

TEST(DesignerTest, FullPipelineOnZdt1) {
  const RunResult result = run(design_spec());

  EXPECT_GT(result.front.size(), 10u);
  EXPECT_GT(result.evaluations, 1000u);

  // Mined set: closest-to-ideal + one shadow minimum per objective + max-yield.
  ASSERT_EQ(result.mined.size(), 4u);
  EXPECT_EQ(result.mined[0].selection, "closest-to-ideal");
  EXPECT_EQ(result.mined[1].selection, "shadow-min f0");
  EXPECT_EQ(result.mined[2].selection, "shadow-min f1");
  EXPECT_EQ(result.mined.back().selection, "max-yield");

  // Every mined candidate carries a yield estimate in [0, 1].
  for (const MinedCandidate& c : result.mined) {
    ASSERT_TRUE(c.yield.has_value()) << c.selection;
    EXPECT_GE(c.yield->gamma, 0.0);
    EXPECT_LE(c.yield->gamma, 1.0);
    EXPECT_EQ(c.yield->total_trials, 100u);
  }
  EXPECT_EQ(result.surface.size(), 8u);
}

TEST(DesignerTest, ShadowMinimaAreExtremes) {
  RunSpec spec = design_spec();
  spec.robustness.enabled = false;
  const RunResult result = run(spec);
  ASSERT_EQ(result.mined.size(), 3u);
  const num::Vec prm = result.front.relative_minimum();
  EXPECT_EQ(result.mined[1].selection, "shadow-min f0");
  EXPECT_EQ(result.mined[1].objectives[0], prm[0]);
  EXPECT_EQ(result.mined[2].selection, "shadow-min f1");
  EXPECT_EQ(result.mined[2].objectives[1], prm[1]);
}

// Zero trials: the run screens nothing, so it builds no property at all.
TEST(DesignerTest, NullPropertySkipsRobustness) {
  RunSpec spec = design_spec();
  spec.robustness.trials = 0;
  expect_no_robustness(run(spec));
}

TEST(DesignerTest, RobustnessDisabledByConfig) {
  RunSpec spec = design_spec();
  spec.robustness.enabled = false;
  expect_no_robustness(run(spec));
}

// The max-yield record is the surface's own measurement of that pick: the
// same YieldResult global_yield reports for its x, field for field.
TEST(ApiRunTest, MaxYieldRecordIsTheMeasuredGlobalYield) {
  RunSpec spec = small_zdt1_spec();
  spec.threads = 4;
  spec.robustness.enabled = true;
  spec.robustness.trials = 50;
  spec.robustness.surface_samples = 5;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.mined.empty());
  const MinedCandidate& best = result.mined.back();
  ASSERT_EQ(best.selection, "max-yield");
  ASSERT_TRUE(best.yield.has_value());
  ASSERT_LT(best.yield->gamma, 1.0);

  const moo::Zdt1 problem(6);
  const robustness::PropertyFn property = [&](std::span<const double> x) {
    num::Vec f(problem.num_objectives());
    (void)problem.evaluate(x, f);
    return f[0];
  };
  robustness::YieldConfig cfg;
  cfg.perturbation.global_trials = spec.robustness.trials;
  cfg.perturbation.max_relative = spec.robustness.max_relative;
  cfg.perturbation.lower.assign(problem.lower_bounds().begin(),
                                problem.lower_bounds().end());
  cfg.perturbation.upper.assign(problem.upper_bounds().begin(),
                                problem.upper_bounds().end());
  cfg.epsilon_fraction = spec.robustness.epsilon_fraction;
  cfg.seed = spec.robustness.seed;
  const robustness::YieldResult expected = robustness::global_yield(best.x, property, cfg);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const robustness::YieldResult& got = *best.yield;
  EXPECT_EQ(bits(got.gamma), bits(expected.gamma));
  EXPECT_EQ(bits(got.nominal_value), bits(expected.nominal_value));
  EXPECT_EQ(bits(got.absolute_threshold), bits(expected.absolute_threshold));
  EXPECT_EQ(got.robust_trials, expected.robust_trials);
  EXPECT_EQ(got.total_trials, expected.total_trials);
  EXPECT_EQ(bits(got.max_deviation), bits(expected.max_deviation));
  EXPECT_GT(got.max_deviation, 0.0);
}

TEST(ApiRunTest, ResultJsonCarriesTheFingerprint) {
  RunSpec spec = small_zdt1_spec();
  spec.include_decision_vectors = true;
  const RunResult result = run(spec);
  const core::Json doc = core::Json::parse(result_to_json(result).dump());
  EXPECT_EQ(doc.at("fingerprint").as_u64(), result.fingerprint);
  EXPECT_EQ(doc.at("evaluations").as_size(), result.evaluations);
  EXPECT_EQ(doc.at("front").at("size").as_size(), result.front.size());
  EXPECT_EQ(doc.at("front").at("members").size(), result.front.size());
  // include_decision_vectors: front members carry their x.
  EXPECT_EQ(doc.at("front").at("members").at(0).at("x").size(), 6u);
  EXPECT_EQ(doc.at("mined").size(), result.mined.size());
  // The embedded spec round-trips to the spec that ran.
  const RunSpec echoed = spec_from_json(doc.at("spec"));
  EXPECT_EQ(echoed.problem, spec.problem);
  EXPECT_EQ(echoed.seed, spec.seed);
}

// Satellite: the base-interface observer hook fires once per committed
// generation for every engine, Pmo2 included (its epoch callback survives
// the Optimizer seam).
TEST(OptimizerSeamTest, ObserverFiresPerGenerationThroughBaseInterface) {
  const moo::Zdt1 problem(6);
  for (const char* name : {"nsga2", "pmo2"}) {
    SCOPED_TRACE(name);
    auto optimizer = OptimizerRegistry::global().make(
        std::string(name) + "?population=8", problem, OptimizerContext{3, 1});
    std::size_t calls = 0;
    std::size_t last_gen = 0;
    moo::Optimizer& base = *optimizer;
    base.run(4, [&](std::size_t gen, const moo::Optimizer& state) {
      ++calls;
      last_gen = gen;
      EXPECT_FALSE(state.population().empty());
      EXPECT_GT(state.evaluations(), 0u);
    });
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(last_gen, 4u);
  }
}

TEST(OptimizerSeamTest, Pmo2PopulationIsTheArchiveView) {
  const moo::Zdt1 problem(6);
  moo::Pmo2Options options;
  options.islands = 2;
  options.island_threads = 1;
  moo::Pmo2 pmo2(problem, options, moo::Pmo2::default_nsga2_factory(10));
  pmo2.run(3);
  const moo::Optimizer& base = pmo2;
  EXPECT_EQ(base.population().data(), pmo2.archive().solutions().data());
  EXPECT_EQ(base.population().size(), pmo2.archive().size());
  EXPECT_EQ(base.name(), "PMO2");
}

TEST(OptimizerSeamTest, Pmo2InjectSpreadsRoundRobinAndArchives) {
  const moo::Zdt1 problem(2);
  moo::Pmo2Options options;
  options.islands = 2;
  options.island_threads = 1;
  options.migration_interval = 0;  // isolate inject from migration
  moo::Pmo2 pmo2(problem, options, moo::Pmo2::default_nsga2_factory(6));
  pmo2.initialize();

  // A hand-made non-dominated immigrant that beats everything: f = (0, ~0).
  moo::Individual star;
  star.x = num::Vec{0.0, 0.0};
  star.f = num::Vec(2);
  star.violation = problem.evaluate(star.x, star.f);
  ASSERT_EQ(star.violation, 0.0);

  const std::size_t before = pmo2.archive().size();
  pmo2.inject(std::span<const moo::Individual>(&star, 1));
  // The immigrant enters the archive (it dominates the f1-extreme corner
  // unless that corner is already optimal) and island 0's population.
  bool in_island0 = false;
  for (const auto& resident : pmo2.island(0).population()) {
    if (resident.x == star.x) in_island0 = true;
  }
  EXPECT_TRUE(in_island0);
  EXPECT_GE(pmo2.archive().size(), 1u);
  (void)before;
}

}  // namespace
}  // namespace rmp::api
