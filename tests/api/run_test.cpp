// RunSpec JSON round-trip/defaulting/rejection, api::run reproducibility
// (the fingerprint acceptance criterion), the pipeline's mining and
// robustness stages, and the unified Optimizer seam (observer hook,
// Pmo2-as-Optimizer).
#include "api/run.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"
#include "pareto/mining.hpp"
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every field of two YieldResults agrees bitwise.
void expect_same_yield(const robustness::YieldResult& got,
                       const robustness::YieldResult& expected, const std::string& what) {
  EXPECT_EQ(bits(got.gamma), bits(expected.gamma)) << what;
  EXPECT_EQ(bits(got.nominal_value), bits(expected.nominal_value)) << what;
  EXPECT_EQ(bits(got.absolute_threshold), bits(expected.absolute_threshold)) << what;
  EXPECT_EQ(got.robust_trials, expected.robust_trials) << what;
  EXPECT_EQ(got.total_trials, expected.total_trials) << what;
  EXPECT_EQ(bits(got.max_deviation), bits(expected.max_deviation)) << what;
}

/// The ZDT1 objective-0 property and the yield configuration a run of `spec`
/// screens with, for scoring oracles outside the run.
struct Zdt1Screen {
  moo::Zdt1 problem;
  robustness::PropertyFn property;
  robustness::YieldConfig cfg;

  Zdt1Screen(const Zdt1Screen&) = delete;  // property points at problem
  Zdt1Screen(std::size_t n, const RunSpec& spec) : problem(n) {
    property = [this](std::span<const double> x) {
      num::Vec f(problem.num_objectives());
      (void)problem.evaluate(x, f);
      return f[0];
    };
    cfg.perturbation.global_trials = spec.robustness.trials;
    cfg.perturbation.max_relative = spec.robustness.max_relative;
    cfg.perturbation.lower.assign(problem.lower_bounds().begin(),
                                  problem.lower_bounds().end());
    cfg.perturbation.upper.assign(problem.upper_bounds().begin(),
                                  problem.upper_bounds().end());
    cfg.epsilon_fraction = spec.robustness.epsilon_fraction;
    cfg.seed = spec.robustness.seed;
    cfg.threads = 1;
  }
};

RunSpec surface_zdt1_spec(std::size_t threads, std::size_t trials, std::size_t samples) {
  RunSpec spec = small_zdt1_spec();
  spec.threads = threads;
  spec.robustness.enabled = true;
  spec.robustness.trials = trials;
  spec.robustness.surface_samples = samples;
  return spec;
}

// The max-yield record is the surface's own measurement of that pick: the
// same YieldResult global_yield reports for its x, field for field.
TEST(ApiRunTest, MaxYieldRecordIsTheMeasuredGlobalYield) {
  const RunSpec spec = surface_zdt1_spec(4, 50, 5);
  const RunResult result = run(spec);
  ASSERT_FALSE(result.mined.empty());
  const MinedCandidate& best = result.mined.back();
  ASSERT_EQ(best.selection, "max-yield");
  ASSERT_TRUE(best.yield.has_value());
  ASSERT_LT(best.yield->gamma, 1.0);

  const Zdt1Screen screen(6, spec);
  expect_same_yield(*best.yield,
                    robustness::global_yield(best.x, screen.property, screen.cfg),
                    "max-yield");
  EXPECT_GT(best.yield->max_deviation, 0.0);
}

// The surface is spec.robustness.surface_samples equally-spaced front members,
// each with its place, its archived objectives and a gamma in [0, 1].
TEST(ApiRunSurfaceTest, PicksLieAlongTheFront) {
  const RunResult result = run(surface_zdt1_spec(1, 200, 7));
  const std::vector<std::size_t> picks = pareto::equally_spaced(result.front, 7);
  ASSERT_EQ(result.surface.size(), picks.size());
  EXPECT_GE(result.surface.size(), 5u);
  for (std::size_t k = 0; k < picks.size(); ++k) {
    const SurfacePoint& p = result.surface[k];
    EXPECT_EQ(p.front_index, picks[k]);
    EXPECT_EQ(p.objectives, result.front[picks[k]].f);
    EXPECT_GE(p.gamma, 0.0);
    EXPECT_LE(p.gamma, 1.0);
    EXPECT_EQ(p.total_trials, 200u);
  }
}

// Every screened record is the one-request scorer's answer for its front
// member against the archived objective 0, bit for bit, whatever the thread
// count and however the batch is chunked: 100 trials fit all ensembles in
// one chunk, 300 split them.
TEST(ApiRunSurfaceTest, YieldsMatchAOneRequestOracleBitForBit) {
  for (const std::size_t trials : {std::size_t{100}, std::size_t{300}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const RunSpec spec = surface_zdt1_spec(threads, trials, 7);
      const RunResult result = run(spec);
      ASSERT_LE(result.surface.size() * 100, robustness::kEnsembleChunkTrials);
      ASSERT_GT(result.surface.size() * 300, robustness::kEnsembleChunkTrials);
      const Zdt1Screen screen(6, spec);
      const auto oracle = [&](std::size_t idx) {
        const robustness::EnsembleRequest request{
            result.front[idx].x, result.front[idx].f[0], spec.robustness.seed,
            robustness::kAllVariables};
        return robustness::score_ensembles({&request, 1}, screen.property, screen.cfg)
            .front();
      };
      const std::string where =
          "trials=" + std::to_string(trials) + " threads=" + std::to_string(threads);
      std::set<double> distinct;
      for (const SurfacePoint& p : result.surface) {
        expect_same_yield(p, oracle(p.front_index),
                          where + " surface " + std::to_string(p.front_index));
        distinct.insert(p.max_deviation);
      }
      EXPECT_GE(distinct.size(), 2u) << "identical records would not test the picks";
      for (const MinedCandidate& c : result.mined) {
        ASSERT_TRUE(c.yield.has_value()) << c.selection;
        expect_same_yield(*c.yield, oracle(c.front_index), where + " " + c.selection);
      }
    }
  }
}

// A past-low run whose mined shadow minimum of f1 is also a surface pick.
// On this kinetic problem an evaluation reads the warm-start pool, so a
// nominal solved again, or trials scored after another member's commit, read
// a different snapshot and give different bits: a second measurement of a
// member shows here.  Run once, shared by the three invariants below.
const RunResult& kinetic_screen_run() {
  static const RunResult result = [] {
    RunSpec spec;
    spec.problem = "photosynthesis?scenario=past-low";
    spec.optimizer = "pmo2?islands=4&population=16";
    spec.generations = 6;
    spec.seed = 3;
    spec.threads = 4;
    spec.robustness.enabled = true;
    spec.robustness.trials = 100;
    spec.robustness.surface_samples = 5;
    spec.robustness.seed = 102;
    return run(spec);
  }();
  return result;
}

// Records on the same front member are one measurement: each shares its
// YieldResult with every other record on that index.
TEST(ApiRunSurfaceTest, RecordsSharingAFrontIndexAreBitwiseEqual) {
  const RunResult& result = kinetic_screen_run();
  std::vector<std::pair<std::size_t, robustness::YieldResult>> records;
  for (const MinedCandidate& c : result.mined) {
    ASSERT_TRUE(c.yield.has_value()) << c.selection;
    records.emplace_back(c.front_index, *c.yield);
  }
  for (const SurfacePoint& p : result.surface) records.emplace_back(p.front_index, p);
  std::size_t shared = 0;
  for (std::size_t a = 0; a < records.size(); ++a) {
    for (std::size_t b = a + 1; b < records.size(); ++b) {
      if (records[a].first != records[b].first) continue;
      ++shared;
      expect_same_yield(records[a].second, records[b].second,
                        "front index " + std::to_string(records[a].first));
    }
  }
  // Both shadow minima are front extremes, which equal spacing always picks,
  // and max-yield repeats a surface point.
  EXPECT_GE(shared, 3u);
}

// The nominal every ensemble is measured against is the archived objective 0
// of its front member, bitwise.
TEST(ApiRunSurfaceTest, NominalIsTheArchivedObjective) {
  const RunResult& result = kinetic_screen_run();
  ASSERT_FALSE(result.surface.empty());
  for (const SurfacePoint& p : result.surface) {
    EXPECT_EQ(bits(p.nominal_value), bits(result.front[p.front_index].f[0]))
        << "surface " << p.front_index;
  }
  for (const MinedCandidate& c : result.mined) {
    ASSERT_TRUE(c.yield.has_value()) << c.selection;
    EXPECT_EQ(bits(c.yield->nominal_value), bits(result.front[c.front_index].f[0]))
        << c.selection;
  }
}

// The run's evaluation count is exact: the optimizer's evaluations plus one
// ensemble per distinct screened front member, and not one nominal solve
// more.
TEST(ApiRunSurfaceTest, EachScreenedMemberCostsItsTrialsOnly) {
  const RunResult& result = kinetic_screen_run();
  ASSERT_FALSE(result.surface.empty());
  std::set<std::size_t> screened;
  for (const MinedCandidate& c : result.mined) screened.insert(c.front_index);
  for (const SurfacePoint& p : result.surface) screened.insert(p.front_index);
  EXPECT_LT(screened.size(), result.mined.size() + result.surface.size());
  EXPECT_EQ(result.eval_stats.evaluations,
            result.evaluations + screened.size() * result.spec.robustness.trials);
}

// No samples, no surface: the mined candidates keep their yields and no
// max-yield pick is made.  With mining off as well nothing is screened.
TEST(ApiRunSurfaceTest, ZeroSamplesGiveAnEmptySurface) {
  RunSpec spec = surface_zdt1_spec(1, 50, 0);
  const RunResult result = run(spec);
  EXPECT_TRUE(result.surface.empty());
  ASSERT_EQ(result.mined.size(), 3u);
  for (const MinedCandidate& c : result.mined) {
    ASSERT_TRUE(c.yield.has_value()) << c.selection;
    EXPECT_NE(c.selection, "max-yield");
  }

  spec.mining.enabled = false;
  const RunResult bare = run(spec);
  EXPECT_TRUE(bare.surface.empty());
  EXPECT_TRUE(bare.mined.empty());
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
