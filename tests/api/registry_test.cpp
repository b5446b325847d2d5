// Problem/optimizer registries: every registered name constructs and
// evaluates, references parse strictly, and parameters reach the instances.
#include "api/registry.hpp"
#include "api/run.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "moo/nsga2.hpp"
#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"
#include "numeric/vec.hpp"

namespace rmp::api {
namespace {

TEST(ParseRefTest, SplitsNameAndParams) {
  const ParsedRef plain = parse_ref("zdt1");
  EXPECT_EQ(plain.name, "zdt1");
  EXPECT_TRUE(plain.params.empty());

  const ParsedRef full = parse_ref("pmo2?islands=4&topology=ring");
  EXPECT_EQ(full.name, "pmo2");
  ASSERT_EQ(full.params.size(), 2u);
  EXPECT_EQ(full.params.at("islands"), "4");
  EXPECT_EQ(full.params.at("topology"), "ring");

  EXPECT_TRUE(parse_ref("zdt1?").params.empty());  // empty tail allowed
}

TEST(ParseRefTest, RejectsMalformedReferences) {
  EXPECT_THROW((void)parse_ref(""), SpecError);
  EXPECT_THROW((void)parse_ref("?n=3"), SpecError);          // empty name
  EXPECT_THROW((void)parse_ref("zdt1?n"), SpecError);        // missing '='
  EXPECT_THROW((void)parse_ref("zdt1?n="), SpecError);       // empty value
  EXPECT_THROW((void)parse_ref("zdt1?=3"), SpecError);       // empty key
  EXPECT_THROW((void)parse_ref("zdt1?n=3&n=4"), SpecError);  // duplicate key
}

TEST(ParamTest, TypedAccessorsValidate) {
  const ParamMap p{{"n", "12"}, {"p", "0.5"}, {"flag", "1"}, {"s", "ring"}};
  EXPECT_EQ(param_size(p, "n", 0), 12u);
  EXPECT_EQ(param_size(p, "absent", 7), 7u);
  EXPECT_DOUBLE_EQ(param_double(p, "p", 0.0), 0.5);
  EXPECT_TRUE(param_bool(p, "flag", false));
  EXPECT_EQ(param_string(p, "s", ""), "ring");
  EXPECT_THROW((void)param_size(p, "p", 0), SpecError);    // "0.5" not integral
  EXPECT_THROW((void)param_double(p, "s", 0.0), SpecError);
  EXPECT_THROW((void)param_bool(p, "s", false), SpecError);
  // Non-finite and hex-float spellings are rejected (every knob is finite).
  const ParamMap weird{{"a", "nan"}, {"b", "inf"}, {"c", "0x1"}};
  EXPECT_THROW((void)param_double(weird, "a", 0.0), SpecError);
  EXPECT_THROW((void)param_double(weird, "b", 0.0), SpecError);
  EXPECT_THROW((void)param_double(weird, "c", 0.0), SpecError);
}

// The acceptance criterion: every registered problem (>= 8, spanning the
// analytic suite, the photosynthesis scenarios and Geobacter) constructs
// from its bare name and evaluates a mid-box point.
TEST(ProblemRegistryTest, EveryRegisteredNameConstructsAndEvaluates) {
  const auto listing = ProblemRegistry::global().list();
  EXPECT_GE(listing.size(), 8u);
  for (const auto& [name, summary] : listing) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(summary.empty());
    const std::shared_ptr<moo::Problem> problem =
        ProblemRegistry::global().make(name);
    ASSERT_NE(problem, nullptr);
    ASSERT_GE(problem->num_variables(), 1u);
    ASSERT_GE(problem->num_objectives(), 2u);

    const auto lo = problem->lower_bounds();
    const auto hi = problem->upper_bounds();
    num::Vec x(problem->num_variables());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.5 * (lo[i] + hi[i]);
    num::Vec f(problem->num_objectives());
    const double violation = problem->evaluate(x, f);
    EXPECT_GE(violation, 0.0);
    for (const double v : f) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ProblemRegistryTest, CoversAllThreeFamilies) {
  const auto& reg = ProblemRegistry::global();
  EXPECT_TRUE(reg.contains("zdt1"));           // analytic
  EXPECT_TRUE(reg.contains("photosynthesis"));  // kinetic scenarios
  EXPECT_TRUE(reg.contains("geobacter"));       // FBA
}

TEST(ProblemRegistryTest, ParametersReachTheInstance) {
  const auto zdt1 = ProblemRegistry::global().make("zdt1?n=5");
  EXPECT_EQ(zdt1->num_variables(), 5u);
  const auto dtlz2 = ProblemRegistry::global().make("dtlz2?n=7&m=4");
  EXPECT_EQ(dtlz2->num_variables(), 7u);
  EXPECT_EQ(dtlz2->num_objectives(), 4u);
  const auto photo = ProblemRegistry::global().make("photosynthesis?scenario=past-low");
  EXPECT_NE(photo->name().find("165"), std::string::npos);  // Ci=165 scenario
}

TEST(ProblemRegistryTest, RejectsUnknownNamesScenariosAndParams) {
  const auto& reg = ProblemRegistry::global();
  EXPECT_THROW((void)reg.make("zdt9"), SpecError);
  EXPECT_THROW((void)reg.make("zdt1?vars=3"), SpecError);      // unknown key
  EXPECT_THROW((void)reg.make("zdt1?n=1"), SpecError);         // below minimum
  EXPECT_THROW((void)reg.make("schaffer?n=3"), SpecError);     // takes none
  EXPECT_THROW((void)reg.make("photosynthesis?scenario=mars"), SpecError);
  EXPECT_THROW((void)reg.make("dtlz2?m=1"), SpecError);
}

TEST(ProblemRegistryTest, PhotosynthesisHasNoSolverStrategyKeys) {
  for (const char* ref : {"photosynthesis?jacobian=fd", "photosynthesis?chord=1",
                          "photosynthesis?shooting=off"}) {
    SCOPED_TRACE(ref);
    try {
      (void)ProblemRegistry::global().make(ref);
      ADD_FAILURE() << "accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown parameter"), std::string::npos)
          << e.what();
    }
  }
}

TEST(OptimizerRegistryTest, EveryRegisteredNameConstructsAndSteps) {
  const auto listing = OptimizerRegistry::global().list();
  ASSERT_GE(listing.size(), 4u);
  const moo::Zdt1 problem(6);
  for (const auto& [name, summary] : listing) {
    SCOPED_TRACE(name);
    auto optimizer = OptimizerRegistry::global().make(
        name + "?population=12", problem, OptimizerContext{5, 1});
    ASSERT_NE(optimizer, nullptr);
    optimizer->run(2);
    EXPECT_GT(optimizer->evaluations(), 0u);
    EXPECT_FALSE(optimizer->population().empty());
    EXPECT_FALSE(optimizer->name().empty());
  }
}

TEST(OptimizerRegistryTest, ExpectedEnginesAreRegistered) {
  const auto& reg = OptimizerRegistry::global();
  for (const char* name : {"nsga2", "spea2", "moead", "pmo2"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
}

TEST(OptimizerRegistryTest, HeterogeneousIslandsViaEnginesParam) {
  const moo::Zdt1 problem(6);
  auto optimizer = OptimizerRegistry::global().make(
      "pmo2?islands=2&population=10&engines=nsga2,spea2", problem,
      OptimizerContext{5, 1});
  auto* pmo2 = dynamic_cast<moo::Pmo2*>(optimizer.get());
  ASSERT_NE(pmo2, nullptr);
  EXPECT_EQ(pmo2->island(0).name(), "NSGA-II");
  EXPECT_EQ(pmo2->island(1).name(), "SPEA2");
  optimizer->run(2);
  EXPECT_GT(optimizer->evaluations(), 0u);
}

TEST(OptimizerRegistryTest, RejectsUnknownNamesAndParams) {
  const moo::Zdt1 problem(6);
  const OptimizerContext ctx{5, 1};
  const auto& reg = OptimizerRegistry::global();
  EXPECT_THROW((void)reg.make("sgd", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("nsga2?pop=10", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?topology=mesh", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?engines=sgd", problem, ctx), SpecError);
  // A trailing comma is a malformed engine list, not a shorter one.
  EXPECT_THROW((void)reg.make("pmo2?engines=nsga2,spea2,", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("moead?scalarization=max", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?migration_probability=nan", problem, ctx),
               SpecError);
}

TEST(OptimizerRegistryTest, RejectsOddNsga2Population) {
  // NSGA-II's mating loop pairs parents; an odd population used to be bumped
  // to even silently.  The spec layer now rejects it with the field named,
  // both for a direct nsga2 run and for pmo2's default NSGA-II islands.
  const moo::Zdt1 problem(6);
  const OptimizerContext ctx{5, 1};
  const auto& reg = OptimizerRegistry::global();
  EXPECT_THROW((void)reg.make("nsga2?population=31", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("nsga2?population=2", problem, ctx), SpecError);
  EXPECT_THROW((void)reg.make("pmo2?population=31", problem, ctx), SpecError);
  // An explicit engines list validates at island construction, but still
  // through the registry's nsga2 factory — the caller sees SpecError, not a
  // bare std::invalid_argument escaping from deep inside Pmo2.
  EXPECT_THROW((void)reg.make("pmo2?engines=nsga2&population=31", problem, ctx),
               SpecError);
  // Even populations still construct.
  EXPECT_NE(reg.make("nsga2?population=32", problem, ctx), nullptr);
  EXPECT_NE(reg.make("pmo2?population=32&islands=2", problem, ctx), nullptr);
}

/// Constructing optimizer `ref` on ZDT1 fails with a SpecError naming `key`.
void expect_optimizer_rejected(const std::string& ref, const std::string& key) {
  const moo::Zdt1 problem(6);
  try {
    (void)OptimizerRegistry::global().make(ref, problem, OptimizerContext{5, 1});
    ADD_FAILURE() << ref << " was accepted";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(OptimizerRegistryTest, RejectsDegenerateSpea2AndMoeadSizes) {
  // SPEA2 and MOEA/D draw mating indices from their archive and
  // neighbourhood: an empty one used to kill the process with SIGFPE, and a
  // zero population ran no search and reported an empty front.  The spec
  // layer rejects both, naming the parameter, also for pmo2 islands.
  expect_optimizer_rejected("spea2?population=10&archive=0", "spea2 archive");
  expect_optimizer_rejected("spea2?population=0", "spea2 population");
  expect_optimizer_rejected("moead?population=10&neighborhood=0", "moead neighborhood");
  expect_optimizer_rejected("moead?population=0", "moead population");
  expect_optimizer_rejected("moead?population=3", "moead population");
  expect_optimizer_rejected("pmo2?islands=2&population=2&engines=moead", "moead population");
  expect_optimizer_rejected("pmo2?islands=2&population=0&engines=spea2", "spea2 population");
  // The smallest sizes the engines run with still construct, and run.
  const moo::Zdt1 problem(6);
  const OptimizerContext ctx{5, 1};
  const auto& reg = OptimizerRegistry::global();
  EXPECT_NE(reg.make("spea2?population=1&archive=1", problem, ctx), nullptr);
  EXPECT_NE(reg.make("moead?population=4&neighborhood=1", problem, ctx), nullptr);
  RunSpec spec;
  spec.problem = "zdt1?n=6";
  spec.generations = 3;
  spec.threads = 1;
  for (const char* optimizer :
       {"spea2?population=1", "spea2?population=1&archive=1",
        "pmo2?islands=2&population=1&engines=spea2&migration_interval=1",
        "moead?population=4&neighborhood=1"}) {
    spec.optimizer = optimizer;
    const RunResult result = run(spec);
    EXPECT_FALSE(result.front.empty()) << optimizer;
    EXPECT_GT(result.evaluations, 0u) << optimizer;
  }
}

TEST(OptimizerRegistryTest, MoeadNeighborhoodMustFitThePopulation) {
  // A neighbourhood is drawn from the population, so a larger one is a spec
  // error naming it rather than a silent clamp; left out, it defaults to
  // min(20, population).
  expect_optimizer_rejected("moead?population=10&neighborhood=11",
                            "moead neighborhood 11 exceeds the population of 10");
  expect_optimizer_rejected("moead?neighborhood=101",
                            "moead neighborhood 101 exceeds the population of 100");
  RunSpec spec;
  spec.problem = "zdt1?n=6";
  spec.generations = 3;
  spec.threads = 1;
  spec.optimizer = "moead?population=10";
  const RunResult by_default = run(spec);
  spec.optimizer = "moead?population=10&neighborhood=10";
  EXPECT_EQ(by_default.fingerprint, run(spec).fingerprint);
  spec.optimizer = "moead?population=10&neighborhood=9";
  EXPECT_NE(by_default.fingerprint, run(spec).fingerprint);
}

TEST(OptimizerRegistryTest, RejectsOutOfRangeFractions) {
  // seeded_fraction and migration_probability are fractions.  Outside
  // [0, 1] the LP seeds overfill the population, a negative fraction is
  // cast to std::size_t, and bernoulli treats p > 1 as "always".  The spec
  // layer rejects them naming the key; the constructors reject what
  // bypasses it.
  const moo::Zdt1 problem(6);
  const OptimizerContext ctx{5, 1};
  const auto& reg = OptimizerRegistry::global();
  for (const char* v : {"2", "-0.5", "1.0000001"}) {
    expect_optimizer_rejected(std::string("nsga2?seeded_fraction=") + v, "seeded_fraction");
    expect_optimizer_rejected(std::string("pmo2?migration_probability=") + v,
                              "migration_probability");
  }
  expect_optimizer_rejected("pmo2?migration_probability=50", "migration_probability");
  // Both ends of the interval stay valid.
  for (const char* v : {"0", "1"}) {
    EXPECT_NE(reg.make(std::string("nsga2?seeded_fraction=") + v, problem, ctx), nullptr);
    EXPECT_NE(reg.make(std::string("pmo2?islands=2&population=8&migration_probability=") + v,
                       problem, ctx),
              nullptr);
  }

  moo::Nsga2Options nsga2;
  nsga2.seeded_fraction = -0.1;
  EXPECT_THROW(moo::Nsga2(problem, nsga2), std::invalid_argument);
  nsga2.seeded_fraction = 2.0;
  EXPECT_THROW(moo::Nsga2(problem, nsga2), std::invalid_argument);
  moo::Pmo2Options pmo2;
  pmo2.migration_probability = 50.0;
  EXPECT_THROW(moo::Pmo2(problem, pmo2), std::invalid_argument);
}

// Parameters that no spec set are fixed constants now; a reference that
// still names one fails with the unknown-parameter error, naming it.
TEST(RegistryTest, ConstantParametersAreRejectedByName) {
  const auto expect_rejected = [](const auto& registry, const std::string& ref,
                                  const std::string& key) {
    SCOPED_TRACE(ref);
    try {
      registry.validate(ref);
      ADD_FAILURE() << "accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown parameter \"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected(ProblemRegistry::global(),
                  "photosynthesis?cycle_prescreen_radius2=0.5", "cycle_prescreen_radius2");
  expect_rejected(ProblemRegistry::global(), "geobacter?reactions=700", "reactions");
  expect_rejected(OptimizerRegistry::global(), "pmo2?topology=random&degree=2", "degree");
}

TEST(OptimizerRegistryTest, ValidateChecksKeysWithoutConstructing) {
  ProblemRegistry::global().validate("geobacter?repair=0");   // no network built
  OptimizerRegistry::global().validate("pmo2?islands=4&engines=nsga2");
  EXPECT_THROW(ProblemRegistry::global().validate("geobacter?repairs=0"), SpecError);
  EXPECT_THROW(OptimizerRegistry::global().validate("pmo2?islnds=4"), SpecError);
  EXPECT_THROW(OptimizerRegistry::global().validate("sgd"), SpecError);
}

}  // namespace
}  // namespace rmp::api
