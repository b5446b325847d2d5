#include "moo/nsga2.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "moo/dominance.hpp"
#include "moo/testproblems.hpp"

namespace rmp::moo {
namespace {

/// Mean distance of the non-dominated set from the known ZDT1 front
/// f2 = 1 - sqrt(f1).
double zdt1_front_error(std::span<const Individual> pop) {
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t i : nondominated_indices(pop)) {
    acc += std::fabs(pop[i].f[1] - (1.0 - std::sqrt(pop[i].f[0])));
    ++count;
  }
  return count > 0 ? acc / static_cast<double>(count) : 1e9;
}

TEST(Nsga2Test, InitializePopulatesAndEvaluates) {
  const Zdt1 problem(10);
  Nsga2Options o;
  o.population_size = 20;
  Nsga2 alg(problem, o);
  alg.initialize();
  EXPECT_EQ(alg.population().size(), 20u);
  EXPECT_EQ(alg.evaluations(), 20u);
  for (const Individual& ind : alg.population()) {
    EXPECT_EQ(ind.x.size(), 10u);
    EXPECT_EQ(ind.f.size(), 2u);
  }
}

TEST(Nsga2Test, OddPopulationRejected) {
  // Odd sizes used to be silently bumped to even, which skewed every
  // downstream count; the constructor now refuses them loudly.
  const Zdt1 problem(5);
  Nsga2Options o;
  o.population_size = 21;
  EXPECT_THROW(Nsga2(problem, o), std::invalid_argument);
  o.population_size = 2;  // even but below the minimum of 4
  EXPECT_THROW(Nsga2(problem, o), std::invalid_argument);
}

TEST(Nsga2Test, StepKeepsPopulationSizeAndAddsEvaluations) {
  const Zdt1 problem(10);
  Nsga2Options o;
  o.population_size = 20;
  Nsga2 alg(problem, o);
  alg.initialize();
  alg.step();
  EXPECT_EQ(alg.population().size(), 20u);
  EXPECT_EQ(alg.evaluations(), 40u);  // 20 initial + 20 offspring
}

TEST(Nsga2Test, ConvergesOnZdt1) {
  const Zdt1 problem(12);
  Nsga2Options o;
  o.population_size = 60;
  o.seed = 3;
  Nsga2 alg(problem, o);
  alg.initialize();
  const double initial_error = zdt1_front_error(alg.population());
  for (int g = 0; g < 120; ++g) alg.step();
  const double final_error = zdt1_front_error(alg.population());
  EXPECT_LT(final_error, initial_error / 10.0);
  EXPECT_LT(final_error, 0.05);
}

TEST(Nsga2Test, SolvesSchafferExtremes) {
  const Schaffer problem;
  Nsga2Options o;
  o.population_size = 40;
  o.seed = 4;
  Nsga2 alg(problem, o);
  alg.run(80);
  // The front is x in [0, 2]; check both objectives get near their minima.
  double best_f0 = 1e18, best_f1 = 1e18;
  for (const Individual& ind : alg.population()) {
    best_f0 = std::min(best_f0, ind.f[0]);
    best_f1 = std::min(best_f1, ind.f[1]);
  }
  EXPECT_LT(best_f0, 0.1);
  EXPECT_LT(best_f1, 0.1);
}

TEST(Nsga2Test, HandlesConstrainedProblem) {
  const BinhKorn problem;
  Nsga2Options o;
  o.population_size = 40;
  o.seed = 5;
  Nsga2 alg(problem, o);
  alg.run(60);
  // After 60 generations the population should be essentially feasible.
  std::size_t feasible = 0;
  for (const Individual& ind : alg.population()) feasible += ind.feasible();
  EXPECT_GT(feasible, alg.population().size() * 9 / 10);
}

TEST(Nsga2Test, DeterministicForSeed) {
  const Zdt2 problem(8);
  Nsga2Options o;
  o.population_size = 20;
  o.seed = 42;
  Nsga2 a(problem, o), b(problem, o);
  a.run(10);
  b.run(10);
  ASSERT_EQ(a.population().size(), b.population().size());
  for (std::size_t i = 0; i < a.population().size(); ++i) {
    EXPECT_EQ(a.population()[i].x, b.population()[i].x);
  }
}

TEST(Nsga2Test, ThreePhaseHooksReproduceInitializeAndStep) {
  // A host that drives the hooks itself (as Pmo2 does) gets exactly the
  // engine's own initialize()/step(); between begin_* and end_* the
  // committed population and counter stay untouched.
  const Zdt2 problem(8);
  Nsga2Options o;
  o.population_size = 20;
  o.seed = 42;
  Nsga2 a(problem, o), b(problem, o);
  a.initialize();
  const auto initial = b.begin_initialize();
  EXPECT_EQ(initial.size(), 20u);
  EXPECT_TRUE(b.population().empty());
  b.end_initialize(core::evaluate_batch(problem, initial, 1));
  for (int g = 0; g < 5; ++g) {
    a.step();
    const std::vector<Individual> before(b.population().begin(), b.population().end());
    const std::size_t evaluations = b.evaluations();
    const auto offspring = b.begin_step();
    EXPECT_EQ(offspring.size(), 20u);
    EXPECT_EQ(b.evaluations(), evaluations);
    ASSERT_EQ(b.population().size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(b.population()[i].x, before[i].x);
    }
    b.end_step(core::evaluate_batch(problem, offspring, 1));
  }
  EXPECT_EQ(a.evaluations(), b.evaluations());
  ASSERT_EQ(a.population().size(), b.population().size());
  for (std::size_t i = 0; i < a.population().size(); ++i) {
    EXPECT_EQ(a.population()[i].x, b.population()[i].x);
    EXPECT_EQ(a.population()[i].f, b.population()[i].f);
    EXPECT_EQ(a.population()[i].crowding, b.population()[i].crowding);
  }
}

TEST(Nsga2Test, DifferentSeedsDiffer) {
  const Zdt2 problem(8);
  Nsga2Options oa, ob;
  oa.population_size = ob.population_size = 20;
  oa.seed = 1;
  ob.seed = 2;
  Nsga2 a(problem, oa), b(problem, ob);
  a.run(5);
  b.run(5);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.population().size() && !any_diff; ++i) {
    any_diff = a.population()[i].x != b.population()[i].x;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Nsga2Test, InjectReplacesWorst) {
  const Zdt1 problem(6);
  Nsga2Options o;
  o.population_size = 10;
  Nsga2 alg(problem, o);
  alg.initialize();

  // Build a clearly superior immigrant.
  Individual imm;
  imm.x.assign(6, 0.0);
  imm.f.assign(2, 0.0);
  imm.violation = problem.evaluate(imm.x, imm.f);

  alg.inject(std::span<const Individual>(&imm, 1));
  bool found = false;
  for (const Individual& ind : alg.population()) {
    if (ind.x == imm.x) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(alg.population().size(), 10u);
}

TEST(Nsga2Test, RunsOnEveryZdt) {
  // Smoke sweep: all ZDT instances improve their best-f0+f1 sum.
  const Zdt1 z1(8);
  const Zdt2 z2(8);
  const Zdt3 z3(8);
  const Zdt4 z4(6);
  const Zdt6 z6(6);
  const Problem* problems[] = {&z1, &z2, &z3, &z4, &z6};
  for (const Problem* p : problems) {
    Nsga2Options o;
    o.population_size = 30;
    o.seed = 9;
    Nsga2 alg(*p, o);
    alg.run(40);
    for (const Individual& ind : alg.population()) {
      EXPECT_TRUE(num::all_finite(ind.f)) << p->name();
    }
  }
}

}  // namespace
}  // namespace rmp::moo
