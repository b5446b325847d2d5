#include "moo/spea2.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/parallel.hpp"
#include "moo/dominance.hpp"
#include "moo/nsga2.hpp"
#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"

namespace rmp::moo {
namespace {

TEST(Spea2Test, InitializeFillsArchive) {
  const Zdt1 problem(8);
  Spea2Options o;
  o.population_size = 20;
  o.archive_size = 20;
  Spea2 alg(problem, o);
  alg.initialize();
  EXPECT_EQ(alg.population().size(), 20u);
  EXPECT_EQ(alg.evaluations(), 20u);
}

TEST(Spea2Test, ArchiveBoundedAfterSteps) {
  const Zdt1 problem(8);
  Spea2Options o;
  o.population_size = 20;
  o.archive_size = 16;
  Spea2 alg(problem, o);
  alg.run(10);
  EXPECT_LE(alg.population().size(), 16u);
  EXPECT_EQ(alg.evaluations(), 20u + 10u * 20u);
}

// An odd population runs as given: each generation breeds exactly
// population_size offspring, the second child of the last pair unused.
TEST(Spea2Test, OddPopulationRunsAsGiven) {
  const Zdt1 problem(8);
  Spea2Options o;
  o.population_size = 11;
  o.archive_size = 8;
  Spea2 alg(problem, o);
  alg.run(5);
  EXPECT_EQ(alg.evaluations(), 11u + 5u * 11u);
}

// A population of one: the first environmental selection sees a lone
// individual, which has no k-th neighbor to measure density against.
TEST(Spea2Test, PopulationOfOneRuns) {
  const Zdt1 problem(6);
  for (std::size_t archive : {1u, 4u}) {
    Spea2Options o;
    o.population_size = 1;
    o.archive_size = archive;
    Spea2 alg(problem, o);
    alg.run(4);
    EXPECT_EQ(alg.evaluations(), 1u + 4u * 1u);
    ASSERT_FALSE(alg.population().empty());
    EXPECT_LE(alg.population().size(), archive);
    for (const Individual& m : alg.population()) EXPECT_TRUE(num::all_finite(m.f));
  }
}

TEST(Spea2Test, ConvergesOnZdt1) {
  const Zdt1 problem(12);
  Spea2Options o;
  o.population_size = 40;
  o.archive_size = 40;
  o.seed = 3;
  Spea2 alg(problem, o);
  alg.initialize();
  auto error = [&]() {
    double acc = 0.0;
    for (const Individual& m : alg.population()) {
      acc += std::fabs(m.f[1] - (1.0 - std::sqrt(m.f[0])));
    }
    return acc / static_cast<double>(alg.population().size());
  };
  const double initial = error();
  for (int g = 0; g < 100; ++g) alg.step();
  EXPECT_LT(error(), initial / 5.0);
}

TEST(Spea2Test, TruncationPreservesSpread) {
  const Zdt1 problem(8);
  Spea2Options o;
  o.population_size = 40;
  o.archive_size = 10;
  o.seed = 4;
  Spea2 alg(problem, o);
  alg.run(40);
  // The archive should span a nontrivial range of f0.
  double min_f0 = 1e18, max_f0 = -1e18;
  for (const Individual& m : alg.population()) {
    min_f0 = std::min(min_f0, m.f[0]);
    max_f0 = std::max(max_f0, m.f[0]);
  }
  EXPECT_GT(max_f0 - min_f0, 0.3);
}

TEST(Spea2Test, DeterministicForSeed) {
  const Zdt3 problem(8);
  Spea2Options o;
  o.population_size = 16;
  o.archive_size = 16;
  o.seed = 9;
  Spea2 a(problem, o), b(problem, o);
  a.run(6);
  b.run(6);
  ASSERT_EQ(a.population().size(), b.population().size());
  for (std::size_t i = 0; i < a.population().size(); ++i) {
    EXPECT_EQ(a.population()[i].x, b.population()[i].x);
  }
}

TEST(Spea2Test, ThreePhaseHooksReproduceInitializeAndStep) {
  // A host that drives the hooks itself (as Pmo2 does) gets exactly the
  // engine's own initialize()/step(); between begin_* and end_* the
  // committed archive and counter stay untouched.
  const Zdt3 problem(8);
  Spea2Options o;
  o.population_size = 16;
  o.archive_size = 12;
  o.seed = 9;
  Spea2 a(problem, o), b(problem, o);
  a.initialize();
  const auto initial = b.begin_initialize();
  EXPECT_EQ(initial.size(), 16u);
  b.end_initialize(core::evaluate_batch(problem, initial, 1));
  for (int g = 0; g < 5; ++g) {
    a.step();
    const std::vector<Individual> before(b.population().begin(), b.population().end());
    const std::size_t evaluations = b.evaluations();
    const auto offspring = b.begin_step();
    EXPECT_EQ(offspring.size(), 16u);
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
  }
}

TEST(Spea2Test, WorksAsIslandEngine) {
  // Heterogeneous archipelago: NSGA-II + SPEA2.
  const Zdt1 problem(8);
  Pmo2Options o;
  o.islands = 2;
  o.migration_interval = 4;
  Pmo2::AlgorithmFactory factory = [](const Problem& p, std::uint64_t seed,
                                      std::size_t island) -> std::unique_ptr<Optimizer> {
    if (island == 0) {
      Spea2Options so;
      so.population_size = 16;
      so.archive_size = 16;
      so.seed = seed;
      return std::make_unique<Spea2>(p, so);
    }
    Nsga2Options no;
    no.population_size = 16;
    no.seed = seed;
    return std::make_unique<Nsga2>(p, no);
  };
  Pmo2 pmo2(problem, o, factory);
  pmo2.run(12);
  EXPECT_EQ(pmo2.island(0).name(), "SPEA2");
  EXPECT_GT(pmo2.archive().size(), 5u);
}

TEST(Spea2Test, HandlesConstrainedProblem) {
  const BinhKorn problem;
  Spea2Options o;
  o.population_size = 30;
  o.archive_size = 30;
  o.seed = 6;
  Spea2 alg(problem, o);
  alg.run(40);
  std::size_t feasible = 0;
  for (const Individual& m : alg.population()) feasible += m.feasible();
  EXPECT_GT(feasible, alg.population().size() / 2);
}

}  // namespace
}  // namespace rmp::moo
