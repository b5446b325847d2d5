// Ablation A2 — archipelago vs panmictic population at equal budget.
//
// For each ZDT problem, compares (a) PMO2 with 2/4 islands against (b) a
// single NSGA-II whose population equals the archipelago total, all at the
// same number of evaluations.  Also prints a hypervolume-vs-generation
// convergence series for ZDT1 (the "improved convergence speed" claim).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/report.hpp"
#include "moo/nsga2.hpp"
#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"
#include "pareto/coverage.hpp"
#include "pareto/hypervolume.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;

namespace {

double front_hypervolume(const rmp::pareto::Front& front) {
  // ZDT objectives live in [0, ~10]; a fixed reference makes runs comparable.
  return rmp::pareto::hypervolume(front, rmp::num::Vec{1.1, 10.0});
}
}  // namespace

int main() {
  using namespace rmp;

  const std::size_t generations = env_or("RMP_GENERATIONS", 80);
  const std::size_t base_pop = env_or("RMP_POPULATION", 16);
  // Archipelago thread tier (0 = auto).  Results are thread-invariant, so
  // this only changes how long the ablation takes.
  const std::size_t island_threads = env_or("RMP_ISLAND_THREADS", 0);

  std::printf("== Ablation A2: islands vs panmictic NSGA-II (equal budget) ==\n\n");

  const moo::Zdt1 z1(12);
  const moo::Zdt2 z2(12);
  const moo::Zdt3 z3(12);
  const moo::Zdt4 z4(10);
  const moo::Zdt6 z6(10);
  const moo::Problem* problems[] = {&z1, &z2, &z3, &z4, &z6};

  core::TextTable table({"Problem", "1xNSGA-II Vp", "PMO2 2-isl Vp", "PMO2 4-isl Vp"});
  for (const moo::Problem* p : problems) {
    std::vector<pareto::Front> fronts;

    // Panmictic baseline: one island of size 4 * base_pop.
    {
      moo::Nsga2Options o;
      o.population_size = 4 * base_pop;
      o.seed = 5;
      moo::Nsga2 alg(*p, o);
      moo::Archive archive;
      alg.initialize();
      archive.offer_all(alg.population());
      for (std::size_t g = 0; g < generations; ++g) {
        alg.step();
        archive.offer_all(alg.population());
      }
      fronts.push_back(pareto::Front::from_population(archive.solutions()));
    }
    // Archipelagos with the same total population.
    for (const std::size_t islands : {2u, 4u}) {
      moo::Pmo2Options po;
      po.islands = islands;
      po.migration_interval = 30;
      po.seed = 5;
      po.island_threads = island_threads;
      moo::Pmo2 pmo2(*p, po,
                     moo::Pmo2::default_nsga2_factory(4 * base_pop / islands));
      pmo2.run(generations);
      fronts.push_back(pareto::Front::from_population(pmo2.archive().solutions()));
    }

    const pareto::Front global = pareto::Front::global_union(fronts);
    const num::Vec ideal = global.relative_minimum();
    const num::Vec nadir = global.relative_maximum();
    table.add_row({p->name(),
                   core::TextTable::fixed(
                       pareto::normalized_hypervolume(fronts[0], ideal, nadir), 3),
                   core::TextTable::fixed(
                       pareto::normalized_hypervolume(fronts[1], ideal, nadir), 3),
                   core::TextTable::fixed(
                       pareto::normalized_hypervolume(fronts[2], ideal, nadir), 3)});
  }
  table.print(std::cout);

  // Convergence series on ZDT1: hypervolume per generation.
  std::printf("\n# ZDT1 convergence: generation, PMO2-2isl HV, single NSGA-II HV\n");
  moo::Pmo2Options po;
  po.islands = 2;
  po.migration_interval = 30;
  po.seed = 9;
  po.island_threads = island_threads;
  moo::Pmo2 pmo2(z1, po, moo::Pmo2::default_nsga2_factory(2 * base_pop));
  pmo2.initialize();

  moo::Nsga2Options no;
  no.population_size = 4 * base_pop;
  no.seed = 9;
  moo::Nsga2 single(z1, no);
  moo::Archive single_archive;
  single.initialize();
  single_archive.offer_all(single.population());

  for (std::size_t g = 1; g <= generations; ++g) {
    pmo2.step();
    single.step();
    single_archive.offer_all(single.population());
    if (g % std::max<std::size_t>(1, generations / 12) == 0) {
      const auto pf = pareto::Front::from_population(pmo2.archive().solutions());
      const auto sf = pareto::Front::from_population(single_archive.solutions());
      std::printf("%zu,%.4f,%.4f\n", g, front_hypervolume(pf), front_hypervolume(sf));
    }
  }
  return 0;
}
