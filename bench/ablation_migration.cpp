// Ablation A1 — migration design choices of the PMO2 archipelago.
//
// Sweeps topology (all-to-all / ring / star / random), migration interval and
// migration probability on ZDT4 (strongly multi-modal, where island diversity
// matters most) and reports the normalized hypervolume of the final archive
// against the union of all runs.  The paper fixes broadcast / 200 gens / 0.5
// and notes topology choice changes the result — this bench quantifies that.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/report.hpp"
#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"
#include "pareto/coverage.hpp"
#include "pareto/hypervolume.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;

int main() {
  using namespace rmp;

  const std::size_t generations = env_or("RMP_GENERATIONS", 80);
  const std::size_t population = env_or("RMP_POPULATION", 20);
  // Archipelago thread tier (0 = auto); thread-invariant results.
  const std::size_t island_threads = env_or("RMP_ISLAND_THREADS", 0);
  const moo::Zdt4 problem(10);

  struct Config {
    std::string label;
    moo::TopologyKind topology;
    std::size_t interval;
    double probability;
  };
  std::vector<Config> configs;
  for (const auto topology :
       {moo::TopologyKind::kAllToAll, moo::TopologyKind::kRing, moo::TopologyKind::kStar,
        moo::TopologyKind::kRandom}) {
    configs.push_back({"topology=" + moo::to_string(topology) + ",interval=50,p=0.5",
                       topology, 50, 0.5});
  }
  for (const std::size_t interval : {10u, 50u, 150u}) {
    configs.push_back({"topology=all-to-all,interval=" + std::to_string(interval) +
                           ",p=0.5",
                       moo::TopologyKind::kAllToAll, interval, 0.5});
  }
  for (const double p : {0.0, 0.5, 1.0}) {
    configs.push_back({"topology=all-to-all,interval=50,p=" + core::TextTable::num(p),
                       moo::TopologyKind::kAllToAll, 50, p});
  }

  std::printf("== Ablation A1: migration topology / interval / probability ==\n");
  std::printf("problem: ZDT4, 4 islands x %zu pop, %zu generations, 3 seeds\n\n",
              population, generations);

  std::vector<pareto::Front> fronts;
  for (const Config& cfg : configs) {
    // Aggregate over seeds to damp run-to-run noise.
    moo::Archive agg;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      moo::Pmo2Options po;
      po.islands = 4;
      po.migration_interval = cfg.interval;
      po.migration_probability = cfg.probability;
      po.topology = cfg.topology;
      po.seed = seed;
      po.island_threads = island_threads;
      moo::Pmo2 pmo2(problem, po, moo::Pmo2::default_nsga2_factory(population));
      pmo2.run(generations);
      agg.offer_all(pmo2.archive().solutions());
    }
    fronts.push_back(pareto::Front::from_population(agg.solutions()));
  }

  const pareto::Front global = pareto::Front::global_union(fronts);
  const num::Vec ideal = global.relative_minimum();
  const num::Vec nadir = global.relative_maximum();

  core::TextTable table({"Configuration", "Points", "Rp", "Gp", "Vp"});
  const auto cov = pareto::coverage_against_union(fronts);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    table.add_row({configs[i].label, std::to_string(fronts[i].size()),
                   core::TextTable::fixed(cov[i].relative, 3),
                   core::TextTable::fixed(cov[i].global, 3),
                   core::TextTable::fixed(
                       pareto::normalized_hypervolume(fronts[i], ideal, nadir), 3)});
  }
  table.print(std::cout);
  return 0;
}
