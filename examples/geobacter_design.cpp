// Geobacter strain design (the paper's Section 3.2 workload): trade off
// biomass growth against electron transfer over the synthetic 608-reaction
// constraint-based model, with flux bounds from FBA and the steady-state
// constraint handled by constrained domination + null-space repair.
//
//   $ ./geobacter_design
#include <cstdio>
#include <iostream>

#include "core/report.hpp"
#include "fba/fba.hpp"
#include "fba/geobacter_problem.hpp"
#include "moo/pmo2.hpp"
#include "pareto/mining.hpp"

int main() {
  using namespace rmp;

  // 1. Build the genome-scale network and look at its FBA corners first.
  auto net = std::make_shared<const fba::MetabolicNetwork>(fba::build_geobacter());
  std::printf("network: %zu reactions / %zu internal metabolites\n",
              net->num_reactions(), net->num_internal_metabolites());

  const auto max_ep = fba::run_fba(*net, fba::geobacter_ids::kElectronProduction);
  const auto max_bp = fba::run_fba(*net, fba::geobacter_ids::kBiomassExport);
  std::printf("FBA corners: max electron production %.2f, max biomass %.4f "
              "mmol/gDW/h\n\n",
              max_ep.objective_value, max_bp.objective_value);

  // 2. Multi-objective search across the whole flux space.
  const fba::GeobacterProblem problem(net);
  moo::Pmo2Options o;
  o.islands = 2;
  o.migration_interval = 8;
  o.seed = 13;
  o.island_threads = 0;  // islands evolve concurrently; results are thread-invariant
  moo::Pmo2 pmo2(problem, o, moo::Pmo2::default_nsga2_factory(30));
  pmo2.run(25);

  const auto front = pareto::Front::from_population(pmo2.archive().solutions());
  std::printf("PMO2: %zu evaluations, %zu trade-off fluxes on the front\n\n",
              pmo2.evaluations(), front.size());

  // 3. Print the trade-off curve (electron vs biomass production).
  core::TextTable table({"EP (mmol/gDW/h)", "BP (mmol/gDW/h)", "||S v||_1"});
  auto sorted = front;
  sorted.sort_by_objective(0);  // by -EP
  const std::size_t stride = std::max<std::size_t>(1, sorted.size() / 12);
  for (std::size_t i = 0; i < sorted.size(); i += stride) {
    const auto [ep, bp] = fba::GeobacterProblem::to_paper_units(sorted[i].f);
    table.add_row({core::TextTable::fixed(ep, 2), core::TextTable::fixed(bp, 4),
                   core::TextTable::num(net->steady_state_violation(sorted[i].x))});
  }
  table.print(std::cout);

  // 4. The knee of the curve — a balanced strain design.
  if (!front.empty()) {
    const std::size_t knee = pareto::closest_to_ideal(front);
    const auto [ep, bp] = fba::GeobacterProblem::to_paper_units(front[knee].f);
    std::printf("\nclosest-to-ideal strain: EP %.2f, BP %.4f\n", ep, bp);
    std::printf("ATP maintenance flux (fixed by the model): %.2f\n",
                front[knee].x[net->reaction_index(fba::geobacter_ids::kAtpMaintenance)
                                  .value()]);
  }
  return 0;
}
