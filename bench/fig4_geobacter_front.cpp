// Figure 4 reproduction — Geobacter sulfurreducens: biomass production versus
// electron production over the synthetic 608-reaction network.
//
// PMO2 optimizes all 608 fluxes (bounds = the FBA bounds, ATP maintenance
// fixed at 0.45) with constrained domination on the steady-state violation
// ||S v||_1.  The bench reports:
//  * the drop in constraint violation from the initial population to the
//    final front (the paper: ~1e6 -> 3.4e4, about 1/26.5);
//  * five trade-off points A-E mined from the displayed window (EP >= 155),
//    matching the paper's annotated points;
//  * the same run without null-space repair (the representation ablation).
#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/report.hpp"
#include "fba/fba.hpp"
#include "fba/geobacter_problem.hpp"
#include <memory>

#include "moo/nsga2.hpp"
#include "moo/pmo2.hpp"
#include "pareto/mining.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;

namespace {

double initial_population_violation(const rmp::fba::MetabolicNetwork& net,
                                    std::size_t samples) {
  // Violation of random in-bounds flux vectors — the paper's "initial guess"
  // scale (order 1e6 there, network-size dependent here).
  rmp::num::Rng rng(99);
  const rmp::num::Vec lo = net.lower_bounds();
  const rmp::num::Vec hi = net.upper_bounds();
  double total = 0.0;
  rmp::num::Vec v(net.num_reactions());
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double u = std::min(hi[i], lo[i] + 60.0);
      v[i] = rng.uniform(lo[i], u);
    }
    total += net.steady_state_violation(v);
  }
  return total / static_cast<double>(samples);
}

struct RunResult {
  rmp::pareto::Front front;
  double final_violation_mean = 0.0;
};

RunResult run(const rmp::fba::GeobacterProblem& problem, std::size_t generations,
              std::size_t population) {
  rmp::moo::Pmo2Options po;
  po.islands = 2;
  po.migration_interval = std::max<std::size_t>(1, generations / 4);
  po.seed = 61;
  // A third of each island starts from the LP seeds (vertices + the
  // epsilon-constraint points along the trade-off face).
  const rmp::moo::Pmo2::AlgorithmFactory factory =
      [population](const rmp::moo::Problem& p, std::uint64_t seed, std::size_t) {
        rmp::moo::Nsga2Options o;
        o.population_size = population;
        o.seed = seed;
        o.seeded_fraction = 0.34;
        return std::make_unique<rmp::moo::Nsga2>(p, o);
      };
  rmp::moo::Pmo2 pmo2(problem, po, factory);
  pmo2.run(generations);

  RunResult r;
  r.front = rmp::pareto::Front::from_population(pmo2.archive().solutions());
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < pmo2.num_islands(); ++i) {
    for (const auto& ind : pmo2.island(i).population()) {
      total += problem.network().steady_state_violation(ind.x);
      ++count;
    }
  }
  r.final_violation_mean = count ? total / static_cast<double>(count) : 0.0;
  return r;
}

}  // namespace

int main() {
  using namespace rmp;

  const std::size_t generations = env_or("RMP_GENERATIONS", 25);
  const std::size_t population = env_or("RMP_POPULATION", 30);

  std::printf("== Figure 4: Geobacter biomass vs electron production ==\n");
  auto net = std::make_shared<const fba::MetabolicNetwork>(fba::build_geobacter());
  std::printf("network: %zu reactions, %zu internal metabolites, ATP maintenance "
              "fixed at 0.45\n\n",
              net->num_reactions(), net->num_internal_metabolites());

  // LP reference corners (what the EA should approach).
  const fba::FbaResult max_ep = fba::run_fba(*net, fba::geobacter_ids::kElectronProduction);
  const fba::FbaResult max_bp = fba::run_fba(*net, fba::geobacter_ids::kBiomassExport);
  std::printf("LP reference: max EP = %.2f (BP %.4f); max BP = %.4f (EP %.2f)\n",
              max_ep.objective_value,
              max_ep.fluxes[net->reaction_index(fba::geobacter_ids::kBiomassExport).value()],
              max_bp.objective_value,
              max_bp.fluxes[net->reaction_index(fba::geobacter_ids::kElectronProduction).value()]);

  const double initial_violation = initial_population_violation(*net, 50);
  std::printf("mean violation of random in-bounds flux vectors: %.3g\n\n",
              initial_violation);

  // --- main run: null-space repair on ---------------------------------------
  fba::GeobacterProblemOptions opts;
  opts.nullspace_repair = true;
  const fba::GeobacterProblem problem(net, opts);
  const RunResult main_run = run(problem, generations, population);

  std::printf("PMO2 (with null-space repair): front %zu points\n",
              main_run.front.size());
  std::printf("final population mean violation: %.3g  (drop ~1/%.1f from random)\n\n",
              main_run.final_violation_mean,
              initial_violation / std::max(main_run.final_violation_mean, 1e-12));

  // Displayed window: the electron-rich segment of the front (the paper's
  // Figure 4 shows the corner EP in [158, 161]; with the LP-seeded search
  // the corner itself is found exactly, so the window is widened to show
  // the biomass/electron trade-off segment leading into it).
  pareto::Front window;
  for (const auto& m : main_run.front.members()) {
    const auto [ep, bp] = fba::GeobacterProblem::to_paper_units(m.f);
    if (ep >= 130.0) window.add(m);
  }
  if (window.empty()) window = main_run.front;
  window.sort_by_objective(0);  // by -EP: descending EP as index grows? no: ascending -EP

  // Collapse near-duplicate corner solutions (the EA piles up microscopic
  // variations at the vertices), then spread five labels A-E across the
  // distinct trade-offs in ascending-EP order.
  std::vector<std::pair<double, double>> distinct;  // (EP, BP)
  for (std::size_t i = window.size(); i-- > 0;) {   // ascending EP
    const auto [ep, bp] = fba::GeobacterProblem::to_paper_units(window[i].f);
    if (distinct.empty() || std::fabs(distinct.back().first - ep) > 0.05) {
      distinct.emplace_back(ep, bp);
    }
  }
  core::TextTable table({"Point", "EP (mmol/gDW/h)", "BP (mmol/gDW/h)"});
  const char* labels[] = {"A", "B", "C", "D", "E"};
  const std::size_t count = std::min<std::size_t>(5, distinct.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t idx =
        i * (distinct.size() - 1) / std::max<std::size_t>(count - 1, 1);
    table.add_row({labels[i], core::TextTable::fixed(distinct[idx].first, 2),
                   core::TextTable::fixed(distinct[idx].second, 4)});
  }
  table.print(std::cout);

  // --- ablation: no repair ----------------------------------------------------
  fba::GeobacterProblemOptions raw_opts;
  raw_opts.nullspace_repair = false;
  const fba::GeobacterProblem raw_problem(net, raw_opts);
  const RunResult raw_run =
      run(raw_problem, std::max<std::size_t>(generations / 2, 5), population);
  std::printf("\nablation (no null-space repair): front %zu points, final mean "
              "violation %.3g (drop ~1/%.1f)\n",
              raw_run.front.size(), raw_run.final_violation_mean,
              initial_violation / std::max(raw_run.final_violation_mean, 1e-12));

  std::printf(
      "\npaper reports: A (158.14, 0.300), B (159.36, 0.298), C (159.38, 0.297),\n"
      "               D (160.70, 0.284), E (160.90, 0.283); violation drop ~1/26.5.\n");
  return 0;
}
