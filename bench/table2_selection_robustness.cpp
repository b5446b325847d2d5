// Table 2 reproduction — mined trade-off solutions and their uptake yield.
//
// From the Pareto front at the paper's condition (Ci = 270, high export) the
// four selection criteria are applied: closest-to-ideal, max CO2 uptake
// (shadow minimum of -A), min nitrogen (shadow minimum of N), and max yield
// among 50 equally spaced Pareto points.  For each, the CO2 uptake, the
// nitrogen amount and the global uptake yield Gamma (5x10^3 Monte-Carlo
// trials, 10% perturbation, eps = 5%) are printed — the paper's Table 2 rows.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/report.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/pmo2.hpp"
#include "pareto/mining.hpp"
#include "robustness/yield.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;

int main() {
  using namespace rmp;

  const std::size_t generations = env_or("RMP_GENERATIONS", 100);
  const std::size_t population = env_or("RMP_POPULATION", 40);
  const std::size_t trials = env_or("RMP_TRIALS", 1500);

  std::printf("== Table 2: selection criteria and uptake yield ==\n");
  std::printf("condition: Ci = 270, export = 3; Gamma over %zu trials, 10%% "
              "perturbation, eps = 5%%\n\n", trials);

  auto problem = kinetics::make_problem(kinetics::table1_scenario());
  const auto& model = problem->model();

  moo::Pmo2Options po;
  po.islands = 2;
  po.migration_interval = std::max<std::size_t>(1, generations / 4);
  po.seed = 21;
  moo::Pmo2 pmo2(*problem, po, moo::Pmo2::default_nsga2_factory(population));
  pmo2.run(generations);
  auto front = pareto::Front::from_population(pmo2.archive().solutions());
  std::printf("front: %zu Pareto optimal concentrations (%.2f%% of %zu partitions "
              "explored)\n\n",
              front.size(),
              100.0 * static_cast<double>(front.size()) /
                  static_cast<double>(pmo2.evaluations()),
              pmo2.evaluations());
  if (front.empty()) return 1;

  const robustness::PropertyFn uptake = [&model](std::span<const double> x) {
    return model.steady_state(x).co2_uptake;
  };
  robustness::YieldConfig ycfg;
  ycfg.perturbation.global_trials = trials;
  ycfg.epsilon_fraction = 0.05;

  auto yield_of = [&](std::size_t idx) {
    return robustness::global_yield(front[idx].x, uptake, ycfg).gamma;
  };

  // Selection criteria.
  const std::size_t ideal_idx = pareto::closest_to_ideal(front);
  const auto shadows = pareto::shadow_minima(front);  // f0 = -A, f1 = N
  const std::size_t max_uptake_idx = shadows[0];
  const std::size_t min_nitrogen_idx = shadows[1];

  // Max yield among 50 equally spaced Pareto points.  Screening runs at a
  // fifth of the trial budget; the winner is re-measured at full budget.
  robustness::YieldConfig screen_cfg = ycfg;
  screen_cfg.perturbation.global_trials = std::max<std::size_t>(trials / 5, 100);
  const auto picks = pareto::equally_spaced(front, 50);
  std::size_t max_yield_idx = picks.front();
  double best_screen = -1.0;
  std::printf("screening %zu equally spaced points for max yield...\n", picks.size());
  for (std::size_t p : picks) {
    const double gamma =
        robustness::global_yield(front[p].x, uptake, screen_cfg).gamma;
    if (gamma > best_screen) {
      best_screen = gamma;
      max_yield_idx = p;
    }
  }
  const double best_gamma = yield_of(max_yield_idx);

  core::TextTable table({"Selection", "CO2 Uptake", "Nitrogen", "Yield"});
  auto add = [&](const char* label, std::size_t idx, double gamma) {
    const auto [a, n] = kinetics::PhotosynthesisProblem::to_paper_units(front[idx].f);
    table.add_row({label, core::TextTable::fixed(a, 3), core::TextTable::num(n),
                   std::to_string(static_cast<int>(100.0 * gamma + 0.5))});
  };
  add("Closest-to-ideal", ideal_idx, yield_of(ideal_idx));
  add("Max CO2 Uptake", max_uptake_idx, yield_of(max_uptake_idx));
  add("Min Nitrogen", min_nitrogen_idx, yield_of(min_nitrogen_idx));
  add("Max Yield", max_yield_idx, best_gamma);
  table.print(std::cout);

  std::printf(
      "\npaper reports: closest-to-ideal (21.213, 1.270e5, 67);"
      "\n               max CO2 uptake  (39.968, 2.641e5, 65);"
      "\n               min nitrogen    (5.7,    3.845e4, 50);"
      "\n               max yield       (37.116, 2.291e5, 82)\n");
  return 0;
}
