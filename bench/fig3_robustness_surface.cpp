// Figure 3 reproduction — the photosynthetic Pareto-Surface: robustness
// (uptake yield Gamma, %) as a function of CO2 uptake and nitrogen along the
// Pareto front.  50 equally spaced Pareto points are screened with the
// Monte-Carlo ensemble of Section 2.3; rows print as
// "nitrogen,uptake,robustness%" (gnuplot splot-ready).
#include <cstdio>
#include <cstdlib>

#include "kinetics/scenarios.hpp"
#include "moo/pmo2.hpp"
#include "robustness/surface.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;

int main() {
  using namespace rmp;

  const std::size_t generations = env_or("RMP_GENERATIONS", 80);
  const std::size_t population = env_or("RMP_POPULATION", 36);
  // The paper uses 5x10^3 trials per point; the default here is reduced so
  // the 50-point sweep stays in benchmark territory (raise RMP_TRIALS to
  // reproduce the full ensemble).
  const std::size_t trials = env_or("RMP_TRIALS", 400);

  std::printf("== Figure 3: robustness vs CO2 uptake vs nitrogen ==\n");
  std::printf("condition: Ci = 270, export = 3; 50 points x %zu trials\n\n", trials);

  auto problem = kinetics::make_problem(kinetics::table1_scenario());
  const auto& model = problem->model();

  moo::Pmo2Options po;
  po.islands = 2;
  po.migration_interval = std::max<std::size_t>(1, generations / 4);
  po.seed = 51;
  moo::Pmo2 pmo2(*problem, po, moo::Pmo2::default_nsga2_factory(population));
  pmo2.run(generations);
  const auto front = pareto::Front::from_population(pmo2.archive().solutions());
  std::printf("front: %zu points\n", front.size());
  if (front.empty()) return 1;

  const robustness::PropertyFn uptake = [&model](std::span<const double> x) {
    return model.steady_state(x).co2_uptake;
  };

  robustness::SurfaceConfig cfg;
  cfg.samples = 50;
  cfg.yield.perturbation.global_trials = trials;
  cfg.yield.perturbation.max_relative = 0.10;
  cfg.yield.epsilon_fraction = 0.05;

  const auto surface = robustness::robustness_surface(front, uptake, cfg);

  std::printf("# nitrogen(mg/l),uptake(umol m^-2 s^-1),robustness(%%)\n");
  double min_gamma = 1.0, max_gamma = 0.0;
  for (const auto& p : surface) {
    const double a = -p.objectives[0];
    const double n = p.objectives[1];
    std::printf("%.0f,%.3f,%.1f\n", n, a, 100.0 * p.gamma);
    min_gamma = std::min(min_gamma, p.gamma);
    max_gamma = std::max(max_gamma, p.gamma);
  }
  std::printf("\nsurface range: Gamma in [%.1f%%, %.1f%%] over %zu screened points\n",
              100.0 * min_gamma, 100.0 * max_gamma, surface.size());
  std::printf(
      "paper shape: a rugged surface; Pareto relative minima (front extremes)\n"
      "are the unstable points, while slightly sub-optimal interior solutions\n"
      "are significantly more reliable.\n");
  return 0;
}
