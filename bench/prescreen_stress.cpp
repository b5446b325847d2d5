// Tangent-model prescreen stress benchmark.
//
// A composed workload the prescreen was built for.  A migration-heavy PMO2
// archipelago optimizes a near-threshold photosynthesis problem at FULL
// fidelity (prescreen off, so the archive is bit-identical across legs by
// construction), then a perturbation-stress study runs global-yield
// ensembles at escalating amplitudes (the stress ladder) around the
// lowest-uptake Pareto designs — the designs whose feasibility is actually
// at risk under expression noise, i.e. the natural robustness question for
// a constrained design.  Two legs:
//   off    — prescreen off: every novel trial is a full ladder solve, and
//            exact repeats are answered by the warm pool's exact-key hit;
//   screen — the tangent-model prescreen enabled for the stress stage:
//            trials whose first-order uptake prediction sits confidently
//            below min_uptake skip the kinetic solve and report infeasible.
//            Skips never touch the archive (it is already frozen), so the
//            Pareto front and its quality metrics are unchanged BY
//            CONSTRUCTION; the only observable is the gamma estimate, whose
//            drift is measured and reported per ensemble.
// The headline metric is the reduction in full kinetic solves
// (off.full_evaluations / screen.full_evaluations) across the whole
// workload; RMP_PRESCREEN_MIN_REDUCTION (default 1.5) gates it.
//
// Environment knobs: RMP_PRESCREEN_GENERATIONS (10), RMP_PRESCREEN_TRIALS
// (250 per ensemble), RMP_PRESCREEN_ISLANDS (8), RMP_PRESCREEN_POPULATION
// (12), RMP_PRESCREEN_CENTERS (6 stress-study designs),
// RMP_PRESCREEN_THREADS (0 = hardware), RMP_PRESCREEN_MIN_REDUCTION (1.5;
// 0 = report only), RMP_PRESCREEN_STRESS (0.3,0.4,0.5),
// RMP_PRESCREEN_MIN_UPTAKE (12), RMP_PRESCREEN_MARGIN (0.4),
// RMP_PRESCREEN_RADIUS2 (16).
// Usage: prescreen_stress [output.json]   (default BENCH_prescreen.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/json.hpp"
#include "core/report.hpp"
#include "moo/archive.hpp"
#include "pareto/front.hpp"
#include "robustness/yield.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;
using rmp::bench::env_or_double;

namespace {

namespace api = rmp::api;
namespace moo = rmp::moo;
namespace num = rmp::num;
namespace pareto = rmp::pareto;
namespace robustness = rmp::robustness;
namespace core = rmp::core;

struct Knobs {
  std::size_t generations = env_or("RMP_PRESCREEN_GENERATIONS", 10);
  std::size_t trials = env_or("RMP_PRESCREEN_TRIALS", 250);
  std::size_t islands = env_or("RMP_PRESCREEN_ISLANDS", 8);
  std::size_t population = env_or("RMP_PRESCREEN_POPULATION", 12);
  std::size_t centers = env_or("RMP_PRESCREEN_CENTERS", 6);
  std::size_t threads = env_or("RMP_PRESCREEN_THREADS", 0);
  double min_reduction = env_or_double("RMP_PRESCREEN_MIN_REDUCTION", 1.5);
  std::uint64_t seed = 7;
  double min_uptake = env_or_double("RMP_PRESCREEN_MIN_UPTAKE", 12.0);
  double margin = env_or_double("RMP_PRESCREEN_MARGIN", 0.4);
  double radius2 = env_or_double("RMP_PRESCREEN_RADIUS2", 16.0);
  // The stress habitat: past-low keeps the near-threshold band of the front
  // out of the model's oscillatory shell, so the warm pool actually holds
  // anchors where the stress trials land (oscillatory roots are never
  // pooled and can never be predicted).  min_uptake = 12 pins the lower
  // edge of the front to the feasibility boundary.
  std::string problem = [this] {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "photosynthesis?scenario=past-low&pool=8192&min_uptake=%g"
                  "&prescreen_margin=%g&prescreen_radius2=%g",
                  min_uptake, margin, radius2);
    return std::string(buf);
  }();
  std::string optimizer_fmt = "pmo2?islands=%zu&population=%zu"
                              "&migration_interval=1&migrants=4";
  /// Comma-separated override, e.g. RMP_PRESCREEN_STRESS=0.25,0.35,0.45.
  std::vector<double> stress_levels = [] {
    std::vector<double> levels;
    if (const char* env = std::getenv("RMP_PRESCREEN_STRESS")) {
      for (const char* c = env; *c != 0;) {
        char* end = nullptr;
        levels.push_back(std::strtod(c, &end));
        c = (end != nullptr && *end == ',') ? end + 1 : end;
        if (end == nullptr || *end == 0) break;
      }
    }
    if (levels.empty()) levels = {0.3, 0.4, 0.5};
    return levels;
  }();

  [[nodiscard]] std::string optimizer() const {
    char buf[128];
    std::snprintf(buf, sizeof buf, optimizer_fmt.c_str(), islands, population);
    return buf;
  }
};

// ---------------------------------------------------------------------------
// The stress-study workload, once per leg.
// ---------------------------------------------------------------------------

struct GammaPoint {
  double uptake = 0.0;        // nominal uptake of the stress-study design
  double stress = 0.0;        // perturbation amplitude of this ensemble
  double gamma = 0.0;
};

struct Leg {
  std::string name;
  std::uint64_t fingerprint = 0;
  pareto::Front front;
  moo::EvalStats stats;
  std::vector<GammaPoint> gammas;
  double seconds = 0.0;
};

Leg run_leg(const Knobs& k, const std::string& name, bool screen) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  Leg leg;
  leg.name = name;

  const std::shared_ptr<moo::Problem> problem =
      api::ProblemRegistry::global().make(k.problem);

  // Optimization at full fidelity (prescreen off in every leg): the archive
  // — and therefore the front and all quality metrics — is identical across
  // legs by construction, which main() asserts via the fingerprint.
  const auto optimizer = api::OptimizerRegistry::global().make(
      k.optimizer(), *problem, api::OptimizerContext{k.seed, k.threads});
  optimizer->initialize();
  for (std::size_t g = 0; g < k.generations; ++g) optimizer->step();
  moo::Archive archive;
  archive.offer_all(optimizer->population());
  leg.fingerprint = archive.fingerprint();
  leg.front = pareto::Front::from_population(archive.solutions());

  // Stress-study designs: the lowest-uptake (highest f0) Pareto members —
  // the designs whose feasibility is at risk under expression noise.
  std::vector<moo::Individual> centers(leg.front.members().begin(),
                                       leg.front.members().end());
  std::sort(centers.begin(), centers.end(),
            [](const moo::Individual& a, const moo::Individual& b) {
              return a.f[0] > b.f[0];
            });
  if (centers.size() > k.centers) centers.resize(k.centers);

  if (screen) problem->set_prescreen(true);

  const robustness::PropertyFn property = [problem](std::span<const double> x) {
    num::Vec f(2);
    num::Vec xv(x.begin(), x.end());
    (void)problem->evaluate(xv, f);
    return f[0];
  };
  for (const double stress : k.stress_levels) {
    for (const moo::Individual& c : centers) {
      robustness::YieldConfig ycfg;
      ycfg.perturbation.global_trials = k.trials;
      ycfg.perturbation.max_relative = stress;
      ycfg.threads = k.threads;
      ycfg.epoch_commit = [problem] { problem->commit_epoch(); };
      // The nominal is c.f[0], bitwise, from the archive.
      const robustness::EnsembleRequest request{c.x, c.f[0], ycfg.seed,
                                                robustness::kAllVariables};
      const robustness::YieldResult y =
          robustness::score_ensembles({&request, 1}, property, ycfg).front();
      leg.gammas.push_back({-c.f[0], stress, y.gamma});
    }
  }
  leg.stats = problem->eval_stats();
  leg.seconds = std::chrono::duration<double>(clock::now() - start).count();
  return leg;
}

core::Json stats_json(const moo::EvalStats& s) {
  return core::Json::object()
      .set("evaluations", s.evaluations)
      .set("full_evaluations", s.full_evaluations)
      .set("pool_hits", s.pool_hits)
      .set("prescreen_skips", s.prescreen_skips);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_prescreen.json";
  const Knobs k;

  std::printf("== Prescreen stress study: %zu gens x %zu islands, "
              "%zu designs x %zu stress levels x %zu trials ==\n",
              k.generations, k.islands, k.centers, k.stress_levels.size(), k.trials);
  const Leg off = run_leg(k, "off", /*screen=*/false);
  const Leg screen = run_leg(k, "screen", /*screen=*/true);

  core::TextTable table({"leg", "fingerprint", "front", "evals", "full", "pool",
                         "skips", "seconds"});
  for (const Leg* leg : {&off, &screen}) {
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(leg->fingerprint));
    table.add_row({leg->name, fp, std::to_string(leg->front.size()),
               std::to_string(leg->stats.evaluations),
               std::to_string(leg->stats.full_evaluations),
               std::to_string(leg->stats.pool_hits),
               std::to_string(leg->stats.prescreen_skips),
               core::TextTable::fixed(leg->seconds, 2)});
  }
  table.print(std::cout);

  const bool fronts_identical = off.fingerprint == screen.fingerprint;
  const double reduction =
      static_cast<double>(off.stats.full_evaluations) /
      static_cast<double>(std::max<std::size_t>(screen.stats.full_evaluations, 1));
  double max_dgamma = 0.0;
  for (std::size_t i = 0; i < off.gammas.size(); ++i) {
    max_dgamma = std::max(max_dgamma,
                          std::fabs(off.gammas[i].gamma - screen.gammas[i].gamma));
  }
  std::printf("archive fingerprints across legs: %s\n",
              fronts_identical ? "IDENTICAL (front quality unchanged by construction)"
                               : "DIVERGED");
  std::printf("full kinetic solve reduction (off/screen): %.2fx\n", reduction);
  std::printf("max gamma drift across %zu ensembles: %.4f\n",
              off.gammas.size(), max_dgamma);

  // ---- Artifact -----------------------------------------------------------
  core::Json legs = core::Json::array();
  for (const Leg* leg : {&off, &screen}) {
    core::Json gammas = core::Json::array();
    for (const GammaPoint& g : leg->gammas) {
      gammas.push_back(core::Json::object()
                           .set("uptake", g.uptake)
                           .set("stress", g.stress)
                           .set("gamma", g.gamma));
    }
    legs.push_back(core::Json::object()
                       .set("name", leg->name)
                       .set("fingerprint", core::Json::hex(leg->fingerprint))
                       .set("front_size", leg->front.size())
                       .set("stats", stats_json(leg->stats))
                       .set("gammas", std::move(gammas))
                       .set("seconds", leg->seconds));
  }
  const core::Json doc =
      core::Json::object()
          .set("benchmark", "prescreen_stress")
          .set("config",
               core::Json::object()
                   .set("problem", k.problem)
                   .set("optimizer", k.optimizer())
                   .set("generations", k.generations)
                   .set("trials", k.trials)
                   .set("centers", k.centers)
                   .set("stress_levels",
                        [&] {
                          core::Json a = core::Json::array();
                          for (double s : k.stress_levels) a.push_back(s);
                          return a;
                        }())
                   .set("threads", k.threads)
                   .set("min_reduction", k.min_reduction))
          .set("legs", std::move(legs))
          .set("fronts_identical", fronts_identical)
          .set("full_solve_reduction", reduction)
          .set("max_gamma_drift", max_dgamma);
  if (!core::write_json_file(out_path, doc)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!fronts_identical) {
    std::fprintf(stderr, "FAIL: leg archives diverged\n");
    return 1;
  }
  if (k.min_reduction > 0.0 && reduction < k.min_reduction) {
    std::fprintf(stderr, "FAIL: full-solve reduction %.2fx below floor %.2fx\n",
                 reduction, k.min_reduction);
    return 1;
  }
  return 0;
}
