// Photosynthesis re-engineering (the paper's Section 3.1 workload): search
// the 23-enzyme activity space of the C3 carbon-metabolism model for
// partitions that fix more CO2 with less protein nitrogen, then inspect the
// best candidates against the natural leaf.
//
//   $ ./photosynthesis_design                # present-low (Figure 2)
//   $ ./photosynthesis_design future-high    # year-2100 CO2, high export
//
// The argument is one of the six scenario labels of Figure 1:
// {past,present,future}-{low,high}.
#include <cstdio>
#include <iostream>
#include <string>

#include "api/run.hpp"
#include "kinetics/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace rmp;

  const std::string label = argc >= 2 ? argv[1] : "present-low";
  const kinetics::Scenario* scenario = kinetics::scenario_by_label(label);
  if (argc > 2 || scenario == nullptr) {
    std::fprintf(stderr, "usage: photosynthesis_design [scenario]\nscenarios:");
    for (const auto& s : kinetics::all_scenarios()) {
      std::fprintf(stderr, " %s", s.label.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  std::printf("scenario %s: Ci = %.0f umol/mol, max triose-P export = %.0f mmol/l/s\n",
              scenario->label.c_str(), scenario->ci_ppm,
              scenario->triose_export_vmax);

  const auto model = kinetics::make_model(*scenario);
  const double natural_a = model->natural_state().co2_uptake;
  const double natural_n = model->nitrogen(num::Vec(kinetics::kNumEnzymes, 1.0));
  std::printf("natural leaf: CO2 uptake %.2f umol m^-2 s^-1, nitrogen %.0f mg/l\n\n",
              natural_a, natural_n);

  // The full design pipeline: PMO2 -> mining -> robustness screening.
  // threads = 0 runs the islands concurrently; results are thread-invariant.
  api::RunSpec spec;
  spec.problem = "photosynthesis?scenario=" + scenario->label;
  spec.optimizer = "pmo2?islands=2&migration_interval=20";
  spec.generations = 80;
  spec.seed = 7;
  spec.threads = 0;
  spec.robustness.enabled = true;
  spec.robustness.trials = 400;
  spec.robustness.surface_samples = 12;
  const api::RunResult result = api::run(spec);
  api::print_summary(result, std::cout);

  // The candidate the paper calls "B": natural uptake at minimal nitrogen.
  double best_n = 1e300;
  const pareto::Individual* candidate_b = nullptr;
  for (const auto& m : result.front.members()) {
    const auto [a, n] = kinetics::PhotosynthesisProblem::to_paper_units(m.f);
    if (a >= 0.98 * natural_a && n < best_n) {
      best_n = n;
      candidate_b = &m;
    }
  }
  if (candidate_b != nullptr) {
    const auto [a, n] = kinetics::PhotosynthesisProblem::to_paper_units(candidate_b->f);
    std::printf("\ncandidate B: uptake %.2f (%.0f%% of natural) at nitrogen %.0f "
                "(%.0f%% of natural)\n",
                a, 100.0 * a / natural_a, n, 100.0 * n / natural_n);
    std::printf("enzyme multipliers (vs natural):\n");
    for (std::size_t e = 0; e < kinetics::kNumEnzymes; ++e) {
      std::printf("  %-22s %5.2fx\n", std::string(kinetics::enzyme_name(e)).c_str(),
                  candidate_b->x[e]);
    }
  } else {
    std::printf("\nno natural-uptake candidate found; raise the budget.\n");
  }
  return 0;
}
