#include "kinetics/scenarios.hpp"

#include <array>

namespace rmp::kinetics {

namespace {
const std::array<Scenario, 6>& scenario_table() {
  static const std::array<Scenario, 6> table{{
      {"past-low", kCiPast, kExportLow},
      {"past-high", kCiPast, kExportHigh},
      {"present-low", kCiPresent, kExportLow},
      {"present-high", kCiPresent, kExportHigh},
      {"future-low", kCiFuture, kExportLow},
      {"future-high", kCiFuture, kExportHigh},
  }};
  return table;
}
}  // namespace

std::span<const Scenario> all_scenarios() { return scenario_table(); }

const Scenario* scenario_by_label(std::string_view label) {
  for (const Scenario& s : scenario_table()) {
    if (s.label == label) return &s;
  }
  return nullptr;
}

Scenario table1_scenario() { return *scenario_by_label("present-high"); }

Scenario figure2_scenario() { return *scenario_by_label("present-low"); }

C3Config scenario_config(const Scenario& s, C3Config base) {
  base.ci_ppm = s.ci_ppm;
  base.triose_export_vmax = s.triose_export_vmax;
  return base;
}

std::shared_ptr<const C3Model> make_model(const Scenario& s) {
  return std::make_shared<const C3Model>(scenario_config(s));
}

std::shared_ptr<PhotosynthesisProblem> make_problem(const Scenario& s) {
  return std::make_shared<PhotosynthesisProblem>(make_model(s));
}

}  // namespace rmp::kinetics
