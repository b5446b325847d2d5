// The six environmental conditions of Figure 1: three atmospheric CO2 levels
// (25M years ago, present, and the level predicted for 2100) crossed with two
// maximal triose-phosphate export rates.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "kinetics/c3model.hpp"
#include "kinetics/photosynthesis_problem.hpp"

namespace rmp::kinetics {

struct Scenario {
  /// Canonical name, "<era>-<export>" with era in {past, present, future}
  /// and export in {low, high} (e.g. "present-high") — the key accepted by
  /// scenario_by_label() and by the problem registry's
  /// "photosynthesis?scenario=..." references.
  std::string label;
  double ci_ppm;
  double triose_export_vmax;
};

inline constexpr double kCiPast = 165.0;     ///< 25M years ago
inline constexpr double kCiPresent = 270.0;  ///< present-day stroma level
inline constexpr double kCiFuture = 490.0;   ///< predicted for 2100
inline constexpr double kExportLow = 1.0;    ///< mmol l^-1 s^-1
inline constexpr double kExportHigh = 3.0;

/// All named conditions — currently exactly the six (Ci, export) pairs of
/// Figure 1, past->future, low export first.  Static storage; the span
/// stays valid.
[[nodiscard]] std::span<const Scenario> all_scenarios();

/// Looks a condition up by its canonical label ("past-low" ... "future-high");
/// nullptr when the label names no known scenario.
[[nodiscard]] const Scenario* scenario_by_label(std::string_view label);

/// The condition of Table 1 / Table 2 / Figure 3: Ci = 270, high export.
[[nodiscard]] Scenario table1_scenario();

/// The condition of Figure 2 (candidates B and A2): Ci = 270, low export.
[[nodiscard]] Scenario figure2_scenario();

/// A C3Config with the scenario's knobs applied on top of `base` — the ONE
/// place the Scenario-to-config mapping lives (make_model and the problem
/// registry both go through it).
[[nodiscard]] C3Config scenario_config(const Scenario& s, C3Config base = {});

/// Builds a model configured for a scenario (other constants default).
[[nodiscard]] std::shared_ptr<const C3Model> make_model(const Scenario& s);

/// Builds the full design problem for a scenario.
[[nodiscard]] std::shared_ptr<PhotosynthesisProblem> make_problem(const Scenario& s);

}  // namespace rmp::kinetics
