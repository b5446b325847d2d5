// Monte-Carlo perturbation ensembles (Section 2.3).
//
// Mutations are applied multiplicatively: each perturbed coordinate becomes
// x_i * (1 + delta) with delta uniform in [-max_relative, +max_relative]
// (the paper fixes a maximum perturbation of 10% on each enzyme
// concentration).  Two ensemble flavours:
//   * global — every coordinate perturbed in every trial (5x10^3 trials);
//   * local  — one coordinate at a time (200 trials per coordinate).
#pragma once

#include <span>
#include <vector>

#include "numeric/rng.hpp"
#include "numeric/vec.hpp"

namespace rmp::robustness {

struct PerturbationConfig {
  double max_relative = 0.10;      ///< +-10% per coordinate
  std::size_t global_trials = 5000;
  std::size_t local_trials_per_variable = 200;
  /// Perturbed points are clamped into [lower, upper] when bounds are given.
  num::Vec lower;
  num::Vec upper;
};

/// Full global ensemble T (size cfg.global_trials).
[[nodiscard]] std::vector<num::Vec> global_ensemble(std::span<const double> x,
                                                    const PerturbationConfig& cfg,
                                                    num::Rng& rng);

/// Local ensemble for one variable (size cfg.local_trials_per_variable).
[[nodiscard]] std::vector<num::Vec> local_ensemble(std::span<const double> x,
                                                   std::size_t var,
                                                   const PerturbationConfig& cfg,
                                                   num::Rng& rng);

}  // namespace rmp::robustness
