// Robustness condition rho (eq. 3) and uptake yield Gamma (eq. 4).
//
//   rho(x, x*, f, eps) = 1  iff  |f(x) - f(x*)| <= eps        (eq. 3)
//   Gamma(x, f, eps)   = sum_{tau in T} rho(x, tau, f, eps) / |T|   (eq. 4)
//
// The threshold is expressed as a *percentage of the nominal value* (the
// paper uses eps = 5% of the nominal uptake rate): the absolute threshold
// used in eq. 3 is eps_fraction * |f(x_nominal)|.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "robustness/perturbation.hpp"

namespace rmp::robustness {

/// Scalar property whose persistence is being assessed (e.g. CO2 uptake of an
/// enzyme partition).  Must be safe to call concurrently.
using PropertyFn = std::function<double(std::span<const double> x)>;

/// Robustness condition rho: 1 when the perturbed property stays within the
/// absolute threshold of the nominal property.
[[nodiscard]] bool robustness_condition(double nominal_value, double perturbed_value,
                                        double absolute_threshold);

struct YieldConfig {
  PerturbationConfig perturbation;
  double epsilon_fraction = 0.05;  ///< eps as a fraction of the nominal value
  std::uint64_t seed = 99;
  /// Threads used to score the Monte-Carlo ensemble (0 = hardware
  /// concurrency, 1 = serial).  The ensemble is drawn up front from the
  /// seeded RNG and reduced in index order, so gamma is identical for any
  /// thread count.
  std::size_t threads = 0;
  /// Epoch barrier hook, invoked from the serial sections around each
  /// ensemble's parallel scoring pass.  Wire it to the evaluated problem's
  /// commit_epoch() (api::Session::finish does) so the kinetic
  /// warm-start pool can fold the nominal solve — and each finished
  /// ensemble — into the snapshot the next batch of trials warm-starts
  /// from.  The hook must follow the moo::Problem::commit_epoch contract
  /// (cheap, result-neutral, deferred inside parallel regions); null = off.
  std::function<void()> epoch_commit;
  /// Precomputed nominal property f(x).  When set, ensembles reuse it
  /// instead of re-evaluating the nominal point — local_yields() sets it
  /// once for all per-variable ensembles (previously every variable re-ran
  /// the full nominal evaluation), and callers that already scored x (the
  /// mining stage did) can pass their value through.  Leave unset to have
  /// each ensemble evaluate the nominal itself.
  std::optional<double> nominal_value;
};

struct YieldResult {
  double gamma = 0.0;            ///< fraction of robust trials, in [0, 1]
  double nominal_value = 0.0;    ///< f(x)
  double absolute_threshold = 0.0;
  std::size_t robust_trials = 0;
  std::size_t total_trials = 0;
  /// Worst absolute deviation observed across the ensemble.
  double max_deviation = 0.0;
};

/// Reduces one scored ensemble to its YieldResult, in index order: each
/// trial's deviation from the nominal value against the absolute threshold
/// epsilon_fraction * |nominal_value|, the robust count, the worst
/// deviation and gamma.  Every yield path (global, local, the robustness
/// surface) reduces through it.
[[nodiscard]] YieldResult summarize_ensemble(double nominal_value,
                                             double epsilon_fraction,
                                             std::span<const double> trial_values);

/// Global yield: all variables perturbed simultaneously.
[[nodiscard]] YieldResult global_yield(std::span<const double> x, const PropertyFn& f,
                                       const YieldConfig& cfg);

/// Local yield of one variable.
[[nodiscard]] YieldResult local_yield(std::span<const double> x, std::size_t var,
                                      const PropertyFn& f, const YieldConfig& cfg);

/// Local yield for every variable (the per-enzyme fragility profile).
[[nodiscard]] std::vector<YieldResult> local_yields(std::span<const double> x,
                                                    const PropertyFn& f,
                                                    const YieldConfig& cfg);

}  // namespace rmp::robustness
