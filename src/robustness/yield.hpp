// Robustness condition rho (eq. 3) and uptake yield Gamma (eq. 4).
//
//   rho(x, x*, f, eps) = 1  iff  |f(x) - f(x*)| <= eps        (eq. 3)
//   Gamma(x, f, eps)   = sum_{tau in T} rho(x, tau, f, eps) / |T|   (eq. 4)
//
// The threshold is expressed as a *percentage of the nominal value* (the
// paper uses eps = 5% of the nominal uptake rate): the absolute threshold
// used in eq. 3 is eps_fraction * |f(x_nominal)|.
//
// Every yield — global, local, and the run's batch of mined and surface
// picks (api::Session::finish) — is scored by one routine, score_ensembles:
// a list of (x, nominal, seed, variable) requests whose ensembles are drawn
// and scored in flat chunks, then reduced one request at a time in index
// order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "robustness/perturbation.hpp"

namespace rmp::robustness {

/// Scalar property whose persistence is being assessed (e.g. CO2 uptake of an
/// enzyme partition).  Must be safe to call concurrently.
using PropertyFn = std::function<double(std::span<const double> x)>;

/// Most Monte-Carlo trials one scoring batch holds: score_ensembles draws
/// and scores whole ensembles in chunks up to this many trials (at least one
/// ensemble per chunk), so live memory stays bounded at paper scale while
/// each chunk still gives every thread many trials.
inline constexpr std::size_t kEnsembleChunkTrials = 1024;

/// EnsembleRequest::variable of a global ensemble: every coordinate is
/// perturbed in every trial.
inline constexpr std::size_t kAllVariables = static_cast<std::size_t>(-1);

struct YieldConfig {
  PerturbationConfig perturbation;
  double epsilon_fraction = 0.05;  ///< eps as a fraction of the nominal value
  std::uint64_t seed = 99;
  /// Threads used to score each chunk of trials (0 = hardware concurrency,
  /// 1 = serial).  Ensembles are drawn up front from their seeded RNGs and
  /// reduced in index order, so gamma is identical for any thread count.
  std::size_t threads = 0;
  /// Epoch barrier hook, invoked from serial sections only: after a yield
  /// evaluates its own nominal, and once after all of a score_ensembles
  /// call's chunks.  Wire it to the evaluated problem's commit_epoch()
  /// (api::Session::finish does) so the kinetic warm-start pool can fold
  /// the nominal solves — and each finished call's trials — into the
  /// snapshot the next batch warm-starts from.  The hook must follow the
  /// moo::Problem::commit_epoch contract (cheap, result-neutral, deferred
  /// inside parallel regions); null = off.
  std::function<void()> epoch_commit;
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

/// One ensemble to score.  Its trials are drawn from num::Rng(seed): a
/// global ensemble (variable == kAllVariables) of
/// perturbation.global_trials points, or a local one of
/// perturbation.local_trials_per_variable points that perturbs only x[variable].
struct EnsembleRequest {
  std::span<const double> x;
  double nominal = 0.0;     ///< f(x), the value every trial is compared with
  std::uint64_t seed = 0;
  std::size_t variable = kAllVariables;
};

/// Reduces one scored ensemble to its YieldResult, in index order: each
/// trial's deviation from the nominal value against the absolute threshold
/// epsilon_fraction * |nominal_value| (eq. 3, boundary inclusive), the
/// robust count, the worst deviation and gamma.
[[nodiscard]] YieldResult summarize_ensemble(double nominal_value,
                                             double epsilon_fraction,
                                             std::span<const double> trial_values);

/// The Monte-Carlo scorer: draws the requests' ensembles in order, in chunks
/// of whole ensembles up to kEnsembleChunkTrials trials, scores each chunk
/// as one flat batch at cfg.threads, reduces each request through
/// summarize_ensemble, and runs cfg.epoch_commit once after the last chunk.
/// No barrier runs between chunks, so every trial reads the snapshot
/// committed before the call.
[[nodiscard]] std::vector<YieldResult> score_ensembles(
    std::span<const EnsembleRequest> requests, const PropertyFn& f,
    const YieldConfig& cfg);

/// Global yield: all variables perturbed simultaneously, against the
/// nominal f(x), which is evaluated and committed first.
[[nodiscard]] YieldResult global_yield(std::span<const double> x, const PropertyFn& f,
                                       const YieldConfig& cfg);

/// Local yield for every variable (the per-enzyme fragility profile):
/// variable v's ensemble is seeded with cfg.seed + v + 1, and all of them
/// share one nominal f(x), evaluated and committed first.
[[nodiscard]] std::vector<YieldResult> local_yields(std::span<const double> x,
                                                    const PropertyFn& f,
                                                    const YieldConfig& cfg);

}  // namespace rmp::robustness
