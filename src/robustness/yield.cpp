#include "robustness/yield.hpp"

#include <algorithm>
#include <cmath>

#include "core/parallel.hpp"

namespace rmp::robustness {

bool robustness_condition(double nominal_value, double perturbed_value,
                          double absolute_threshold) {
  return std::fabs(nominal_value - perturbed_value) <= absolute_threshold;
}

YieldResult summarize_ensemble(double nominal_value, double epsilon_fraction,
                               std::span<const double> trial_values) {
  YieldResult r;
  r.nominal_value = nominal_value;
  r.absolute_threshold = epsilon_fraction * std::fabs(nominal_value);
  r.total_trials = trial_values.size();
  for (const double v : trial_values) {
    const double dev = std::fabs(r.nominal_value - v);
    r.max_deviation = std::max(r.max_deviation, dev);
    if (dev <= r.absolute_threshold) ++r.robust_trials;
  }
  if (r.total_trials > 0) {
    r.gamma = static_cast<double>(r.robust_trials) / static_cast<double>(r.total_trials);
  }
  return r;
}

namespace {

YieldResult run_ensemble(std::span<const double> x, const PropertyFn& f,
                         const YieldConfig& cfg,
                         const std::vector<num::Vec>& ensemble) {
  const double nominal = cfg.nominal_value ? *cfg.nominal_value : f(x);
  // Epoch barrier before the batch: the nominal solve (and anything staged
  // by earlier stages) becomes warm-start snapshot for every trial below.
  if (cfg.epoch_commit) cfg.epoch_commit();
  // Score the trials in parallel (PropertyFn is concurrency-safe by
  // contract), then reduce serially in index order for bit-exact results.
  std::vector<double> values(ensemble.size());
  core::parallel_for(ensemble.size(), cfg.threads,
                     [&](std::size_t i) { values[i] = f(ensemble[i]); });
  // ... and after it, so the next ensemble starts from this one's roots.
  if (cfg.epoch_commit) cfg.epoch_commit();
  return summarize_ensemble(nominal, cfg.epsilon_fraction, values);
}

}  // namespace

YieldResult global_yield(std::span<const double> x, const PropertyFn& f,
                         const YieldConfig& cfg) {
  num::Rng rng(cfg.seed);
  const auto ensemble = global_ensemble(x, cfg.perturbation, rng);
  return run_ensemble(x, f, cfg, ensemble);
}

YieldResult local_yield(std::span<const double> x, std::size_t var, const PropertyFn& f,
                        const YieldConfig& cfg) {
  num::Rng rng(cfg.seed + var + 1);
  const auto ensemble = local_ensemble(x, var, cfg.perturbation, rng);
  return run_ensemble(x, f, cfg, ensemble);
}

std::vector<YieldResult> local_yields(std::span<const double> x, const PropertyFn& f,
                                      const YieldConfig& cfg) {
  // The nominal value is shared by every per-variable ensemble: evaluate it
  // once up front (committing it into any epoch-accelerator snapshots)
  // instead of once per variable.
  YieldConfig shared = cfg;
  if (!shared.nominal_value) {
    shared.nominal_value = f(x);
    if (shared.epoch_commit) shared.epoch_commit();
  }
  // Parallelize across variables (each has its own seeded ensemble); the
  // per-variable ensembles then run serially thanks to the nested-batch
  // guard in core::parallel_for.
  std::vector<YieldResult> out(x.size());
  core::parallel_for(x.size(), shared.threads, [&](std::size_t var) {
    out[var] = local_yield(x, var, f, shared);
  });
  return out;
}

}  // namespace rmp::robustness
