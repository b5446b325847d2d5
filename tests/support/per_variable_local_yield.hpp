// Reference local yield: one variable's ensemble drawn and scored on its own,
// with an epoch barrier before and after its batch — the per-variable loop
// that robustness::local_yields' one chunked scorer call must match bit for
// bit.  It draws its trials itself (num::Rng(cfg.seed + var + 1), one
// multiplicative uniform draw on x[var] per trial, then the bounds clamp),
// so a change to the library's ensemble drawing fails the comparison too.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "numeric/rng.hpp"
#include "numeric/vec.hpp"
#include "robustness/yield.hpp"

namespace rmp::testing {

inline robustness::YieldResult per_variable_local_yield(
    std::span<const double> x, std::size_t var, double nominal,
    const robustness::PropertyFn& f, const robustness::YieldConfig& cfg) {
  const robustness::PerturbationConfig& p = cfg.perturbation;
  num::Rng rng(cfg.seed + var + 1);
  std::vector<num::Vec> ensemble;
  for (std::size_t t = 0; t < p.local_trials_per_variable; ++t) {
    num::Vec trial(x.begin(), x.end());
    trial[var] *= 1.0 + rng.uniform(-p.max_relative, p.max_relative);
    if (!p.lower.empty() && !p.upper.empty()) num::clamp_inplace(trial, p.lower, p.upper);
    ensemble.push_back(std::move(trial));
  }
  if (cfg.epoch_commit) cfg.epoch_commit();
  std::vector<double> values(ensemble.size());
  core::parallel_for(ensemble.size(), cfg.threads,
                     [&](std::size_t i) { values[i] = f(ensemble[i]); });
  if (cfg.epoch_commit) cfg.epoch_commit();
  return robustness::summarize_ensemble(nominal, cfg.epsilon_fraction, values);
}

}  // namespace rmp::testing
