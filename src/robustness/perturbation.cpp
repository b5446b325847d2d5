#include "robustness/perturbation.hpp"

#include <cassert>

namespace rmp::robustness {

namespace {

void clamp_to(const PerturbationConfig& cfg, num::Vec& x) {
  if (cfg.lower.empty() || cfg.upper.empty()) return;
  assert(cfg.lower.size() == x.size() && cfg.upper.size() == x.size());
  num::clamp_inplace(x, cfg.lower, cfg.upper);
}

}  // namespace

std::vector<num::Vec> global_ensemble(std::span<const double> x,
                                      const PerturbationConfig& cfg, num::Rng& rng) {
  std::vector<num::Vec> ensemble;
  ensemble.reserve(cfg.global_trials);
  for (std::size_t t = 0; t < cfg.global_trials; ++t) {
    num::Vec p(x.begin(), x.end());
    for (double& v : p) v *= 1.0 + rng.uniform(-cfg.max_relative, cfg.max_relative);
    clamp_to(cfg, p);
    ensemble.push_back(std::move(p));
  }
  return ensemble;
}

std::vector<num::Vec> local_ensemble(std::span<const double> x, std::size_t var,
                                     const PerturbationConfig& cfg, num::Rng& rng) {
  assert(var < x.size());
  std::vector<num::Vec> ensemble;
  ensemble.reserve(cfg.local_trials_per_variable);
  for (std::size_t t = 0; t < cfg.local_trials_per_variable; ++t) {
    num::Vec p(x.begin(), x.end());
    p[var] *= 1.0 + rng.uniform(-cfg.max_relative, cfg.max_relative);
    clamp_to(cfg, p);
    ensemble.push_back(std::move(p));
  }
  return ensemble;
}

}  // namespace rmp::robustness
