#include "robustness/surface.hpp"

#include <algorithm>

#include "core/parallel.hpp"
#include "pareto/mining.hpp"

namespace rmp::robustness {

std::vector<SurfacePoint> robustness_surface(const pareto::Front& front,
                                             const PropertyFn& property,
                                             const SurfaceConfig& cfg) {
  std::vector<SurfacePoint> out;
  if (front.empty()) return out;

  const std::vector<std::size_t> picks = pareto::equally_spaced(front, cfg.samples);
  const std::size_t n = picks.size();
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k].front_index = picks[k];
    out[k].objectives = front[picks[k]].f;
  }

  // One flat batch of all picks' nominals, then the trials in chunks of
  // whole ensembles, each chunk one flat batch.  Every batch runs under the
  // snapshot committed before the surface: no barrier runs between them, so
  // a pick's trials read the same snapshot as its nominal.
  std::vector<double> nominals(n);
  if (cfg.yield.nominal_value) {
    nominals.assign(n, *cfg.yield.nominal_value);
  } else {
    core::parallel_for(n, cfg.threads, [&](std::size_t k) {
      nominals[k] = property(front[picks[k]].x);
    });
  }

  const std::size_t trials = cfg.yield.perturbation.global_trials;
  const std::size_t picks_per_chunk =
      std::max<std::size_t>(1, kSurfaceChunkTrials / std::max<std::size_t>(1, trials));
  std::vector<num::Vec> ensembles;
  std::vector<double> values;
  for (std::size_t first = 0; first < n; first += picks_per_chunk) {
    const std::size_t last = std::min(n, first + picks_per_chunk);
    // The chunk's ensembles, each drawn exactly as global_yield draws it
    // (its own RNG seeded with cfg.yield.seed), laid end to end: pick k's
    // trials are [(k - first) * trials, (k - first + 1) * trials).
    ensembles.clear();
    for (std::size_t k = first; k < last; ++k) {
      num::Rng rng(cfg.yield.seed);
      for (num::Vec& p : global_ensemble(front[picks[k]].x, cfg.yield.perturbation, rng)) {
        ensembles.push_back(std::move(p));
      }
    }
    values.assign(ensembles.size(), 0.0);
    core::parallel_for(ensembles.size(), cfg.threads,
                       [&](std::size_t i) { values[i] = property(ensembles[i]); });
    for (std::size_t k = first; k < last; ++k) {
      static_cast<YieldResult&>(out[k]) = summarize_ensemble(
          nominals[k], cfg.yield.epsilon_fraction,
          std::span<const double>(values).subspan((k - first) * trials, trials));
    }
  }
  // Serial epoch barrier after the screen: later stages warm-start from the
  // surface's solved roots.
  if (cfg.yield.epoch_commit) cfg.yield.epoch_commit();
  return out;
}

}  // namespace rmp::robustness
