#include "robustness/surface.hpp"

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
  // One flat batch of all picks' nominals, then one scorer call for their
  // trials.  No barrier runs between them, so a pick's trials read the same
  // snapshot as its nominal.
  std::vector<EnsembleRequest> requests(n);
  core::parallel_for(n, cfg.yield.threads, [&](std::size_t k) {
    const std::span<const double> x = front[picks[k]].x;
    requests[k] = {x, property(x), cfg.yield.seed, kAllVariables};
  });
  const std::vector<YieldResult> yields = score_ensembles(requests, property, cfg.yield);

  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    static_cast<YieldResult&>(out[k]) = yields[k];
    out[k].front_index = picks[k];
    out[k].objectives = front[picks[k]].f;
  }
  return out;
}

}  // namespace rmp::robustness
