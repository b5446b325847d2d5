// Robustness surface (Figure 3): sample points along a Pareto front, compute
// the global yield Gamma of each, and emit (objective_1, objective_2, Gamma)
// triples — the "Pareto-Surface" relating functional objectives to the
// inherent solution robustness.
#pragma once

#include <cstddef>
#include <vector>

#include "pareto/front.hpp"
#include "robustness/yield.hpp"

namespace rmp::robustness {

/// One screened Pareto point: its whole global-yield result (gamma, the
/// nominal it was measured against, trial counts, worst deviation) plus
/// where it sits on the front.
struct SurfacePoint : YieldResult {
  num::Vec objectives;  ///< objective vector of the Pareto point (as stored)
  std::size_t front_index = 0;
};

struct SurfaceConfig {
  YieldConfig yield;  ///< yield.threads is the surface's width too
  std::size_t samples = 50;  ///< equally-spaced picks along the front
};

/// Evaluates the robustness surface over `samples` equally-spaced Pareto
/// points (plus both extremes, which equal spacing always includes).  The
/// picks' nominals are scored as one flat batch, then their global
/// ensembles in one score_ensembles call, so each point's YieldResult is
/// global_yield(x, property, cfg.yield)'s, with the epoch commits deferred
/// to one after the whole surface.
[[nodiscard]] std::vector<SurfacePoint> robustness_surface(const pareto::Front& front,
                                                           const PropertyFn& property,
                                                           const SurfaceConfig& cfg);

}  // namespace rmp::robustness
