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

/// Most Monte-Carlo trials one flat surface batch holds: the picks'
/// ensembles are drawn and scored in chunks of whole ensembles up to this
/// many trials (at least one ensemble per chunk), so live memory stays
/// bounded at paper scale while each chunk still gives every thread many
/// trials.
inline constexpr std::size_t kSurfaceChunkTrials = 1024;

/// One screened Pareto point: its whole global-yield result (gamma, the
/// nominal it was measured against, trial counts, worst deviation) plus
/// where it sits on the front.
struct SurfacePoint : YieldResult {
  num::Vec objectives;  ///< objective vector of the Pareto point (as stored)
  std::size_t front_index = 0;
};

struct SurfaceConfig {
  YieldConfig yield;
  std::size_t samples = 50;  ///< equally-spaced picks along the front
  /// Threads used to screen the sampled Pareto points (0 = hardware
  /// concurrency, 1 = serial): the surface scores all picks' nominals as
  /// one flat batch, then the picks' Monte-Carlo trials in flat batches of
  /// up to kSurfaceChunkTrials, so `yield.threads` is not used here.  Gamma
  /// is identical for any value.
  std::size_t threads = 0;
};

/// Evaluates the robustness surface over `samples` equally-spaced Pareto
/// points (plus both extremes, which equal spacing always includes).  Each
/// point's YieldResult is global_yield(x, property, cfg.yield)'s, with the
/// epoch commits deferred to one after the whole surface; at most one chunk
/// of ensembles (see kSurfaceChunkTrials) is held in memory at a time.
[[nodiscard]] std::vector<SurfacePoint> robustness_surface(const pareto::Front& front,
                                                           const PropertyFn& property,
                                                           const SurfaceConfig& cfg);

}  // namespace rmp::robustness
