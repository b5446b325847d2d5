// RobustDesigner — the paper's end-to-end design methodology as one pipeline:
//   1. approximate the Pareto front with PMO2 (Section 2.1),
//   2. mine trade-off candidates: closest-to-ideal, shadow minima,
//      equally-spaced screening points (Section 2.2),
//   3. estimate the robustness (uptake yield Gamma) of each mined candidate
//      by Monte-Carlo perturbation (Section 2.3),
//   4. select the max-yield candidate among the screened points.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "moo/pmo2.hpp"
#include "pareto/front.hpp"
#include "pareto/mining.hpp"
#include "robustness/surface.hpp"

namespace rmp::core {

struct DesignerConfig {
  /// PMO2 configuration.  Threading: `optimizer.island_threads` sets the
  /// width of every archipelago epoch phase (including the flat batch that
  /// scores all islands' offspring), and `surface.threads` /
  /// `surface.yield.threads` the robustness stages — all default to 0
  /// (hardware concurrency) and none of them changes results.  The
  /// thread-count tuning table lives in docs/ARCHITECTURE.md.
  moo::Pmo2Options optimizer;
  pareto::DistanceMetric mining_metric = pareto::DistanceMetric::kEuclidean;
  robustness::SurfaceConfig surface;  ///< includes the YieldConfig
  bool run_robustness = true;         ///< skip stage 3/4 when false
};

/// One mined candidate with its provenance and robustness.
struct MinedCandidate {
  std::string selection;   ///< "closest-to-ideal", "shadow-min f0", ...
  std::size_t front_index = 0;
  num::Vec x;
  num::Vec objectives;
  std::optional<robustness::YieldResult> yield;
};

struct DesignReport {
  pareto::Front front;                      ///< the archive's non-dominated set
  std::size_t evaluations = 0;
  /// Archive::fingerprint() of the PMO2 archive the front came from — the
  /// cheap identity that makes cross-machine reproducibility checks
  /// (docs/BENCHMARKS.md) possible from serialized artifacts alone.
  std::uint64_t fingerprint = 0;
  std::vector<MinedCandidate> mined;        ///< ideal + shadow minima (+ max yield)
  std::vector<robustness::SurfacePoint> surface;  ///< screened robustness samples
};

class RobustDesigner {
 public:
  explicit RobustDesigner(DesignerConfig config) : config_(std::move(config)) {}

  /// Runs the full pipeline.  `property` is the scalar whose robustness is
  /// screened (e.g. the steady-state CO2 uptake of a partition); pass nullptr
  /// to skip robustness even when config enables it.
  [[nodiscard]] DesignReport design(const moo::Problem& problem,
                                    const robustness::PropertyFn& property) const;

  [[nodiscard]] const DesignerConfig& config() const { return config_; }

 private:
  DesignerConfig config_;
};

}  // namespace rmp::core
