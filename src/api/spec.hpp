// RunSpec — the declarative description of one run of the paper's pipeline:
// which problem, which optimizer, what budget, and which post-processing
// stages (mining, robustness) to apply.  A spec is plain data with a JSON
// round-trip, so any (problem x optimizer x config) combination is reachable
// from one file without recompiling:
//
//   {
//     "problem":   "photosynthesis?scenario=future-low",
//     "optimizer": "pmo2?islands=2&population=40",
//     "generations": 200,
//     "seed": 7,
//     "threads": 0,
//     "mining":     {"enabled": true, "metric": "euclidean"},
//     "robustness": {"enabled": true, "trials": 1000, "surface_samples": 50}
//   }
//
// spec_from_json() applies defaults for every absent field, and rejects
// unknown keys and wrong types with SpecError (fail loudly on typos — a
// silently ignored "generatoins" would burn a cluster-day).  api::run()
// (through api::Session::finish) executes the stages.
#pragma once

#include <cstdint>
#include <string>

#include "api/registry.hpp"
#include "core/json.hpp"
#include "pareto/mining.hpp"

namespace rmp::api {

/// Stage 2 (Section 2.2): trade-off candidate mining over the final front.
struct MiningSpec {
  bool enabled = true;
  pareto::DistanceMetric metric = pareto::DistanceMetric::kEuclidean;
};

/// Stages 3-4 (Section 2.3): Monte-Carlo robustness of the mined candidates
/// and, when surface_samples > 0, the screened robustness surface with its
/// max-yield selection.  The perturbed property is objective 0.
struct RobustnessSpec {
  bool enabled = false;
  std::size_t trials = 1000;        ///< global Monte-Carlo trials per candidate
  double max_relative = 0.10;       ///< +-10% per coordinate (the paper's cap)
  double epsilon_fraction = 0.05;   ///< eq. 3 threshold, fraction of nominal
  std::size_t surface_samples = 0;  ///< 0 = skip the Figure-3 surface stage
  std::uint64_t seed = 99;
};

struct RunSpec {
  std::string problem;              ///< problem reference, e.g. "zdt1?n=30"
  std::string optimizer = "pmo2";   ///< optimizer reference
  std::size_t generations = 100;
  std::uint64_t seed = 7;
  /// Coarse thread budget: island_threads for pmo2, eval_threads for the
  /// single-population engines, and the robustness ensemble width (0 = one
  /// per hardware context, 1 = serial).  Never changes results.
  std::size_t threads = 0;
  /// Decision vectors of front members in the serialized result (mined
  /// candidates always carry theirs).
  bool include_decision_vectors = false;
  /// Tangent-model prescreen (problems that support it — photosynthesis):
  /// candidates whose first-order predicted objective is confidently
  /// infeasible skip the full kinetic solve.  Deterministic and
  /// thread-count invariant, but it may change which (infeasible)
  /// violation values the optimizer sees, so it is opted into separately.
  /// Rejected with SpecError when the problem has no prescreen.
  bool prescreen = false;
  /// Checkpoint cadence: every N committed epochs the session serializes its
  /// full run state (api::Session::checkpoint) to checkpoint_path.  0 = no
  /// periodic checkpoints (the service still checkpoints on shutdown).
  std::size_t checkpoint_every = 0;
  /// Destination for periodic checkpoints; required (SpecError) when
  /// checkpoint_every > 0 and the run is driven by api::run.  The service
  /// layer supplies its own spool path, so specs submitted to rmp_serve may
  /// set checkpoint_every alone.
  std::string checkpoint_path;
  MiningSpec mining;
  RobustnessSpec robustness;
};

/// Builds a spec from a parsed JSON document, defaulting absent fields.
/// Throws SpecError on unknown keys, wrong types, or a missing "problem".
[[nodiscard]] RunSpec spec_from_json(const core::Json& doc);

/// Parses text then defaults (convenience over core::Json::parse).
[[nodiscard]] RunSpec spec_from_string(std::string_view text);

/// Serializes every field (including defaulted ones), round-tripping through
/// spec_from_json to an identical spec.
[[nodiscard]] core::Json spec_to_json(const RunSpec& spec);

[[nodiscard]] std::string to_string(pareto::DistanceMetric metric);
[[nodiscard]] pareto::DistanceMetric distance_metric_from_string(const std::string& name);

}  // namespace rmp::api
