// api::run — executes a RunSpec end-to-end and returns everything a caller
// (or a serialized artifact) needs: the front, the archive fingerprint, the
// mined trade-off candidates, their robustness, and stage timings.
//
//   spec.json --parse--> RunSpec --ProblemRegistry/OptimizerRegistry--> run()
//        optimize (api::Session::step_epoch + per-generation archive merge)
//     -> mine (closest-to-ideal, shadow minima)
//     -> robustness (global yields; optional surface + max-yield pick)
//     -> RunResult --result_to_json--> result.json
//
// run() is the one-shot wrapper over api::Session (api/session.hpp), which
// owns the optimize-stage state machine and its checkpoint/resume envelope;
// when spec.checkpoint_every > 0 the wrapper serializes the session to
// spec.checkpoint_path at that epoch cadence.
//
// Determinism: everything downstream of the spec is seeded — two runs of the
// same spec produce bit-identical archives, so RunResult::fingerprint is a
// cross-machine reproducibility check (asserted by tests/api/run_test.cpp
// and the ci/build.sh rmp_run smoke).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "core/json.hpp"
#include "moo/problem.hpp"
#include "pareto/front.hpp"
#include "robustness/surface.hpp"

namespace rmp::api {

/// One mined candidate with its provenance and robustness.
struct MinedCandidate {
  std::string selection;  ///< "closest-to-ideal", "shadow-min f0", "max-yield"
  std::size_t front_index = 0;
  num::Vec x;
  num::Vec objectives;
  std::optional<robustness::YieldResult> yield;
};

struct RunResult {
  RunSpec spec;                   ///< the spec that produced this result
  std::string problem_name;       ///< Problem::name() of the instance
  std::string optimizer_name;     ///< Optimizer::name() of the instance
  pareto::Front front;            ///< non-dominated set of the run archive
  /// Archive::fingerprint() of the run archive (FNV-1a over the canonical
  /// member order) — the identity reproducibility checks compare across
  /// machines.
  std::uint64_t fingerprint = 0;
  std::size_t evaluations = 0;
  /// Evaluation accounting over the WHOLE run (optimize + mining +
  /// robustness): prescreen skips, warm-pool exact hits and the full
  /// evaluations that remained.  All totals are thread-count invariant;
  /// all-zero when the problem is uninstrumented.
  moo::EvalStats eval_stats;
  /// Closest-to-ideal and the shadow minima (when mining is on), then the
  /// max-yield pick of the robustness surface (when it ran).
  std::vector<MinedCandidate> mined;
  std::vector<robustness::SurfacePoint> surface;
  double optimize_seconds = 0.0;
  double mining_seconds = 0.0;
  double robustness_seconds = 0.0;
};

/// Executes the spec.  Throws SpecError on unresolvable references or bad
/// parameters; anything thrown by the problem/optimizer propagates.
[[nodiscard]] RunResult run(const RunSpec& spec);

/// Full JSON artifact: spec echo, names, front, fingerprint (hex), mined
/// candidates, surface, evaluations and timings.
[[nodiscard]] core::Json result_to_json(const RunResult& result);

/// Human-readable run summary: problem and optimizer names, front size,
/// evaluations, fingerprint, one line per mined candidate (objectives and
/// yield) and the stage timings.
void print_summary(const RunResult& result, std::ostream& os);

}  // namespace rmp::api
