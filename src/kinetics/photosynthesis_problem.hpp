// The photosynthesis design problem of Section 3.1 as a moo::Problem:
//   variables   — 23 enzyme-activity multipliers relative to the natural leaf;
//   objective 0 — maximize CO2 uptake (stored negated: minimize -A);
//   objective 1 — minimize total protein-nitrogen of the partition;
//   infeasible  — partitions whose kinetics admit no steady state (violation
//                 is the residual derivative norm).
// Six scenario instances (Ci in {165, 270, 490} x export in {1, 3}) are
// provided by scenarios.hpp.
#pragma once

#include <atomic>
#include <memory>

#include "kinetics/c3model.hpp"
#include "moo/problem.hpp"

namespace rmp::kinetics {

struct PhotosynthesisBounds {
  double lower = 0.02;  ///< multiplier floor (enzymes cannot fully vanish)
  double upper = 5.0;   ///< multiplier ceiling
  /// A design must sustain positive carbon fixation: partitions whose
  /// steady-state uptake falls below this are treated as constraint
  /// violations (the "dead leaf" steady state is mathematically Pareto
  /// optimal on the nitrogen axis but biologically meaningless).
  double min_uptake = 0.5;

  // --- tangent-model prescreen ------------------------------------------
  // When enabled (spec knob prescreen=true, or set_prescreen()), evaluate()
  // first asks the warm pool's tangent model to predict the candidate's
  // uptake (C3Model::predict_uptake).  A candidate is SKIPPED — no kinetic
  // solve — only when the prediction is trustworthy (the tangent neighbour
  // lies within prescreen_radius2) and confidently below the alive-leaf
  // constraint (predicted uptake + prescreen_margin < min_uptake).  A
  // skipped candidate is reported INFEASIBLE with violation
  // min_uptake - predicted_uptake; infeasible candidates are never admitted
  // to the archive, so a skip can only ever drop a candidate the full solve
  // would have rejected too (soundness by construction — see
  // ARCHITECTURE.md).  The decision is a pure function of (candidate,
  // committed pool snapshot): thread-count invariant like everything else.
  bool prescreen = false;
  /// Safety margin (umol m^-2 s^-1) the predicted uptake must fall below
  /// min_uptake by before a solve is skipped — absorbs the tangent model's
  /// first-order truncation error near the threshold.
  double prescreen_margin = 2.0;
  /// Trust region: squared multiplier-space distance beyond which the
  /// tangent extrapolation is not trusted to decide a skip.
  double prescreen_radius2 = 1.0;
  /// Trust region for CYCLE-anchor predictions (TangentPrediction::cycle):
  /// the stored cycle-average uptake is a zeroth-order estimate — no tangent
  /// model corrects it toward the candidate — so skips demand a tighter
  /// neighbourhood than the first-order root predictions get.
  static constexpr double cycle_prescreen_radius2 = 0.25;
};

class PhotosynthesisProblem final : public moo::Problem {
 public:
  explicit PhotosynthesisProblem(std::shared_ptr<const C3Model> model,
                                 PhotosynthesisBounds bounds = {});

  [[nodiscard]] std::size_t num_variables() const override { return kNumEnzymes; }
  [[nodiscard]] std::size_t num_objectives() const override { return 2; }
  [[nodiscard]] std::span<const double> lower_bounds() const override { return lower_; }
  [[nodiscard]] std::span<const double> upper_bounds() const override { return upper_; }
  [[nodiscard]] std::string name() const override;

  double evaluate(std::span<const double> x, std::span<double> f) const override;

  /// Seeds the optimizer with the natural partition and jittered copies.
  std::size_t suggest_initial(std::span<num::Vec> out, num::Rng& rng) const override;

  /// Epoch barrier: folds the generation's steady states into the model's
  /// warm-start pool snapshot (deferred no-op inside parallel regions — see
  /// moo::Problem::commit_epoch and C3Model::commit_warm_starts).
  void commit_epoch() const override;

  /// Evaluation accounting: evaluations/prescreen_skips/pool_hits/
  /// full_evaluations.
  [[nodiscard]] moo::EvalStats eval_stats() const override;

  /// Checkpoint seam: the model's warm-start pool (roots + cycle anchors;
  /// LU caches are derived state and rebuild on demand) plus the
  /// instrumentation counters — restoring the counters is what makes a
  /// resumed run's EvalStats totals identical to the uninterrupted run's.
  void save_state(core::Json& out) const override;
  void load_state(const core::Json& doc) const override;

  /// Honours the request (the tangent prescreen is always available here);
  /// margin/radius come from PhotosynthesisBounds.
  bool set_prescreen(bool enabled) const override {
    prescreen_.store(enabled, std::memory_order_relaxed);
    return true;
  }
  [[nodiscard]] bool prescreen_enabled() const {
    return prescreen_.load(std::memory_order_relaxed);
  }

  /// False for limit-cycle averages: a repeat of an oscillatory candidate
  /// re-runs the solve ladder, and only LIVING cycles are backed by the
  /// pool's exact-key short circuit (dead cycles re-shoot, and a
  /// pool-evicted anchor falls back to the windowed average) — so repeats
  /// are not bitwise-guaranteed.  Steady roots are pooled and reproduced
  /// bitwise.  (Per-thread state, read straight after evaluate() on the
  /// same thread; see moo::Problem::last_result_memoizable.)
  [[nodiscard]] bool last_result_memoizable() const override;

  [[nodiscard]] const C3Model& model() const { return *model_; }

  /// Converts a stored objective vector back to (CO2 uptake, nitrogen) in
  /// paper units (uptake positive).
  [[nodiscard]] static std::pair<double, double> to_paper_units(
      std::span<const double> f) {
    return {-f[0], f[1]};
  }

 private:
  std::shared_ptr<const C3Model> model_;
  num::Vec lower_, upper_;
  double min_uptake_;
  double prescreen_margin_;
  double prescreen_radius2_;
  /// Runtime prescreen switch; mutable+atomic because toggling it (and the
  /// counters below) is instrumentation, not an observable result change —
  /// evaluate() stays const and concurrency-safe.
  mutable std::atomic<bool> prescreen_;
  /// Relaxed counters: each increment is a per-candidate deterministic
  /// outcome, so the totals are thread-count invariant (only the increment
  /// ORDER varies with scheduling).
  mutable std::atomic<std::size_t> evaluations_{0};
  mutable std::atomic<std::size_t> prescreen_skips_{0};
  mutable std::atomic<std::size_t> pool_hits_{0};
  mutable std::atomic<std::size_t> full_evaluations_{0};
};

}  // namespace rmp::kinetics
