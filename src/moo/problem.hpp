// Multi-objective problem abstraction.
//
// Every objective is MINIMIZED; problems whose natural formulation maximizes
// (CO2 uptake, biomass, electron production) negate inside evaluate() and the
// reporting layer flips the sign back.  Constraint handling follows Deb's
// constrained-domination: evaluate() returns a scalar violation (0 when
// feasible) and the sorting layer prefers smaller violations before comparing
// objectives — this is exactly the "rewards less violating solutions" rule the
// paper applies to the Geobacter steady-state constraint.
#pragma once

#include <span>
#include <string>

#include "core/json.hpp"
#include "numeric/rng.hpp"
#include "numeric/vec.hpp"

namespace rmp::moo {

/// Evaluation accounting exposed by instrumented problems (the kinetic
/// problem).  All counters are totals since construction; each is a sum of
/// per-candidate deterministic outcomes, so the values are invariant under
/// the evaluating thread count.
struct EvalStats {
  std::size_t evaluations = 0;       ///< evaluate() calls observed
  std::size_t prescreen_skips = 0;   ///< rejected by the tangent prescreen
  std::size_t pool_hits = 0;         ///< exact warm-pool key short-circuits
  std::size_t full_evaluations = 0;  ///< full (kinetic) solves actually run
};

class Problem {
 public:
  virtual ~Problem() = default;

  [[nodiscard]] virtual std::size_t num_variables() const = 0;
  [[nodiscard]] virtual std::size_t num_objectives() const = 0;
  [[nodiscard]] virtual std::span<const double> lower_bounds() const = 0;
  [[nodiscard]] virtual std::span<const double> upper_bounds() const = 0;

  /// Computes the objective vector for decision vector `x` (objectives is
  /// pre-sized to num_objectives()) and returns the scalar constraint
  /// violation, 0.0 when feasible.  Must be safe to call concurrently.
  virtual double evaluate(std::span<const double> x,
                          std::span<double> objectives) const = 0;

  [[nodiscard]] virtual std::string name() const { return "problem"; }

  /// Optional projection of a candidate back into an easier-to-search
  /// subspace (e.g. null-space repair of flux vectors).  Default: clamp to
  /// the box only, performed by the caller; this hook may do more.
  virtual void repair(num::Vec& /*x*/) const {}

  /// Optional problem-specific seeding of part of the initial population
  /// (e.g. the natural leaf enzyme partition, an FBA vertex).  Returns the
  /// number of suggested starting points written (at most `max_points`).
  virtual std::size_t suggest_initial(std::span<num::Vec> /*out*/,
                                      num::Rng& /*rng*/) const {
    return 0;
  }

  /// Epoch barrier hook: the engines call this from their serial sections
  /// after every committed generation (the same barriers where PMO2 merges
  /// its archive), so a problem holding evaluation accelerators — the
  /// kinetic warm-start pool — can fold a batch's results into the snapshot
  /// the NEXT batch reads.  Contract for implementations: the call must not
  /// change any observable result of evaluate() beyond a root's low-order
  /// bits, must be cheap, and must be safe (typically a deferred no-op)
  /// when invoked from inside a core parallel region — nested engines, e.g.
  /// a PMO2 island's NSGA-II, reach their own generation barrier while
  /// still inside the island region, and only the archipelago's serial
  /// epoch barrier may take effect there.  Default: nothing.
  virtual void commit_epoch() const {}

  /// Evaluation accounting for instrumented problems.  Default: all zero
  /// (the problem does not track its evaluations).
  [[nodiscard]] virtual EvalStats eval_stats() const { return {}; }

  /// Enables/disables the tangent-model prescreen on problems that support
  /// one.  Returns true iff the problem honours the request; the default
  /// implementation refuses (no prescreen available), letting callers
  /// detect unsupported spec knobs instead of silently ignoring them.
  virtual bool set_prescreen(bool /*enabled*/) const { return false; }

  /// Serializes the problem's mutable accelerator state (warm-start pool,
  /// instrumentation counters) into `out` at an epoch boundary.  const for
  /// the same reason commit_epoch() is: the state captured lives in mutable
  /// epoch-committed members, and stateless problems have nothing to save.
  /// Default: nothing (pure analytic problems are fully described by their
  /// construction).
  virtual void save_state(core::Json& /*out*/) const {}

  /// Restores a save_state() document.  Must be called before any
  /// evaluate() of the resumed run; throws moo::StateError (state.hpp) on a
  /// structural mismatch.  Default: nothing.
  virtual void load_state(const core::Json& /*doc*/) const {}

  /// Whether the result of the most recent evaluate() call ON THE CALLING
  /// THREAD is bitwise-repeatable.  The kinetic problem answers false for
  /// limit-cycle averages, which depend on the evolving warm-pool snapshot.
  /// No library layer reads it: the only caller is perfbench's
  /// TracedProblem, which queries it straight after evaluate() on the same
  /// thread to classify the solve as a cycle.  Default: every result is
  /// repeatable (true for pure analytic problems).
  [[nodiscard]] virtual bool last_result_memoizable() const { return true; }
};

}  // namespace rmp::moo
