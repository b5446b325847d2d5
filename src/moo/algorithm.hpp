// The unified Optimizer interface — every search engine in the tree speaks
// it: the single-population engines (NSGA-II, SPEA2, MOEA/D) and the PMO2
// archipelago itself, which both *hosts* Optimizers as islands and *is* one
// (its population() is the global archive view).  One polymorphic seam means
// heterogeneous island factories, the AlgorithmRegistry (src/api/registry.hpp)
// and the spec-driven run API all compose any engine with any problem.
//
// Contract
// --------
//   * initialize() builds and evaluates the initial population.  Must be
//     called once before step(); calling it again starts a fresh run of the
//     same configuration.  The engine's RNG stream is NOT rewound — a
//     restarted run is an independent replicate, not a replay; construct a
//     new instance (as api::run does) to reproduce a run bit-exactly.
//   * step() advances by one generation.
//   * Three-phase hooks (begin_initialize/end_initialize,
//     begin_step/end_step) split a generation at its evaluation so a host
//     can score many engines' offspring in one batch (Pmo2 does, see
//     moo/pmo2.hpp).  begin_* runs the variation on the engine's own RNG
//     stream and returns the staged, unevaluated individuals; the host
//     scores exactly that span with core::evaluate_batch on the problem the
//     engine was built with (Pmo2 scores it on its own problem, which is
//     why its AlgorithmFactory must build every engine on the problem it
//     is handed); end_*(evaluated) commits (counters, the problem's
//     commit_epoch, survivor selection).  Between the two calls the span
//     stays valid and the engine's committed state is untouched.  An engine
//     that cannot split its generation (MOEA/D: each child's replacement
//     feeds the next child's mating) keeps the defaults: begin_* stages
//     nothing and end_* runs the whole initialize()/step().  Engines that
//     do split implement initialize()/step() as begin, evaluate_batch, end,
//     so each generation has one implementation.
//   * Exception safety (the PR-2 contract, required of every implementation):
//     a step() that throws must leave all state observable through this
//     interface — population(), evaluations(), and for archive-bearing
//     engines the archived front — exactly as it was before the call, so an
//     Observer can never see a partially committed generation.  Pmo2
//     additionally documents how its epoch barrier realizes the strong
//     guarantee (moo/pmo2.hpp); the single-population engines satisfy it by
//     evaluating offspring into scratch storage before any commit — the
//     staged span of the hooks above, so a host whose batch throws leaves
//     them exactly as before begin_*() (their RNG stream aside).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "moo/individual.hpp"
#include "moo/problem.hpp"
#include "moo/state.hpp"

namespace rmp::moo {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Invoked by run() after every generation with a fully committed state
  /// (gen is 1-based).  For Pmo2 "committed" means the epoch barrier has
  /// completed: archive merged and migration (if due) applied.
  using Observer = std::function<void(std::size_t gen, const Optimizer& state)>;

  /// Builds and evaluates the initial population.  Must be called once
  /// before step(); repeated calls restart the run as an independent
  /// replicate (the RNG stream is not rewound — see the contract above).
  virtual void initialize() = 0;

  /// Advances by one generation.  See the exception-safety contract above.
  virtual void step() = 0;

  /// Phase 1 of initialize(): builds the initial population into staging
  /// storage and returns it unevaluated.  Default: stages nothing.
  virtual std::span<Individual> begin_initialize() { return {}; }

  /// Phase 3 of initialize(): commits the staged population once every
  /// individual of it was evaluated (`evaluated` of them).  Default: runs
  /// the whole initialize().
  virtual void end_initialize(std::size_t /*evaluated*/) { initialize(); }

  /// Phase 1 of step(): stages one generation's offspring and returns them
  /// unevaluated.  Default: stages nothing.
  virtual std::span<Individual> begin_step() { return {}; }

  /// Phase 3 of step(): commits the evaluated offspring and selects the
  /// survivors.  Default: runs the whole step().
  virtual void end_step(std::size_t /*evaluated*/) { step(); }

  /// Current population (valid after initialize()).  Archive-bearing engines
  /// (SPEA2, PMO2) expose their result archive here.
  [[nodiscard]] virtual std::span<const Individual> population() const = 0;

  /// True when population() is a cumulative non-dominated archive over the
  /// whole run (PMO2) rather than one generation's working set — drivers
  /// that maintain their own run archive can then merge the view once at
  /// the end instead of every generation.
  [[nodiscard]] virtual bool population_is_archive() const { return false; }

  /// Installs immigrant candidates, displacing the worst residents.
  virtual void inject(std::span<const Individual> immigrants) = 0;

  /// Total problem evaluations consumed so far.
  [[nodiscard]] virtual std::size_t evaluations() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Serializes the engine's complete run state into `out` (an object the
  /// caller owns): population(s), RNG stream positions, evaluation counters
  /// — everything a freshly constructed engine of the same configuration
  /// needs to continue the run bit-exactly.  Must only be called at an epoch
  /// boundary (after a committed step(), never mid-step).  Engines without
  /// checkpoint support throw StateError — resumability is opt-in, and a
  /// silently empty checkpoint would masquerade as a restartable run.
  virtual void save_state(core::Json& /*out*/) const {
    throw StateError(name() + " does not support save_state");
  }

  /// Restores a save_state() document into this engine, replacing
  /// initialize(): construct with the same configuration, then load_state()
  /// instead of initialize(), then step() continues the original run.
  /// Throws StateError when the document was saved by a different engine
  /// kind or does not match the constructed configuration.
  virtual void load_state(const core::Json& /*doc*/) {
    throw StateError(name() + " does not support load_state");
  }

  /// Runs initialize() + `generations` steps, invoking `observer` after each
  /// committed generation — the per-generation hook that lets Pmo2 keep its
  /// epoch callback when driven through the base interface.
  void run(std::size_t generations, const Observer& observer = nullptr) {
    initialize();
    for (std::size_t g = 1; g <= generations; ++g) {
      step();
      if (observer) observer(g, *this);
    }
  }
};

}  // namespace rmp::moo
