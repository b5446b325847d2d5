// A forwarding moo::Problem decorator that times and classifies every call
// the pipeline makes into the problem layer, observed from outside.
//
// register_traced_problems() adds "traced-<name>" entries to the global
// ProblemRegistry for the problems the benchmark drives (photosynthesis,
// geobacter, zdt1), taking the inner problem's own parameters.  A spec that
// names "traced-photosynthesis?scenario=past-low" therefore runs the exact
// inner problem behind one extra virtual call, through the public API.
//
// Every evaluate() is sorted into a class from what the caller can see:
//   cycle        the inner problem vetoes memoization on this thread
//                (last_result_memoizable() false: a limit-cycle average);
//   unconverged  f[0] == 0 and violation >= 1 (no steady state found);
//   settled      everything else.
// Classes only mean something for the kinetic problem; evaluations of other
// problems count as "plain".  The counts are kept with tracing on or off,
// so the traced and the untraced run can be compared; spans (trace.hpp) are
// recorded only while tracing is on.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "moo/problem.hpp"

namespace perfbench {

/// Span names of one problem layer (string literals).
struct LayerNames {
  const char* evaluate;
  const char* repair;
};

struct CallCounts {
  std::size_t settled = 0;
  std::size_t cycle = 0;
  std::size_t unconverged = 0;
  std::size_t plain = 0;
  std::size_t repair = 0;
  std::size_t commit = 0;

  bool operator==(const CallCounts&) const = default;
};

class TracedProblem final : public rmp::moo::Problem {
 public:
  /// `classify` sorts evaluations into the kinetics classes (span names
  /// kinetics.settled/cycle/unconverged) instead of names.evaluate.
  TracedProblem(std::shared_ptr<rmp::moo::Problem> inner, LayerNames names,
                bool classify);

  [[nodiscard]] std::size_t num_variables() const override;
  [[nodiscard]] std::size_t num_objectives() const override;
  [[nodiscard]] std::span<const double> lower_bounds() const override;
  [[nodiscard]] std::span<const double> upper_bounds() const override;
  double evaluate(std::span<const double> x, std::span<double> objectives) const override;
  [[nodiscard]] std::string name() const override;
  void repair(rmp::num::Vec& x) const override;
  std::size_t suggest_initial(std::span<rmp::num::Vec> out,
                              rmp::num::Rng& rng) const override;
  void commit_epoch() const override;
  [[nodiscard]] rmp::moo::EvalStats eval_stats() const override;
  bool set_prescreen(bool enabled) const override;
  void save_state(rmp::core::Json& out) const override;
  void load_state(const rmp::core::Json& doc) const override;
  [[nodiscard]] bool last_result_memoizable() const override;

  [[nodiscard]] CallCounts counts() const;

 private:
  std::shared_ptr<rmp::moo::Problem> inner_;
  LayerNames names_;
  bool classify_;
  mutable std::atomic<std::size_t> settled_{0}, cycle_{0}, unconverged_{0}, plain_{0},
      repair_{0}, commit_{0};
};

/// Adds the traced-* entries to ProblemRegistry::global(); idempotent.  Each
/// factory records its construction of the inner problem as an
/// "api.setup.build" span.
void register_traced_problems();

/// The instance the most recent traced-* factory call built (null before
/// the first).  Session owns its problem privately, so this is how the
/// benchmark reaches the counters of the run it just constructed.
[[nodiscard]] std::shared_ptr<const TracedProblem> last_traced_problem();

}  // namespace perfbench
