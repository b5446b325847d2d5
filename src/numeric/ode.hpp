// ODE initial-value-problem integrators.
//
// The C3 carbon-metabolism model is a moderately stiff system of ~30 coupled
// Michaelis-Menten rate equations; the paper's substrate (SUNDIALS-class
// solvers) is reproduced here with two linearly implicit methods, both
// driven by the caller's closed-form Jacobian (OdeOptions::jacobian is
// required; integrate throws std::invalid_argument when it is null):
//   * a 2nd-order Rosenbrock-W method with step-doubling error control —
//     the kinetic transient and settling path,
//   * a 3rd-order L-stable Rosenbrock method with an embedded 2nd-order
//     error estimate (2 RHS evaluations + 1 factorization per step) — the
//     kinetic limit-cycle integration path.
#pragma once

#include <span>

#include "numeric/callable.hpp"
#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

class Workspace;

/// Right-hand side f(t, y) -> dydt; must not resize dydt (pre-sized to
/// y.size()).  Non-owning (FunctionRef): when stored beyond a call, the
/// callable must be a named lvalue that outlives the store (captureless
/// lambdas excepted; see callable.hpp).
using OdeRhs =
    FunctionRef<void(double t, std::span<const double> y, Vec& dydt)>;

/// Analytic Jacobian df/dy at (t, y); jac arrives pre-sized n x n and
/// zeroed.  Both Rosenbrock methods build their W matrices from it.  The
/// df/dt part is treated as zero — exact for autonomous systems (the
/// kinetic models), and safe for forced ones because both consumers are
/// W-methods: an inexact Jacobian costs step size, never correctness.
using OdeJacobian =
    FunctionRef<void(double t, std::span<const double> y, Matrix& jac)>;

/// Observer invoked after every ACCEPTED step with (t_new, h_used, y_new);
/// y spans the USER state (the linearly implicit methods strip their
/// internal time augmentation first).  Rejected trials are never reported.
/// The shooting solver rides this hook to propagate the variational
/// (monodromy) system alongside a flight; unset costs nothing.
using OdeStepObserver =
    FunctionRef<void(double t, double h, std::span<const double> y)>;

/// The values skip 0, 1, 2 and 5, the integrators this enum used to name,
/// so the remaining methods keep the numbers logs and test names print.
enum class OdeMethod {
  kRosenbrockW = 3,  ///< linearly implicit order 2, for stiff systems
  kRosenbrock3 = 4,  ///< linearly implicit order 3(2), L-stable; cycle path
};

/// Every integrator's step-size floor (a step the controller would shrink
/// below it fails the integration) and cap on accepted steps per call.
inline constexpr double kOdeMinStep = 1e-12;
inline constexpr std::size_t kOdeMaxSteps = 2'000'000;

struct OdeOptions {
  OdeMethod method = OdeMethod::kRosenbrockW;
  double abs_tol = 1e-8;
  double rel_tol = 1e-6;
  double initial_step = 1e-3;
  double max_step = 1.0;
  /// Optional floor applied to every state after each accepted step
  /// (concentrations cannot go negative; kinetic models rely on this).
  double state_floor = -1e300;
  /// Closed-form Jacobian (see OdeJacobian); required.
  OdeJacobian jacobian;
  /// Per-accepted-step hook (see OdeStepObserver); null = no reporting.
  OdeStepObserver step_observer;
  /// Scratch arena for stage vectors, Jacobians and LU storage.  Null = a
  /// thread_local fallback arena; either way the integrators allocate
  /// nothing per step once the arena is warm.  Not owned; single-threaded.
  Workspace* workspace = nullptr;
};

struct OdeResult {
  Vec y;                    ///< state at final time
  double t = 0.0;           ///< time actually reached
  std::size_t steps = 0;    ///< accepted steps
  std::size_t rejected = 0; ///< rejected trial steps
  std::size_t rhs_evals = 0;
  bool success = false;     ///< reached t_end (or steady state when requested)
  /// The controller's step size for the last trial, as it stood before that
  /// trial was truncated to t_end and before an accepted step grew it —
  /// not the step the controller would take next.  Feed it back as
  /// initial_step when integrating onward from res.y (windowed averaging,
  /// leg-by-leg fallbacks) so every leg after the first skips the ramp-up
  /// from a cold initial_step.  0 when no step was attempted.
  double last_step = 0.0;
};

/// Integrate y' = f(t, y) from (t0, y0) to t_end; throws
/// std::invalid_argument when opts.jacobian is null.
[[nodiscard]] OdeResult integrate(const OdeRhs& f, double t0, std::span<const double> y0,
                                  double t_end, const OdeOptions& opts);

}  // namespace rmp::num
