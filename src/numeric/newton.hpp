// Damped Newton solver for nonlinear algebraic systems F(x) = 0.
//
// Primary use: solving the steady state of the kinetic metabolism model
// directly (dx/dt = 0) instead of integrating the transient, which is one to
// two orders of magnitude cheaper per candidate evaluation inside the
// optimizer.  Backtracking line search on ||F|| with an optional lower bound
// on the state (concentrations must stay positive).
//
// Both solvers take dF/dx in closed form (NewtonOptions/PtcOptions::
// jacobian); it is mandatory, and a null callback is rejected with
// std::invalid_argument.  On top of that, chord-Newton factorization reuse
// (chord_max_age > 1, off by default) keeps the LU factorization across
// iterations and refreshes it only when it goes stale (backtracking damping
// collapses, the residual reduction stalls, or the age bound is hit),
// amortizing both Jacobian assembly and the O(n^3) factorization over
// several steps.  NewtonResult counts RHS evaluations and factorizations so
// callers can measure the work saved, not just the wall time.
#pragma once

#include <span>

#include "numeric/callable.hpp"
#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

class Workspace;

/// System callback: fills out = F(x); out pre-sized to x.size().
/// Non-owning (FunctionRef) — when storing one in an options struct, the
/// callable must be a named lvalue that outlives the solve (captureless
/// lambdas excepted; see callable.hpp).
using NonlinearSystem = FunctionRef<void(std::span<const double> x, Vec& out)>;

/// Analytic Jacobian callback: fills jac(r, c) = dF_r/dx_c at x; jac arrives
/// pre-sized to n x n and zeroed.  Non-owning, same lifetime contract as
/// NonlinearSystem.
using JacobianFn = FunctionRef<void(std::span<const double> x, Matrix& jac)>;

struct NewtonOptions {
  std::size_t max_iterations = 60;
  double tolerance = 1e-10;        ///< convergence on ||F||_inf
  /// Elements of x are clamped to be >= state_floor after each update.
  double state_floor = -1e300;
  /// Closed-form Jacobian; required (solve_newton throws
  /// std::invalid_argument when it is null).
  JacobianFn jacobian;
  /// Chord-Newton: how many consecutive iterations may ride one LU
  /// factorization.  0 and 1 both mean classic Newton (fresh factorization
  /// every iteration).  A reused (stale) factorization is refreshed early
  /// when the step stalls; a step that fails outright under a stale
  /// factorization is retried with a fresh one before the solve gives up,
  /// so chord reuse never rejects a problem classic Newton would solve.
  std::size_t chord_max_age = 1;
  /// Optional factorization to seed the chord with (e.g. a warm-start
  /// neighbour's cached root Jacobian), extending chord reuse ACROSS solves:
  /// the first iterations then need no Jacobian build at all.  Treated as
  /// stale — the chord acceptance bar applies, and the solver falls back to
  /// a fresh factorization the moment it underperforms.  Only consulted
  /// when chord_max_age > 1; not owned.
  const LuFactorization* warm_lu = nullptr;
  /// Scratch arena for every internal buffer (iterates, trial states,
  /// Jacobians, LU storage).  Null = a thread_local fallback arena; either
  /// way the solve allocates nothing per iteration once the arena is warm.
  /// Not owned; must not be shared across threads.
  Workspace* workspace = nullptr;
};

struct NewtonResult {
  Vec x;
  double residual_norm = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  /// Calls into the RHS callback: the initial residual and every
  /// backtracking trial (Jacobian builds go through the Jacobian callback
  /// and are counted in jacobian_factorizations).
  std::size_t rhs_evaluations = 0;
  /// Jacobian assemblies + LU factorizations performed (chord reuse makes
  /// this less than `iterations`).
  std::size_t jacobian_factorizations = 0;
};

[[nodiscard]] NewtonResult solve_newton(const NonlinearSystem& f,
                                        std::span<const double> x0,
                                        const NewtonOptions& opts);

struct PtcOptions {
  std::size_t max_iterations = 200;
  double tolerance = 1e-10;        ///< convergence on ||F||_inf
  double initial_timestep = 1.0;
  double state_floor = -1e300;
  /// Closed-form Jacobian; required (solve_pseudo_transient throws
  /// std::invalid_argument when it is null).
  JacobianFn jacobian;
  /// Reuse bound for the factored W = I/h - J: while the residual keeps
  /// falling and the SER timestep stays inside kChordHBand of the factored
  /// h, up to chord_max_age consecutive steps ride one factorization (the
  /// step then uses the factored h — a slightly conservative pseudo-time
  /// increment, never a wrong one).  0 and 1 both mean rebuild every
  /// iteration.
  std::size_t chord_max_age = 1;
  /// Scratch arena (see NewtonOptions::workspace).
  Workspace* workspace = nullptr;
};

/// Pseudo-transient continuation (switched evolution relaxation): damped
/// Newton where each step solves (I/h - J) dx = F — an implicit Euler step
/// of the flow x' = F(x) toward its equilibrium.  The pseudo-timestep h
/// grows as the residual falls, so the method starts as robust relaxation
/// and finishes as quadratic Newton.  This is the workhorse for kinetic
/// steady states where plain Newton's line search stalls.
[[nodiscard]] NewtonResult solve_pseudo_transient(const NonlinearSystem& f,
                                                  std::span<const double> x0,
                                                  const PtcOptions& opts);

}  // namespace rmp::num
