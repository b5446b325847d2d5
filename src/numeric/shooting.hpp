// Shooting solver for stable limit cycles of autonomous ODE systems.
//
// The kinetic engine's oscillatory tail (Hopf-shell candidates) used to be
// handled by brute force: integrate far past the transient and average over
// a long window.  Shooting characterizes the cycle by ONE period instead:
// find (y0, T) whose flight returns to its launch point, Phi_T(y0) = y0
// with Phi the flow map, and average over that period alone.
//
// The systems this serves need not HAVE an isolated cycle.  The C3 kinetic
// model near its Hopf shell carries a near-conserved quantity: the flow
// drifts algebraically along a one-parameter family of pseudo-cycles
// (measured: the dominant deflated Floquet multiplier climbs toward 1 over
// successive returns, and the aligned return residual lies almost entirely
// along that single slow direction while the fast components settle to
// ~1e-5 within ONE period).  Phi_T(y) - y then has an irreducible
// component no root-finder can remove.  solve_limit_cycle therefore runs
// an aligned-Picard iteration: fly one period, phase-align the return,
// deflate the aligned residual along the flow, and launch the next round
// from the aligned return.  A round needs no variational ride-along, so
// each costs ONE plain flight.  The fast Floquet modes contract the
// residual round over round while the family component cannot, so the
// split falls out of comparing consecutive deflated residuals: converged
// when two rounds agree to tolerance (the agreement bounds the fast
// remainder) and the surviving drift chi is under the drift_tolerance
// budget.  The answer is an honest SNAPSHOT of the pseudo-cycle the
// trajectory currently occupies — exactly the semantics of the
// windowed-averaging reference it replaces, whose window mean is the same
// snapshot taken at whatever time the window covers — with the measured
// drift reported in ShootingResult::drift.  On a genuinely isolated cycle
// the same iteration converges with chi ~ 0.
//
// Once converged, one final pass over the period produces the time-weighted
// cycle average (state + optional scalar observable), the per-component
// amplitude (rejecting fixed points masquerading as cycles), and the
// stability verdict.  Stability splits in two: the fast modes are certified
// by convergence itself, and the averaging pass rides the variational
// update on the single converged family direction (vprop = M * v, with M
// the monodromy, at ~one extra plain flight's cost) to measure the family
// multiplier.
//
// Clean give-up contract: every failure mode (the guess or a return sits
// at a fixed point; period drifts out of bounds; the rounds never agree
// within max_iterations; amplitude below threshold; unstable cycle)
// returns converged = false and callers fall back to long integration.
// The solver is never silently wrong: a converged result has been
// re-integrated over one full period with the residual re-measured.
//
// estimate_period bootstraps the (y0, T) guess from a trajectory: it
// samples the post-transient flow, picks the most-oscillatory coordinate,
// and reads the period off successive upward mean-crossings.  The analysis
// half (count_mean_crossings, period_from_samples) works on any sample
// matrix, so a caller that integrates the same stretch of trajectory for
// another purpose can record it with a TrajectorySampler riding its step
// observer and count the crossings without a second integration.
#pragma once

#include <array>
#include <span>

#include "numeric/ode.hpp"
#include "numeric/vec.hpp"
#include "numeric/workspace.hpp"

namespace rmp::num {

/// Scalar observable g(y) averaged over the cycle alongside the state —
/// used for quantities that are nonlinear in the state (CO2 uptake), where
/// g(mean state) != mean of g.
using CycleObservable = FunctionRef<double(std::span<const double> y)>;

struct ShootingOptions {
  /// Integrator for the flow map; the stiff cycle path wants kRosenbrock3.
  OdeOptions ode;
  /// Cap on aligned-Picard rounds (one period flight each).
  std::size_t max_iterations = 30;
  /// Fast-remainder gate: two consecutive deflated residuals must agree to
  /// this, relative to max(1, ||y0||_inf).
  double tolerance = 1e-6;
  /// Admissible period window; an iterate leaving it is a clean give-up
  /// (non-periodic or wildly mis-guessed trajectory).
  double min_period = 1e-2;
  double max_period = 1e4;
  /// Reject "cycles" whose largest per-component peak-to-peak amplitude is
  /// below this — a fixed point satisfies Phi_T(y) = y for every T.
  double min_amplitude = 1e-4;
  /// A cycle is declared unstable (converged = false) when the measured
  /// family multiplier magnitude exceeds this.
  double max_floquet_magnitude = 1.2;
  /// Samples per period for the average/amplitude pass.
  std::size_t average_samples = 48;
  /// Drift budget for pseudo-cycle FAMILIES (see file comment): accept a
  /// phase-aligned snapshot whose residual along the slow family direction
  /// is at most drift_tolerance * max(1, ||y0||_inf).  The slow component
  /// is reported in ShootingResult::drift.
  double drift_tolerance = 0.05;
  Workspace* workspace = nullptr;
};

struct ShootingResult {
  bool converged = false;
  Vec cycle_state;            ///< a point on the cycle (phase-pinned)
  double period = 0.0;
  Vec average_state;          ///< time-weighted mean over one period
  double average_observable = 0.0;  ///< 0 when no observable was supplied
  double amplitude = 0.0;     ///< max over components of peak-to-peak range
  double residual = 0.0;      ///< ||Phi_T(y0) - y0||_inf at the returned point
  /// Family multiplier measured by the averaging pass; 0 when the solve
  /// gave up before it.
  double floquet_magnitude = 0.0;
  /// |residual component along the slow family direction| at acceptance —
  /// how fast the pseudo-cycle is migrating per period (~0 on an isolated
  /// cycle).
  double drift = 0.0;
  bool stable = false;
  std::size_t iterations = 0;
  std::size_t rhs_evals = 0;  ///< total RHS work, integrations included
};

[[nodiscard]] ShootingResult solve_limit_cycle(OdeRhs f,
                                               std::span<const double> y0_guess,
                                               double period_guess,
                                               const ShootingOptions& opts = {},
                                               CycleObservable observable = {});

struct PeriodEstimate {
  bool valid = false;
  double period = 0.0;
  Vec anchor_state;  ///< state near an upward mean-crossing (shooting guess)
  std::size_t rhs_evals = 0;
};

/// Samples the trajectory from y0 over `horizon` time units every
/// `dt_sample`, then reads the period off upward mean-crossings of the
/// most-oscillatory coordinate.  Invalid when fewer than three crossings
/// are seen or the crossing intervals disagree by more than 25%.
[[nodiscard]] PeriodEstimate estimate_period(OdeRhs f,
                                             std::span<const double> y0,
                                             double horizon, double dt_sample,
                                             const OdeOptions& ode_opts);

/// Upward mean-crossings of the most-oscillatory (highest-variance)
/// coordinate of a sampled trajectory.
struct MeanCrossings {
  std::size_t coordinate = 0;
  /// Crossings seen, at most times.size(); 0 for a numerically flat
  /// trajectory (per-sample variance under 1e-12 on every coordinate).
  std::size_t count = 0;
  std::size_t last_row = 0;  ///< sample row just past the last crossing
  std::array<double, 64> times{};  ///< crossing times, linearly interpolated
};

/// Crossings a gate in front of a period scan asks for before the scan is
/// worth running.  period_from_samples needs three; a trajectory recorded
/// by a different integrator over the same stretch may show one fewer.
inline constexpr std::size_t kGateMinCrossings = 2;

/// Counts the upward mean-crossings of `traj` (row s = the state at time
/// s * dt_sample).
[[nodiscard]] MeanCrossings count_mean_crossings(const Matrix& traj,
                                                 double dt_sample);

/// The analysis half of estimate_period over a sample matrix: valid when
/// count_mean_crossings sees at least three crossings and the last (up to
/// five) intervals agree with their mean to 25%.  rhs_evals is 0.
[[nodiscard]] PeriodEstimate period_from_samples(const Matrix& traj,
                                                 double dt_sample);

/// Step observer that records a trajectory on the uniform grid
/// t0 + k * dt, k = 0 .. rows - 1: row 0 is y0, and every later row is the
/// cubic-Hermite interpolant of the accepted step that covers its time,
/// built from both endpoint states and slopes (one RHS evaluation per
/// accepted step while rows remain).  It only observes, so the integration
/// it rides takes the same steps with or without it.  Install it as
/// OdeOptions::step_observer for consecutive integrations starting at t0
/// from y0.  Scratch is checked out of `ws` for the sampler's lifetime.
class TrajectorySampler {
 public:
  TrajectorySampler(OdeRhs f, Workspace& ws, double t0,
                    std::span<const double> y0, double dt, std::size_t rows);

  void operator()(double t, double h, std::span<const double> y);

  /// Every grid row has been reached.
  [[nodiscard]] bool complete() const {
    return filled_ == samples_.get().rows();
  }
  [[nodiscard]] const Matrix& samples() const { return samples_.get(); }

 private:
  OdeRhs f_;
  double t0_;
  double dt_;
  double t_prev_;
  std::size_t filled_ = 0;
  ScratchMat samples_;
  ScratchVec y_prev_, f_prev_, f_new_;
};

}  // namespace rmp::num
