// Property tests for the shooting limit-cycle solver (ISSUE: "locked down by
// a solver differential-test harness" — the kinetic-model differential side
// lives in solver_differential_test.cpp; here the solver's own contracts are
// pinned on the van der Pol oscillator, whose mu = 1 cycle has a
// literature-known period of ~6.6633 and |y0| amplitude of ~2.0086:
//   * converged cycles have positive period inside the configured bounds;
//   * the cycle average is invariant under a phase shift of the guess;
//   * monodromy stability agrees with what plain integration observes;
//   * non-periodic trajectories, fixed-point guesses, and sub-amplitude
//     orbits are clean give-ups (converged = false), never silent nonsense.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "numeric/ode.hpp"
#include "numeric/shooting.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {
namespace {

constexpr double kVdpPeriod = 6.6633;  // van der Pol, mu = 1

void vdp_rhs(double, std::span<const double> y, Vec& d) {
  d[0] = y[1];
  d[1] = (1.0 - y[0] * y[0]) * y[1] - y[0];
}

void decay_rhs(double, std::span<const double> y, Vec& d) {
  d[0] = -y[0];
  d[1] = -y[1];
}

void harmonic_rhs(double, std::span<const double> y, Vec& d) {
  d[0] = y[1];
  d[1] = -y[0];
}

double first_component(std::span<const double> y) { return y[0]; }

ShootingOptions vdp_options() {
  ShootingOptions opts;
  opts.ode.abs_tol = 1e-10;
  opts.ode.rel_tol = 1e-8;
  opts.ode.max_step = 0.5;
  opts.average_samples = 96;
  return opts;
}

TEST(ShootingTest, ConvergesOnVanDerPolWithKnownPeriod) {
  const OdeRhs f = vdp_rhs;
  const ShootingResult r =
      solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, vdp_options());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.period, kVdpPeriod, 0.02);
  // amplitude is the max over components; van der Pol's y1 swing (~5.356)
  // exceeds y0's 2 * 2.0086.
  EXPECT_NEAR(r.amplitude, 5.356, 0.1);
  // The cycle is symmetric under y -> -y, so the time average vanishes.
  EXPECT_NEAR(r.average_state[0], 0.0, 0.05);
  EXPECT_NEAR(r.average_state[1], 0.0, 0.05);
  EXPECT_TRUE(r.stable);
  EXPECT_LT(r.floquet_magnitude, 1.0);
  EXPECT_GT(r.rhs_evals, 0u);
  // An isolated cycle: the fast remainder alone reaches the tolerance and
  // the measured family drift is ~0.
  EXPECT_LT(r.drift, 1e-3);
}

TEST(ShootingTest, PeriodIsPositiveAndInsideConfiguredBounds) {
  const OdeRhs f = vdp_rhs;
  const ShootingOptions opts = vdp_options();
  const ShootingResult r = solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.period, 0.0);
  EXPECT_GT(r.period, opts.min_period);
  EXPECT_LT(r.period, opts.max_period);
}

TEST(ShootingTest, GuessOutsidePeriodBoundsIsARejectionNotASolve) {
  const OdeRhs f = vdp_rhs;
  const ShootingResult r =
      solve_limit_cycle(f, Vec{2.0, 0.0}, 1e5, vdp_options());
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.rhs_evals, 0u);  // rejected before any integration
}

TEST(ShootingTest, AverageIsInvariantUnderPhaseShiftOfTheGuess) {
  const OdeRhs f = vdp_rhs;
  const ShootingOptions opts = vdp_options();
  const auto obs = first_component;
  const ShootingResult a =
      solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, opts, obs);
  ASSERT_TRUE(a.converged);

  // A point ~37% of a period further along the same orbit: a different
  // phase, the same cycle.
  const OdeResult shifted =
      integrate(f, 0.0, a.cycle_state, 0.37 * a.period, opts.ode);
  ASSERT_TRUE(shifted.success);
  const ShootingResult b = solve_limit_cycle(f, shifted.y, 6.5, opts, obs);
  ASSERT_TRUE(b.converged);

  EXPECT_NEAR(a.period, b.period, 1e-3);
  EXPECT_NEAR(a.amplitude, b.amplitude, 0.05);
  for (std::size_t i = 0; i < a.average_state.size(); ++i) {
    EXPECT_NEAR(a.average_state[i], b.average_state[i], 0.02) << "i=" << i;
  }
  EXPECT_NEAR(a.average_observable, b.average_observable, 0.02);
}

TEST(ShootingTest, AverageMatchesLongIntegrationWindow) {
  // The windowed reference: ride out the transient, then a left-Riemann
  // mean over ~40 periods.  The window holds a non-integer number of
  // periods, so the two averages agree only to O(amplitude * T / window)
  // ~ 0.05 — the same bound documented for the kinetic cycle path in
  // solver_differential_test.cpp.
  const OdeRhs f = vdp_rhs;
  const ShootingOptions opts = vdp_options();
  const ShootingResult r =
      solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, opts, first_component);
  ASSERT_TRUE(r.converged);

  OdeOptions iopts = opts.ode;
  OdeResult leg = integrate(f, 0.0, Vec{0.5, 0.0}, 60.0, iopts);
  ASSERT_TRUE(leg.success);
  Vec y = leg.y;
  Vec mean(2, 0.0);
  double mean_obs = 0.0;
  const int samples = 2000;
  const double dt = 40.0 * kVdpPeriod / samples;
  for (int s = 0; s < samples; ++s) {
    add_inplace(mean, y);
    mean_obs += y[0];
    if (leg.last_step > 0.0) iopts.initial_step = leg.last_step;
    leg = integrate(f, 0.0, y, dt, iopts);
    ASSERT_TRUE(leg.success);
    y = leg.y;
  }
  scale_inplace(mean, 1.0 / samples);
  mean_obs /= samples;

  EXPECT_NEAR(r.average_state[0], mean[0], 0.05);
  EXPECT_NEAR(r.average_state[1], mean[1], 0.05);
  EXPECT_NEAR(r.average_observable, mean_obs, 0.05);
}

TEST(ShootingTest, MonodromyStabilityAgreesWithIntegration) {
  // Integration evidence that the orbit attracts: a trajectory from well
  // inside the cycle settles onto an oscillation whose peak-to-peak y0
  // range matches the converged cycle's amplitude.
  const OdeRhs f = vdp_rhs;
  const ShootingOptions opts = vdp_options();
  const ShootingResult r =
      solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(r.stable);

  OdeOptions iopts = opts.ode;
  OdeResult leg = integrate(f, 0.0, Vec{0.1, 0.0}, 80.0, iopts);
  ASSERT_TRUE(leg.success);
  Vec y = leg.y;
  Vec lo = y, hi = y;
  const int samples = 400;
  const double dt = 2.0 * kVdpPeriod / samples;
  for (int s = 0; s < samples; ++s) {
    if (leg.last_step > 0.0) iopts.initial_step = leg.last_step;
    leg = integrate(f, 0.0, y, dt, iopts);
    ASSERT_TRUE(leg.success);
    y = leg.y;
    for (std::size_t i = 0; i < y.size(); ++i) {
      lo[i] = std::min(lo[i], y[i]);
      hi[i] = std::max(hi[i], y[i]);
    }
  }
  // amplitude is the max peak-to-peak range over components.
  double observed = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    observed = std::max(observed, hi[i] - lo[i]);
  }
  EXPECT_NEAR(observed, r.amplitude, 0.1);
}

TEST(ShootingTest, FloquetThresholdRejectsWhenTightened) {
  // Same cycle, an impossible stability demand: the solver must flag the
  // orbit unstable (converged = false) instead of quietly passing it.
  const OdeRhs f = vdp_rhs;
  ShootingOptions opts = vdp_options();
  opts.max_floquet_magnitude = 1e-12;
  const ShootingResult r = solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.stable);
  EXPECT_GT(r.floquet_magnitude, 1e-12);
}

TEST(ShootingTest, CleanGiveUpOnNonPeriodicTrajectory) {
  // Pure decay: the only recurrent point is the origin, a fixed point with
  // no flow to align against — the solver must give up, not fabricate a
  // cycle.
  const OdeRhs f = decay_rhs;
  const ShootingResult r =
      solve_limit_cycle(f, Vec{1.0, 1.0}, 5.0, vdp_options());
  EXPECT_FALSE(r.converged);
}

TEST(ShootingTest, FixedPointGuessIsAnImmediateGiveUp) {
  // (0, 0) is van der Pol's equilibrium: the flow vanishes and there is
  // nothing to align a phase against.
  const OdeRhs f = vdp_rhs;
  const ShootingResult r =
      solve_limit_cycle(f, Vec{0.0, 0.0}, 6.0, vdp_options());
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.rhs_evals, 1u);  // one probe of the flow, no flights
}

TEST(ShootingTest, SubAmplitudeOrbitIsRejected) {
  // The harmonic oscillator's tiny circle satisfies Phi_T(y) = y exactly at
  // T = 2 pi, but its amplitude sits below min_amplitude: a fixed point
  // masquerading as a cycle for the caller's purposes.
  const OdeRhs f = harmonic_rhs;
  ShootingOptions opts = vdp_options();
  opts.min_amplitude = 1e-4;
  const ShootingResult r =
      solve_limit_cycle(f, Vec{1e-6, 0.0}, 2.0 * 3.14159265358979, opts);
  EXPECT_FALSE(r.converged);
}

TEST(ShootingTest, EstimatePeriodReadsTheVdpPeriodAndSeedsTheSolver) {
  const OdeRhs f = vdp_rhs;
  OdeOptions iopts = vdp_options().ode;
  const OdeResult transient = integrate(f, 0.0, Vec{0.5, 0.0}, 30.0, iopts);
  ASSERT_TRUE(transient.success);

  const PeriodEstimate est =
      estimate_period(f, transient.y, 40.0, 0.05, iopts);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.period, kVdpPeriod, 0.15);
  ASSERT_EQ(est.anchor_state.size(), 2u);
  EXPECT_TRUE(all_finite(est.anchor_state));

  // The estimate is a good enough (y0, T) seed to converge the solver.
  const ShootingResult r =
      solve_limit_cycle(f, est.anchor_state, est.period, vdp_options());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.period, kVdpPeriod, 0.02);
}

TEST(ShootingTest, EstimatePeriodRejectsNonPeriodicTrajectories) {
  const OdeRhs f = decay_rhs;
  const PeriodEstimate est =
      estimate_period(f, Vec{1.0, 1.0}, 40.0, 0.05, vdp_options().ode);
  EXPECT_FALSE(est.valid);
}

// --- pseudo-cycle families ---------------------------------------------------
// A planar Hopf normal-form cycle crossed with a near-conserved third
// coordinate: x' = -y + x(1 - x^2 - y^2), y' = x + y(1 - x^2 - y^2),
// z' = -epsilon z.  For small epsilon each z-level carries a pseudo-cycle of
// period ~2 pi, and the flow drifts slowly down the family toward the true
// isolated cycle at z = 0 — the same structure (one slow near-neutral
// direction, fast-contracting transverse modes) as the C3 model's
// serine-accumulation shell, but with a known per-period migration.

constexpr double kFamilyEps = 0.002;
constexpr double kTwoPi = 6.283185307179586;

void family_rhs(double, std::span<const double> y, Vec& d) {
  const double r2 = y[0] * y[0] + y[1] * y[1];
  d[0] = -y[1] + y[0] * (1.0 - r2);
  d[1] = y[0] + y[1] * (1.0 - r2);
  d[2] = -kFamilyEps * y[2];
}

TEST(ShootingTest, DriftModeSnapshotsThePseudoCycleItWasGiven) {
  // With a drift budget the solver accepts the pseudo-cycle NEAR the guess
  // instead of chasing the family: the snapshot keeps z close to the
  // launch level (only a couple of e^{-2 pi eps} contractions away), the
  // period is the family's ~2 pi, and the migration rate is reported.
  const OdeRhs f = family_rhs;
  ShootingOptions opts = vdp_options();
  opts.drift_tolerance = 0.05;
  const ShootingResult r =
      solve_limit_cycle(f, Vec{1.0, 0.0, 0.5}, 6.2, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.period, kTwoPi, 1e-3);
  EXPECT_GT(r.cycle_state[2], 0.4);  // still on the upper family, not z = 0
  EXPECT_LT(r.cycle_state[2], 0.5);
  EXPECT_GT(r.drift, 0.0);
  // Per-period family migration: |dz| = z (1 - e^{-2 pi eps}).
  EXPECT_NEAR(r.drift, r.cycle_state[2] * (1.0 - std::exp(-kTwoPi * kFamilyEps)),
              2e-3);
  EXPECT_TRUE(r.stable);
  EXPECT_LT(r.floquet_magnitude, 1.0);
}

TEST(ShootingTest, DriftModeStillGivesUpCleanlyOffCycle) {
  // The budget forgives slow family drift, never non-periodicity: pure
  // decay must remain a clean give-up even with the budget wide open.
  const OdeRhs f = decay_rhs;
  ShootingOptions opts = vdp_options();
  opts.drift_tolerance = 0.05;
  const ShootingResult r = solve_limit_cycle(f, Vec{1.0, 1.0}, 5.0, opts);
  EXPECT_FALSE(r.converged);
}

TEST(ShootingTest, DriftModeMatchesStrictOnAGenuineIsolatedCycle) {
  // On van der Pol (no slow family) a wide drift budget must land on the
  // same cycle as a near-strict one that forgives almost no drift: the fast
  // remainder alone reaches the tolerance, the measured drift is ~0, and
  // both agree with the literature period.
  const OdeRhs f = vdp_rhs;
  ShootingOptions wide = vdp_options();
  wide.drift_tolerance = 0.05;
  ShootingOptions strict = vdp_options();
  strict.drift_tolerance = 1e-4;
  const ShootingResult drift =
      solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, wide, first_component);
  const ShootingResult tight =
      solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, strict, first_component);
  ASSERT_TRUE(drift.converged);
  ASSERT_TRUE(tight.converged);
  EXPECT_NEAR(drift.period, tight.period, 1e-3);
  EXPECT_NEAR(drift.period, kVdpPeriod, 0.02);
  EXPECT_NEAR(drift.amplitude, tight.amplitude, 0.05);
  EXPECT_NEAR(drift.average_observable, tight.average_observable, 0.02);
  EXPECT_LT(drift.drift, 1e-3);
  EXPECT_LT(tight.drift, 1e-4);
}

// --- period scan and its gate ---------------------------------------------
// The same planar Hopf cycle with a third coordinate that either sits still
// or drifts linearly, z' = c.  A drift fast enough to out-vary the cycle
// (var(z) = c^2 H^2 / 12 over a horizon H, against var(x) = 1/2) makes z the
// most-oscillatory coordinate, and a monotone ramp crosses its own mean
// exactly once: the shape of most cold C3 candidates, whose highest-variance
// pool grows linearly instead of oscillating.

template <int kDriftPerMille>
void hopf_drift_rhs(double, std::span<const double> y, Vec& d) {
  const double r2 = y[0] * y[0] + y[1] * y[1];
  d[0] = -y[1] + y[0] * (1.0 - r2);
  d[1] = y[0] + y[1] * (1.0 - r2);
  d[2] = kDriftPerMille / 1000.0;
}

constexpr double kScanHorizon = 40.0;
constexpr double kScanDt = 0.05;
constexpr std::size_t kScanRows = 801;  // kScanHorizon / kScanDt + 1

/// Integrates [0, horizon] in legs of `leg` units with a TrajectorySampler
/// on the step observer, the way the kinetic window feeds its gate.
MeanCrossings gate_crossings(OdeRhs f, const Vec& y0, double leg) {
  OdeOptions iopts = vdp_options().ode;
  TrajectorySampler sampler(f, Workspace::thread_local_instance(), 0.0, y0,
                            kScanDt, kScanRows);
  iopts.step_observer = sampler;
  Vec y = y0;
  for (double t = 0.0; t < kScanHorizon; t += leg) {
    const OdeResult r = integrate(f, t, y, t + leg, iopts);
    EXPECT_TRUE(r.success);
    if (r.last_step > 0.0) iopts.initial_step = r.last_step;
    y = r.y;
  }
  EXPECT_TRUE(sampler.complete());
  return count_mean_crossings(sampler.samples(), kScanDt);
}

TEST(PeriodScanTest, SamplerRecordsTheScanGridOfAnOscillation) {
  const OdeRhs f = hopf_drift_rhs<0>;
  const Vec y0{1.0, 0.0, 0.3};
  const PeriodEstimate est =
      estimate_period(f, y0, kScanHorizon, kScanDt, vdp_options().ode);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.period, kTwoPi, 0.05);

  // The sampler rides a leg-by-leg integration instead of restarting at
  // every grid point, yet reads the same crossings off the same grid.
  const MeanCrossings scan = gate_crossings(f, y0, 10.0);
  EXPECT_GE(scan.count, kGateMinCrossings);
  EXPECT_GE(scan.count, 6u);  // ~6.4 periods
  OdeOptions iopts = vdp_options().ode;
  TrajectorySampler sampler(f, Workspace::thread_local_instance(), 0.0, y0,
                            kScanDt, kScanRows);
  iopts.step_observer = sampler;
  const OdeResult r = integrate(f, 0.0, y0, kScanHorizon, iopts);
  ASSERT_TRUE(r.success);
  ASSERT_TRUE(sampler.complete());
  for (std::size_t row = 0; row < kScanRows; ++row) {
    const double t = static_cast<double>(row) * kScanDt;
    EXPECT_NEAR(sampler.samples()(row, 0), std::cos(t), 1e-5) << "row=" << row;
    EXPECT_NEAR(sampler.samples()(row, 1), std::sin(t), 1e-5) << "row=" << row;
  }
}

TEST(PeriodScanTest, LinearDriftDefeatsTheScanAndTheGate) {
  // z' = 0.5: var(z) ~ 33 over the horizon against var(x) = 1/2.
  const OdeRhs f = hopf_drift_rhs<500>;
  const Vec y0{1.0, 0.0, 0.0};
  const PeriodEstimate est =
      estimate_period(f, y0, kScanHorizon, kScanDt, vdp_options().ode);
  EXPECT_FALSE(est.valid);

  const MeanCrossings scan = gate_crossings(f, y0, 10.0);
  EXPECT_EQ(scan.coordinate, 2u);  // the ramp, not the cycle
  EXPECT_EQ(scan.count, 1u);
  EXPECT_LT(scan.count, kGateMinCrossings);  // the gate skips the scan
}

TEST(PeriodScanTest, FlatTrajectoryHasNoCrossings) {
  const Matrix flat(50, 3, 1.0);
  const MeanCrossings mc = count_mean_crossings(flat, kScanDt);
  EXPECT_EQ(mc.count, 0u);
  EXPECT_FALSE(period_from_samples(flat, kScanDt).valid);
}

}  // namespace
}  // namespace rmp::num
