#include "numeric/shooting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/workspace.hpp"

namespace rmp::num {

namespace {

/// Flow map: integrates f from y over [0, horizon]; writes the endpoint
/// into `out`.  Returns false when the integrator gave up.
bool flow_map(OdeRhs f, std::span<const double> y, double horizon,
              const OdeOptions& ode, Vec& out, std::size_t& rhs_evals) {
  OdeResult r = integrate(f, 0.0, y, horizon, ode);
  rhs_evals += r.rhs_evals;
  if (!r.success) return false;
  out = std::move(r.y);
  return all_finite(out);
}

}  // namespace

ShootingResult solve_limit_cycle(OdeRhs f, std::span<const double> y0_guess,
                                 double period_guess,
                                 const ShootingOptions& opts,
                                 CycleObservable observable) {
  if (!opts.ode.jacobian) {
    throw std::invalid_argument(
        "solve_limit_cycle: ShootingOptions::ode.jacobian is null");
  }
  ShootingResult res;
  const std::size_t n = y0_guess.size();
  Workspace& ws = opts.workspace ? *opts.workspace
                                 : Workspace::thread_local_instance();

  if (!(period_guess > kShootingMinPeriod) || !(period_guess < kShootingMaxPeriod)) {
    return res;
  }

  // A vanishing flow at the guess means it sits at a fixed point: no cycle
  // to shoot for, and no flow direction to align a phase against.
  ScratchVec z(ws, n), phi(ws, n), fphi(ws, n), svec(ws, n), sprev(ws, n),
      uflow(ws, n);
  uflow.get().assign(n, 0.0);
  f(0.0, y0_guess, uflow.get());
  ++res.rhs_evals;
  if (!(norm2(uflow) > 1e-12) || !all_finite(uflow)) return res;

  z.get().assign(y0_guess.begin(), y0_guess.end());
  double period = period_guess;
  const double state_scale = std::max(1.0, norm_inf(z));

  // Aligned-Picard rounds (see header).  Each round flies ONE period with
  // no variational ride-along (this is what prices a round at a single
  // plain flight), phase-aligns the return p to the launch point (tau =
  // <f(p), y - p> / <f(p), f(p)>, the least-squares time shift, absorbed
  // into the period), and deflates the aligned residual r = p_aligned - y
  // along the flow direction.  The split into family drift and fast
  // remainder needs no monodromy: the fast Floquet modes contract every
  // round while the family component chi = ||deflate(r)|| cannot, so once
  // two consecutive deflated residuals agree to tolerance the residual IS
  // the family drift — converged when that agreement holds and chi fits the
  // drift_tolerance budget.  The accepted snapshot is the aligned return
  // itself, with the per-period drift reported honestly.  Stability is
  // certified in two parts: the fast modes by convergence itself (an
  // unstable fast mode would have grown the round-to-round difference), the
  // family multiplier by the averaging pass below, which propagates the
  // converged direction through the variational update.
  bool have_prev = false;
  bool converged = false;
  double chi = 0.0;
  while (res.iterations < opts.max_iterations) {
    const std::span<const double> y = z;
    if (!flow_map(f, y, period, opts.ode, phi.get(), res.rhs_evals)) {
      return res;
    }
    fphi.get().assign(n, 0.0);
    f(0.0, phi.get(), fphi.get());
    ++res.rhs_evals;
    if (!all_finite(fphi)) return res;
    const double den = dot(fphi, fphi);
    if (!(den > 1e-24)) return res;  // the return sits at a fixed point
    double tau = 0.0;
    for (std::size_t i = 0; i < n; ++i) tau += fphi[i] * (z[i] - phi[i]);
    tau /= den;
    // Trust region on the time shift: while the iterate is still far off
    // the attractor the return p is not one near-period away from y, the
    // least-squares tau is garbage, and absorbing it wholesale sends the
    // period careening (observed: T bouncing 30 <-> 75 round to round,
    // never converging).  Neighboring pseudo-cycles differ in period by a
    // few percent at most, so a 15% cap never binds on a genuine
    // correction yet keeps early rounds flying ~the anchor period while
    // the flight itself relaxes the state onto the orbit.  A round whose
    // cap BINDS is by the same token not aligned — it may relax, never
    // accept: on a fixed-point collapse (no cycle at all) tau stays huge
    // every round, and accepting a clamped round would bless the
    // flow-parallel residual the alignment failed to remove.
    const double tau_cap = 0.15 * period;
    const bool tau_trusted = std::fabs(tau) <= tau_cap;
    tau = std::clamp(tau, -tau_cap, tau_cap);
    const double t_new = period + tau;
    if (!(t_new > kShootingMinPeriod) || !(t_new < kShootingMaxPeriod)) {
      return res;
    }
    period = t_new;
    for (std::size_t i = 0; i < n; ++i) {
      phi[i] += tau * fphi[i];  // phase-aligned return
      svec[i] = phi[i] - z[i];  // aligned residual
    }
    // Deflate along the launch-point flow direction: the alignment only
    // removed the time shift at the RETURN, and the flow's trivial
    // multiplier of 1 would otherwise read as family drift.
    uflow.get().assign(n, 0.0);
    f(0.0, y, uflow.get());
    ++res.rhs_evals;
    const double un = norm2(uflow);
    if (!(un > 1e-12)) return res;
    scale_inplace(uflow.get(), 1.0 / un);
    const double su = dot(svec, uflow);
    axpy(svec.get(), -su, uflow.get());
    chi = norm2(svec);
    ++res.iterations;
    if (have_prev) {
      double fast = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        fast = std::max(fast, std::fabs(svec[i] - sprev[i]));
      }
      // The relative term must absorb the family component's OWN round-
      // to-round migration, chi * (1 - mu) — real drift, not fast
      // remainder — or a family with mu a few percent under 1 never
      // "agrees" with itself and the loop spins to the cap.
      const bool fast_ok = fast <= std::max(opts.tolerance * state_scale,
                                            0.05 * chi);
      if (tau_trusted && fast_ok &&
          chi <= opts.drift_tolerance * state_scale) {
        res.drift = chi;
        for (std::size_t i = 0; i < n; ++i) z[i] = phi[i];
        converged = true;
        break;
      }
    }
    sprev.get() = svec.get();
    have_prev = true;
    // Picard update: the next round launches from the aligned return.
    for (std::size_t i = 0; i < n; ++i) z[i] = phi[i];
  }
  if (!converged) return res;

  // Family direction for the stability measurement.  chi ~ 0 means the
  // cycle is genuinely isolated (no family); any deflated direction is a
  // fair probe then — convergence of r -> 0 already certified every
  // nontrivial mode, so the measurement only feeds the reported magnitude.
  // Deterministic fallback: the coordinate least aligned with the flow.
  ScratchVec vprop(ws, n);
  if (chi > 1e-12 * state_scale) {
    vprop.get() = svec.get();
    scale_inplace(vprop.get(), 1.0 / chi);
  } else {
    std::size_t min_c = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (std::fabs(uflow[i]) < std::fabs(uflow[min_c])) min_c = i;
    }
    vprop.get().assign(n, 0.0);
    vprop[min_c] = 1.0;
    const double vu = dot(vprop, uflow);
    axpy(vprop.get(), -vu, uflow.get());
    const double vn = norm2(vprop);
    if (vn > 1e-12) scale_inplace(vprop.get(), 1.0 / vn);
  }

  // Variational propagation of that one direction: the step observer
  // advances vprop <- M_step vprop across every ACCEPTED integrator step of
  // the averaging pass, leaving vprop = M * vslow with M = d(Phi_T)/dy0,
  // at ~one extra plain flight's cost.  The step map is the L-stable
  // 2nd-order SDIRK2 stability function (gamma = 1 - 1/sqrt(2)) applied to
  // J frozen at the step-midpoint state:
  //   v <- (I - gamma h J)^{-2} (I + (1 - 2 gamma) h J) v.
  // Both choices are forced by what the multiplier is compared against.
  // Kinetic cycles sit close to their Hopf shell, with the family
  // multiplier within ~1e-2 of unity.  First-order implicit Euler damps
  // the oscillatory modes by (omega h)^2 / 2 per step, which compounds to
  // a few percent over a period (measured: h_avg ~ 0.07, ~460 steps, ~4%
  // drift), while SDIRK2's |R(i theta)| = 1 - O(theta^4) and the
  // midpoint-J evaluation keep the total well under the gap.  L-stability
  // matters at the other end: stiff modes (z -> -inf) must be annihilated
  // like the true propagator e^{h lambda}, which rules out trapezoidal
  // updates (|R(inf)| = 1 keeps them alive forever).
  constexpr double kSdirkGamma = 0.29289321881345247559915563789515;
  ScratchMat jstep(ws, n, n), astep(ws, n, n);
  ScratchVec col(ws, n), colx(ws, n), y_prev(ws, n), y_mid(ws, n);
  ScratchLu step_lu(ws);
  bool variational_ok = true;
  const auto variational_fn = [&](double t, double h,
                                  std::span<const double> y) {
    if (!variational_ok) return;
    for (std::size_t i = 0; i < n; ++i) y_mid[i] = 0.5 * (y_prev[i] + y[i]);
    std::fill(jstep.get().data().begin(), jstep.get().data().end(), 0.0);
    opts.ode.jacobian(t - 0.5 * h, y_mid.get(), jstep.get());
    y_prev.get().assign(y.begin(), y.end());
    const double gh = kSdirkGamma * h;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        astep(r, c) = (r == c ? 1.0 : 0.0) - gh * jstep(r, c);
      }
    }
    if (!step_lu.get().factor(astep.get())) {
      variational_ok = false;
      return;
    }
    // w = (I - gamma h J)^{-2} v;  v = w + (1 - 2 gamma) h J w.
    step_lu.get().solve_into(vprop.get(), col.get());
    step_lu.get().solve_into(col.get(), colx.get());
    const double bh = (1.0 - 2.0 * kSdirkGamma) * h;
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += jstep(r, k) * colx[k];
      vprop[r] = colx[r] + bh * acc;
    }
  };
  const OdeStepObserver variational_observer = variational_fn;

  // Converged: one full-period pass producing the time-weighted average,
  // the per-component amplitude, and a re-measured return residual — the
  // "never silently wrong" leg — with the variational update riding along.
  res.cycle_state.assign(z.get().begin(), z.get().end());
  res.period = period;

  const std::size_t samples = std::max<std::size_t>(opts.average_samples, 8);
  const double dt = period / static_cast<double>(samples);
  ScratchVec y_cur(ws, n), y_min(ws, n), y_max(ws, n), avg(ws, n);
  y_cur.get() = res.cycle_state;
  y_min.get() = y_cur.get();
  y_max.get() = y_cur.get();
  avg.get().assign(n, 0.0);
  double avg_obs = 0.0;
  OdeOptions leg = opts.ode;
  y_prev.get() = res.cycle_state;
  leg.step_observer = variational_observer;
  for (std::size_t s = 0; s < samples; ++s) {
    // Uniform left-Riemann sum over a periodic orbit — exact to the same
    // order as the trajectory itself.
    add_inplace(avg.get(), y_cur.get());
    if (observable) avg_obs += observable(y_cur.get());
    OdeResult r = integrate(f, 0.0, y_cur.get(), dt, leg);
    res.rhs_evals += r.rhs_evals;
    if (!r.success || !all_finite(r.y)) return res;
    if (r.last_step > 0.0) leg.initial_step = r.last_step;
    y_cur.get() = r.y;
    for (std::size_t i = 0; i < n; ++i) {
      y_min[i] = std::min(y_min[i], y_cur[i]);
      y_max[i] = std::max(y_max[i], y_cur[i]);
    }
  }
  scale_inplace(avg.get(), 1.0 / static_cast<double>(samples));
  res.average_state = avg.get();
  res.average_observable =
      observable ? avg_obs / static_cast<double>(samples) : 0.0;
  double amp = 0.0;
  for (std::size_t i = 0; i < n; ++i) amp = std::max(amp, y_max[i] - y_min[i]);
  res.amplitude = amp;
  res.residual = dist_inf(y_cur.get(), res.cycle_state);
  if (amp < opts.min_amplitude) return res;  // a fixed point, not a cycle
  // The snapshot legitimately fails to close by the budgeted per-period
  // drift (one more period migrates the family by ~the accepted chi again),
  // so the recheck allows 2x the budget; an isolated cycle must close to a
  // small multiple of the tolerance.
  const double residual_bound =
      std::max(4.0 * opts.tolerance, 2.0 * opts.drift_tolerance) * state_scale;
  if (res.residual > residual_bound) return res;

  // The pass propagated vprop = M * vslow for a unit vslow: its norm,
  // deflated along the flow direction (whose multiplier is trivially 1), IS
  // the family multiplier estimate.  The fast modes carry no risk here: the
  // Picard rounds only converged because they contract.
  if (!variational_ok) return res;  // LU failed mid-pass: no verdict
  ScratchVec u(ws, n);
  u.get().assign(n, 0.0);
  f(0.0, res.cycle_state, u.get());
  ++res.rhs_evals;
  const double un = norm2(u);
  if (un > 1e-12) scale_inplace(u.get(), 1.0 / un);
  const double vu = dot(vprop, u);
  axpy(vprop.get(), -vu, u.get());
  res.floquet_magnitude = norm2(vprop);
  res.stable = res.floquet_magnitude <= opts.max_floquet_magnitude;
  // An unstable orbit never matches the flow.
  res.converged = res.stable;
  return res;
}

PeriodEstimate estimate_period(OdeRhs f, std::span<const double> y0,
                               double horizon, double dt_sample,
                               const OdeOptions& ode_opts) {
  PeriodEstimate est;
  const std::size_t n = y0.size();
  if (!(dt_sample > 0.0) || !(horizon > 2.0 * dt_sample)) return est;
  Workspace& ws = ode_opts.workspace ? *ode_opts.workspace
                                     : Workspace::thread_local_instance();
  const std::size_t samples = std::min<std::size_t>(
      static_cast<std::size_t>(horizon / dt_sample), 4096);

  ScratchMat traj(ws, samples + 1, n);
  ScratchVec y_cur(ws, n);
  y_cur.get().assign(y0.begin(), y0.end());
  std::copy(y_cur.get().begin(), y_cur.get().end(), traj.get().row(0).begin());
  OdeOptions leg = ode_opts;
  for (std::size_t s = 1; s <= samples; ++s) {
    OdeResult r = integrate(f, 0.0, y_cur.get(), dt_sample, leg);
    est.rhs_evals += r.rhs_evals;
    if (!r.success || !all_finite(r.y)) return est;
    if (r.last_step > 0.0) leg.initial_step = r.last_step;
    y_cur.get() = r.y;
    std::copy(y_cur.get().begin(), y_cur.get().end(),
              traj.get().row(s).begin());
  }

  const std::size_t rhs_evals = est.rhs_evals;
  est = period_from_samples(traj.get(), dt_sample);
  est.rhs_evals = rhs_evals;
  return est;
}

MeanCrossings count_mean_crossings(const Matrix& traj, double dt_sample) {
  MeanCrossings mc;
  const std::size_t rows = traj.rows();
  if (rows < 2) return mc;

  // The most-oscillatory coordinate carries the cleanest crossings.
  const double inv_rows = 1.0 / static_cast<double>(rows);
  double best_var = -1.0;
  double level = 0.0;
  for (std::size_t c = 0; c < traj.cols(); ++c) {
    double mean = 0.0;
    for (std::size_t s = 0; s < rows; ++s) mean += traj(s, c);
    mean *= inv_rows;
    double var = 0.0;
    for (std::size_t s = 0; s < rows; ++s) {
      const double d = traj(s, c) - mean;
      var += d * d;
    }
    if (var > best_var) {
      best_var = var;
      mc.coordinate = c;
      level = mean;
    }
  }
  if (best_var / static_cast<double>(rows) < 1e-12) return mc;

  // Upward mean-crossings, linearly interpolated between samples.
  for (std::size_t s = 0; s + 1 < rows && mc.count < mc.times.size(); ++s) {
    const double a = traj(s, mc.coordinate);
    const double b = traj(s + 1, mc.coordinate);
    if (a < level && b >= level) {
      const double frac = (level - a) / (b - a);
      mc.times[mc.count++] = (static_cast<double>(s) + frac) * dt_sample;
      mc.last_row = s + 1;
    }
  }
  return mc;
}

PeriodEstimate period_from_samples(const Matrix& traj, double dt_sample) {
  PeriodEstimate est;
  const MeanCrossings mc = count_mean_crossings(traj, dt_sample);
  if (mc.count < 3) return est;

  // Period = mean spacing of the last few crossings; reject drifting
  // (non-periodic) spacings.
  const std::size_t use = std::min<std::size_t>(mc.count - 1, 5);
  double mean_gap = 0.0;
  for (std::size_t i = mc.count - use; i < mc.count; ++i) {
    mean_gap += mc.times[i] - mc.times[i - 1];
  }
  mean_gap /= static_cast<double>(use);
  if (!(mean_gap > 0.0)) return est;
  for (std::size_t i = mc.count - use; i < mc.count; ++i) {
    const double gap = mc.times[i] - mc.times[i - 1];
    if (std::fabs(gap - mean_gap) > 0.25 * mean_gap) return est;
  }

  est.valid = true;
  est.period = mean_gap;
  est.anchor_state.assign(traj.row(mc.last_row).begin(),
                          traj.row(mc.last_row).end());
  return est;
}

TrajectorySampler::TrajectorySampler(OdeRhs f, Workspace& ws, double t0,
                                     std::span<const double> y0, double dt,
                                     std::size_t rows)
    : f_(f), t0_(t0), dt_(dt), t_prev_(t0), samples_(ws, rows, y0.size()),
      y_prev_(ws, y0.size()), f_prev_(ws, y0.size()), f_new_(ws, y0.size()) {
  y_prev_.get().assign(y0.begin(), y0.end());
  f_prev_.get().assign(y0.size(), 0.0);
  f_(t0, y0, f_prev_.get());
  if (rows > 0) {
    std::copy(y0.begin(), y0.end(), samples_.get().row(0).begin());
    filled_ = 1;
  }
}

void TrajectorySampler::operator()(double t, double, std::span<const double> y) {
  const std::size_t n = y.size();
  if (complete()) return;
  f_new_.get().assign(n, 0.0);
  f_(t, y, f_new_.get());
  // Cubic Hermite on [t_prev, t] through both endpoint states and slopes.
  const double h = t - t_prev_;
  while (filled_ < samples_.get().rows()) {
    const double ts = t0_ + static_cast<double>(filled_) * dt_;
    if (ts > t) break;
    const double th = (ts - t_prev_) / h;
    const double th2 = th * th;
    const double th3 = th2 * th;
    const double h00 = 2.0 * th3 - 3.0 * th2 + 1.0;
    const double h10 = (th3 - 2.0 * th2 + th) * h;
    const double h01 = -2.0 * th3 + 3.0 * th2;
    const double h11 = (th3 - th2) * h;
    const std::span<double> row = samples_.get().row(filled_);
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = h00 * y_prev_[i] + h10 * f_prev_[i] + h01 * y[i] + h11 * f_new_[i];
    }
    ++filled_;
  }
  t_prev_ = t;
  y_prev_.get().assign(y.begin(), y.end());
  std::swap(f_prev_.get(), f_new_.get());
}

}  // namespace rmp::num
