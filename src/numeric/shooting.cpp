#include "numeric/shooting.hpp"

#include <algorithm>
#include <cmath>

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

/// Forward-difference Jacobian df/dy at (t, y) into jac (pre-sized n x n);
/// costs n + 1 RHS evaluations.  Used by the variational propagator when the
/// caller supplies no analytic Jacobian.
void fd_jacobian(OdeRhs f, double t, std::span<const double> y, double eps0,
                 Workspace& ws, Matrix& jac, std::size_t& rhs_evals) {
  const std::size_t n = y.size();
  ScratchVec base(ws, n), pert(ws, n), ypert(ws, n);
  base.get().assign(n, 0.0);
  f(t, y, base.get());
  ypert.get().assign(y.begin(), y.end());
  for (std::size_t j = 0; j < n; ++j) {
    const double eps = eps0 * std::max(1.0, std::fabs(y[j]));
    const double saved = ypert[j];
    ypert[j] = saved + eps;
    pert.get().assign(n, 0.0);
    f(t, ypert.get(), pert.get());
    ypert[j] = saved;
    const double inv = 1.0 / eps;
    for (std::size_t i = 0; i < n; ++i) {
      jac(i, j) = (pert[i] - base[i]) * inv;
    }
  }
  rhs_evals += n + 1;
}

}  // namespace

ShootingResult solve_limit_cycle(OdeRhs f, std::span<const double> y0_guess,
                                 double period_guess,
                                 const ShootingOptions& opts,
                                 CycleObservable observable) {
  ShootingResult res;
  const std::size_t n = y0_guess.size();
  const std::size_t m = n + 1;  // unknowns: (y0, T)
  Workspace& ws = opts.workspace ? *opts.workspace
                                 : Workspace::thread_local_instance();

  if (!(period_guess > opts.min_period) || !(period_guess < opts.max_period)) {
    return res;
  }

  // Phase condition: the flow direction at the guess pins the phase —
  // dot(f(y_ref), y0 - y_ref) = 0 keeps y0 on the hyperplane through the
  // guess orthogonal to the local flow.  A vanishing flow direction means
  // the guess sits at a fixed point: no cycle to shoot for.
  ScratchVec fref(ws, n), yref(ws, n);
  yref.get().assign(y0_guess.begin(), y0_guess.end());
  fref.get().assign(n, 0.0);
  f(0.0, y0_guess, fref.get());
  ++res.rhs_evals;
  const double fref_norm = norm2(fref);
  if (!(fref_norm > 1e-12) || !all_finite(fref)) return res;
  scale_inplace(fref.get(), 1.0 / fref_norm);

  ScratchVec z(ws, m), z_trial(ws, m), g(ws, m), g_trial(ws, m), dz(ws, m),
      dg(ws, m), phi(ws, n), fphi(ws, n), step(ws, m);
  ScratchMat jac(ws, m, m);
  ScratchLu lu(ws);

  // Variational (monodromy) propagation.  The period-map Jacobian is
  // d(Phi_T)/dy0 = M(T), the solution of M' = J(y(t)) M with M(0) = I; the
  // step observer advances it across every ACCEPTED integrator step with
  // the L-stable 2nd-order SDIRK2 stability function (gamma = 1 - 1/sqrt(2))
  // applied to J frozen at the step-midpoint state:
  //   M <- (I - gamma h J)^{-2} (I + (1 - 2 gamma) h J) M.
  // Both choices are forced by where this matrix is consumed.  Kinetic
  // cycles sit close to their Hopf shell: the dominant Floquet multiplier
  // can be within ~1e-2 of unity, so (M - I) is near-singular and Newton
  // needs the near-unit multiplier to ~1e-3.  First-order implicit Euler
  // fails that bar — its per-step damping (omega h)^2 / 2 of the oscillatory
  // modes compounds to a few percent over a period (measured: h_avg ~ 0.07,
  // ~460 steps, ~4% drift), while SDIRK2's |R(i theta)| = 1 - O(theta^4)
  // and the midpoint-J evaluation keep the total well under the gap.
  // L-stability matters at the other end: stiff modes (z -> -inf) must be
  // annihilated like the true propagator e^{h lambda}, which rules out
  // trapezoidal updates (|R(inf)| = 1 keeps them alive forever).  A Broyden
  // seed of -I for the state block — or a finite-difference M, whose noise
  // the same near-singularity amplifies — stalls the iteration this exact
  // propagation converges.
  constexpr double kSdirkGamma = 0.29289321881345247559915563789515;
  ScratchMat mono(ws, n, n), jstep(ws, n, n), astep(ws, n, n), nmat(ws, n, n);
  ScratchVec col(ws, n), colx(ws, n), y_prev(ws, n), y_mid(ws, n);
  ScratchLu mono_lu(ws);
  bool mono_ok = true;

  const auto reset_monodromy = [&](std::span<const double> y_start) {
    std::fill(mono.get().data().begin(), mono.get().data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) mono(i, i) = 1.0;
    y_prev.get().assign(y_start.begin(), y_start.end());
    mono_ok = true;
  };

  // Shared per-step prelude for both propagators: midpoint Jacobian into
  // jstep, (I - gamma h J) factored into mono_lu.
  const auto begin_step = [&](double t, double h,
                              std::span<const double> y) -> bool {
    for (std::size_t i = 0; i < n; ++i) y_mid[i] = 0.5 * (y_prev[i] + y[i]);
    if (opts.ode.jacobian) {
      std::fill(jstep.get().data().begin(), jstep.get().data().end(), 0.0);
      opts.ode.jacobian(t - 0.5 * h, y_mid.get(), jstep.get());
    } else {
      fd_jacobian(f, t - 0.5 * h, y_mid.get(), opts.fd_eps, ws, jstep.get(),
                  res.rhs_evals);
    }
    y_prev.get().assign(y.begin(), y.end());
    const double gh = kSdirkGamma * h;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        astep(r, c) = (r == c ? 1.0 : 0.0) - gh * jstep(r, c);
      }
    }
    return mono_lu.get().factor(astep.get());
  };

  const auto mono_observer_fn = [&](double t, double h,
                                    std::span<const double> y) {
    if (!mono_ok) return;
    if (!begin_step(t, h, y)) {
      mono_ok = false;
      return;
    }
    // N = (I - gamma h J)^{-2} M, column by column.
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < n; ++r) col[r] = mono(r, c);
      mono_lu.get().solve_into(col.get(), colx.get());
      mono_lu.get().solve_into(colx.get(), col.get());
      for (std::size_t r = 0; r < n; ++r) nmat(r, c) = col[r];
    }
    // M = N + (1 - 2 gamma) h J N.
    const double bh = (1.0 - 2.0 * kSdirkGamma) * h;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += jstep(r, k) * nmat(k, c);
        mono(r, c) = nmat(r, c) + bh * acc;
      }
    }
  };
  const OdeStepObserver mono_observer = mono_observer_fn;

  // Single-vector variational propagation: the same SDIRK2 update applied
  // to one direction, leaving vprop = M * vprop_initial after the flight.
  // The drift-tolerant mode lives on this: it needs only the slow family
  // direction and its multiplier, and one column costs ~an extra plain
  // integrator step instead of the full matrix's n solves + n^3 product —
  // the difference between the shooting path beating the windowed average
  // and losing to it.
  ScratchVec vprop(ws, n);
  const auto vec_observer_fn = [&](double t, double h,
                                   std::span<const double> y) {
    if (!mono_ok) return;
    if (!begin_step(t, h, y)) {
      mono_ok = false;
      return;
    }
    // w = (I - gamma h J)^{-2} v;  v = w + (1 - 2 gamma) h J w.
    mono_lu.get().solve_into(vprop.get(), col.get());
    mono_lu.get().solve_into(col.get(), colx.get());
    const double bh = (1.0 - 2.0 * kSdirkGamma) * h;
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += jstep(r, k) * colx[k];
      vprop[r] = colx[r] + bh * acc;
    }
  };
  const OdeStepObserver vec_observer = vec_observer_fn;

  std::copy(y0_guess.begin(), y0_guess.end(), z.get().begin());
  z[n] = period_guess;

  // G(z) = [Phi_T(y0) - y0; phase(y0)].  with_monodromy additionally resets
  // M = I and rides the flight with the variational propagator, leaving M =
  // d(Phi_T)/dy0 at zz — the price is one Jacobian eval + LU + n back-solves
  // per accepted step, so the plain variant serves the line search.
  const auto eval_g = [&](const Vec& zz, Vec& gg, bool with_monodromy) -> bool {
    const std::span<const double> y(zz.data(), n);
    if (!(zz[n] > opts.min_period) || !(zz[n] < opts.max_period)) return false;
    OdeOptions ode = opts.ode;
    if (with_monodromy) {
      reset_monodromy(y);
      ode.step_observer = mono_observer;
    }
    if (!flow_map(f, y, zz[n], ode, phi.get(), res.rhs_evals)) return false;
    if (with_monodromy && !mono_ok) return false;
    for (std::size_t i = 0; i < n; ++i) gg[i] = phi[i] - zz[i];
    double phase = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      phase += fref[i] * (zz[i] - yref[i]);
    }
    gg[n] = phase;
    return all_finite(gg);
  };

  // Exact bordered Newton matrix from the freshly propagated monodromy:
  //   J = [[M - I, f(Phi)], [f_ref^T, 0]].
  // dG/dT is the flow at the period endpoint; the phase row is exact.
  const auto build_jacobian = [&]() {
    fphi.get().assign(n, 0.0);
    f(0.0, phi.get(), fphi.get());
    ++res.rhs_evals;
    std::fill(jac.get().data().begin(), jac.get().data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        jac(i, j) = mono(i, j) - (i == j ? 1.0 : 0.0);
      }
      jac(i, n) = fphi[i];
      jac(n, i) = fref[i];
    }
  };

  const double state_scale =
      std::max(1.0, norm_inf(std::span<const double>(z.get().data(), n)));

  // Drift mode's slow-family direction, handed to the averaging pass for
  // the single-vector stability measurement.
  ScratchVec vslow(ws, n);
  bool have_vslow = false;

  if (opts.drift_tolerance > 0.0) {
    // Drift-tolerant aligned-Picard mode (see header): systems whose
    // oscillation is a slowly migrating FAMILY of pseudo-cycles have no
    // isolated root for Newton to find — Phi_T(y) - y keeps an irreducible
    // component along the family direction, and the bordered Newton above
    // amplifies it by 1 / (1 - mu) with mu near 1, exploding the step.
    // Each round flies ONE period with no variational ride-along (this is
    // what prices a round at a single plain flight), phase-aligns the
    // return p to the launch point (tau = <f(p), y - p> / <f(p), f(p)>,
    // the least-squares time shift, absorbed into the period), and deflates
    // the aligned residual r = p_aligned - y along the flow direction.
    // The split into family drift and fast remainder needs no monodromy:
    // the fast Floquet modes contract every round while the family
    // component chi = ||deflate(r)|| cannot, so once two consecutive
    // deflated residuals agree to tolerance the residual IS the family
    // drift — converged when that agreement holds and chi fits the
    // drift_tolerance budget.  The accepted snapshot is the aligned return
    // itself, with the per-period drift reported honestly.  Stability is
    // certified in two parts: the fast modes by convergence itself (an
    // unstable fast mode would have grown the round-to-round difference),
    // the family multiplier by the averaging pass below, which propagates
    // the converged direction through the variational update.
    ScratchVec rvec(ws, n), svec(ws, n), sprev(ws, n), uflow(ws, n);
    bool have_prev = false;
    bool drift_converged = false;
    double chi = 0.0;
    while (res.iterations < opts.max_iterations) {
      const std::span<const double> y(z.get().data(), n);
      if (!flow_map(f, y, z[n], opts.ode, phi.get(), res.rhs_evals)) {
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
      const double tau_cap = 0.15 * z[n];
      const bool tau_trusted = std::fabs(tau) <= tau_cap;
      tau = std::clamp(tau, -tau_cap, tau_cap);
      const double t_new = z[n] + tau;
      if (!(t_new > opts.min_period) || !(t_new < opts.max_period)) {
        return res;
      }
      z[n] = t_new;
      for (std::size_t i = 0; i < n; ++i) {
        phi[i] += tau * fphi[i];  // phase-aligned return
        rvec[i] = phi[i] - z[i];  // aligned residual
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
      svec.get() = rvec.get();
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
          drift_converged = true;
          break;
        }
      }
      sprev.get() = svec.get();
      have_prev = true;
      // Picard update: the next round launches from the aligned return.
      for (std::size_t i = 0; i < n; ++i) z[i] = phi[i];
    }
    if (!drift_converged) return res;
    // Family direction for the stability measurement.  chi ~ 0 means the
    // cycle is genuinely isolated (no family); any deflated direction is a
    // fair probe then — convergence of r -> 0 already certified every
    // nontrivial mode, so the measurement only feeds the reported
    // magnitude.  Deterministic fallback: the coordinate least aligned
    // with the flow.
    if (chi > 1e-12 * state_scale) {
      vslow.get() = svec.get();
      scale_inplace(vslow.get(), 1.0 / chi);
    } else {
      std::size_t min_c = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (std::fabs(uflow[i]) < std::fabs(uflow[min_c])) min_c = i;
      }
      vslow.get().assign(n, 0.0);
      vslow[min_c] = 1.0;
      const double vu = dot(vslow, uflow);
      axpy(vslow.get(), -vu, uflow.get());
      const double vn = norm2(vslow);
      if (vn > 1e-12) scale_inplace(vslow.get(), 1.0 / vn);
    }
    have_vslow = true;
  } else {
    if (!eval_g(z.get(), g.get(), /*with_monodromy=*/true)) return res;
    double g_norm = norm_inf(g);
    build_jacobian();
    bool jac_fresh = true;
    std::size_t mono_builds = 1;
    // Broyden rank-1 updates carry the matrix between full rebuilds; a few
    // monodromy flights bound the worst case without giving up on
    // curvature.
    constexpr std::size_t kMaxMonodromyBuilds = 3;

    // One fresh monodromy flight at the current iterate: recomputes G (the
    // flight is also the function evaluation) and rebuilds the Newton
    // matrix.
    const auto rebuild = [&]() -> bool {
      if (mono_builds >= kMaxMonodromyBuilds) return false;
      if (!eval_g(z.get(), g.get(), /*with_monodromy=*/true)) return false;
      g_norm = norm_inf(g);
      build_jacobian();
      jac_fresh = true;
      ++mono_builds;
      return true;
    };

    while (res.iterations < opts.max_iterations) {
      if (g_norm <= opts.tolerance * state_scale) break;
      if (!lu.get().factor(jac.get())) {
        if (jac_fresh || !rebuild()) return res;
        continue;
      }
      lu.get().solve_into(g, step.get());
      if (!all_finite(step)) return res;

      bool accepted = false;
      for (double damping = 1.0; damping >= 1.0 / 64.0; damping *= 0.5) {
        z_trial.get() = z.get();
        axpy(z_trial.get(), -damping, step.get());
        if (!eval_g(z_trial.get(), g_trial.get(), /*with_monodromy=*/false)) {
          continue;
        }
        const double trial_norm = norm_inf(g_trial);
        if (trial_norm < g_norm) {
          accepted = true;
          break;
        }
      }
      if (!accepted) {
        // Stale Broyden matrix — one fresh monodromy retry; a fresh matrix
        // that cannot descend is a clean give-up: not shooting-solvable.
        if (jac_fresh || !rebuild()) return res;
        continue;
      }

      // Broyden rank-1 update: J += (dG - J dz) dz^T / (dz . dz).
      for (std::size_t i = 0; i < m; ++i) {
        dz[i] = z_trial[i] - z[i];
        dg[i] = g_trial[i] - g[i];
      }
      const double dz2 = dot(dz, dz);
      if (dz2 > 1e-300) {
        for (std::size_t r = 0; r < m; ++r) {
          double jdz = 0.0;
          for (std::size_t c = 0; c < m; ++c) jdz += jac(r, c) * dz[c];
          const double coeff = (dg[r] - jdz) / dz2;
          if (coeff != 0.0) {
            for (std::size_t c = 0; c < m; ++c) jac(r, c) += coeff * dz[c];
          }
        }
        jac_fresh = false;
      }

      z.get() = z_trial.get();
      g.get() = g_trial.get();
      g_norm = norm_inf(g);
      ++res.iterations;
    }

    if (!(g_norm <= opts.tolerance * state_scale)) return res;
  }

  // Converged: one full-period pass producing the time-weighted average,
  // the per-component amplitude, and a re-measured return residual — the
  // "never silently wrong" leg.  The variational propagator rides along, so
  // the pass also leaves the converged cycle's monodromy matrix in `mono`
  // for the stability check below — no extra flights.
  const double period = z[n];
  res.cycle_state.assign(z.get().begin(), z.get().begin() + n);
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
  reset_monodromy(res.cycle_state);
  if (opts.floquet_iterations > 0) {
    if (have_vslow) {
      // Drift mode: propagate just the converged family direction — the
      // pass leaves vprop = M * vslow at the cost of ~one extra plain
      // flight, against the full matrix's n back-solves plus an n^3
      // product per step.
      vprop.get() = vslow.get();
      leg.step_observer = vec_observer;
    } else {
      leg.step_observer = mono_observer;
    }
  }
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
  // Strict mode: a converged cycle must close to a small multiple of the
  // Newton tolerance.  Drift mode: the snapshot legitimately fails to close
  // by the budgeted per-period drift (one more period migrates the family
  // by ~the accepted |chi| again), so the recheck allows 2x the budget.
  const double residual_bound =
      std::max(4.0 * opts.tolerance, 2.0 * opts.drift_tolerance) * state_scale;
  if (res.residual > residual_bound) return res;

  // Monodromy stability estimate: in-memory power iteration on the M the
  // averaging pass just propagated, deflated along the flow direction (its
  // Floquet multiplier is exactly 1 and would otherwise dominate).  Each
  // iteration is a 24x24-class matrix-vector product — no integrations.
  res.stable = true;
  if (opts.floquet_iterations > 0) {
    if (!mono_ok) return res;  // variational LU failed mid-pass: no verdict
    ScratchVec u(ws, n), v(ws, n), w(ws, n);
    u.get().assign(n, 0.0);
    f(0.0, res.cycle_state, u.get());
    ++res.rhs_evals;
    const double un = norm2(u);
    if (un > 1e-12) scale_inplace(u.get(), 1.0 / un);
    if (have_vslow) {
      // The pass propagated vprop = M * vslow for a unit vslow: its
      // deflated norm IS the family multiplier estimate — no power
      // iteration, no full matrix.  The fast modes carry no risk here:
      // the Picard rounds only converged because they contract.
      v.get() = vprop.get();
      const double vu = dot(v, u);
      axpy(v.get(), -vu, u.get());
      res.floquet_magnitude = norm2(v);
      res.stable = res.floquet_magnitude <= opts.max_floquet_magnitude;
      if (!res.stable) return res;  // family mode past the budgeted growth
      res.converged = true;
      return res;
    }
    // Deterministic start: the coordinate with the largest amplitude,
    // deflated against the flow direction.
    std::size_t max_c = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (y_max[i] - y_min[i] > y_max[max_c] - y_min[max_c]) max_c = i;
    }
    v.get().assign(n, 0.0);
    v[max_c] = 1.0;
    const double vu = dot(v, u);
    axpy(v.get(), -vu, u.get());
    double vn = norm2(v);
    if (vn < 1e-8) {
      v.get().assign(n, 1.0 / std::sqrt(static_cast<double>(n)));
      const double vu2 = dot(v, u);
      axpy(v.get(), -vu2, u.get());
      vn = norm2(v);
    }
    if (vn > 1e-12) {
      scale_inplace(v.get(), 1.0 / vn);
      double magnitude = 0.0;
      for (std::size_t it = 0; it < opts.floquet_iterations; ++it) {
        for (std::size_t r = 0; r < n; ++r) {
          double acc = 0.0;
          for (std::size_t c = 0; c < n; ++c) acc += mono(r, c) * v[c];
          w[r] = acc;
        }
        const double wu = dot(w, u);
        axpy(w.get(), -wu, u.get());
        magnitude = norm2(w);
        if (magnitude < 1e-14) break;
        v.get() = w.get();
        scale_inplace(v.get(), 1.0 / magnitude);
      }
      res.floquet_magnitude = magnitude;
      res.stable = magnitude <= opts.max_floquet_magnitude;
    }
  }
  if (!res.stable) return res;  // an unstable orbit never matches the flow

  res.converged = true;
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
