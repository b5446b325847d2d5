#include "numeric/newton.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/workspace.hpp"

namespace rmp::num {

namespace {

/// Newton's smallest backtracking factor tried.
constexpr double kMinDamping = 1.0 / 1024;
/// Chord-Newton refresh triggers: a stale factorization is refreshed when
/// the accepted step left ||F_new|| > kChordStallRatio * ||F_old||
/// (residual reduction stalled), or when backtracking had to damp below
/// kChordRefreshDamping to find descent (the chord direction is no longer
/// trustworthy).
constexpr double kChordStallRatio = 0.5;
constexpr double kChordRefreshDamping = 0.25;
/// PTC's cap on the SER pseudo-timestep.
constexpr double kMaxTimestep = 1e9;
/// Band (as a ratio >= 1) PTC's SER timestep may drift from the factored h
/// before W = I/h - J must be rebuilt.
constexpr double kChordHBand = 4.0;

/// Builds dF/dx at x into `j` through the analytic callback.
void build_jacobian(JacobianFn jac_fn, std::span<const double> x, Matrix& j) {
  std::fill(j.data().begin(), j.data().end(), 0.0);
  jac_fn(x, j);
}

void floor_state(Vec& x, double floor) {
  if (floor <= -1e299) return;
  for (double& v : x) v = std::max(v, floor);
}

}  // namespace

NewtonResult solve_newton(const NonlinearSystem& f, std::span<const double> x0,
                          const NewtonOptions& opts) {
  if (!opts.jacobian) {
    throw std::invalid_argument("solve_newton: NewtonOptions::jacobian is null");
  }
  NewtonResult res;
  res.x.assign(x0.begin(), x0.end());
  floor_state(res.x, opts.state_floor);
  const std::size_t n = res.x.size();
  const std::size_t max_age = std::max<std::size_t>(opts.chord_max_age, 1);
  Workspace& ws =
      opts.workspace ? *opts.workspace : Workspace::thread_local_instance();

  ScratchVec fx(ws, n), trial(ws, n), ftrial(ws, n), step(ws, n);
  ScratchMat j(ws, n, n);
  ScratchLu lu_slot(ws);
  fx.get().assign(n, 0.0);
  f(res.x, fx.get());
  ++res.rhs_evaluations;
  res.residual_norm = norm_inf(fx);

  // Chord state: the current LU, how many iterations it has served, and
  // whether the last accepted step flagged it stale.  A failed STALE step is
  // re-done with a fresh factorization without consuming iteration budget —
  // it is the same iteration, retried — so chord mode never rejects (or
  // times out on) a problem classic Newton would solve; the extra work is
  // bounded by one uncounted retry per counted iteration.
  bool have_lu = false;
  // The factorization in use: `lu_slot` once anything was built, else the
  // caller's warm seed (borrowed, never copied).  The seed counts as stale
  // (fresh stays false on its passes), so the chord discard bar guards it
  // and one refresh falls back to a built Jacobian.
  const LuFactorization* seed =
      (opts.warm_lu != nullptr && max_age > 1 && opts.warm_lu->size() == n)
          ? opts.warm_lu
          : nullptr;
  std::size_t lu_age = 0;
  bool refresh = seed == nullptr;

  while (res.iterations < opts.max_iterations) {
    if (res.residual_norm <= opts.tolerance) {
      res.converged = true;
      return res;
    }
    const bool fresh =
        refresh || (!have_lu && seed == nullptr) || lu_age >= max_age;
    if (fresh) {
      build_jacobian(opts.jacobian, res.x, j.get());
      ++res.jacobian_factorizations;
      have_lu = lu_slot.get().factor(j.get());
      if (!have_lu) return res;  // singular Jacobian: give up, caller falls back
      seed = nullptr;
      lu_age = 0;
      refresh = false;
    }
    const LuFactorization& active = have_lu ? lu_slot.get() : *seed;
    active.solve_into(fx, step.get());
    if (!all_finite(step)) {
      if (!fresh) {
        refresh = true;  // stale direction blew up — retry with a fresh J
        continue;
      }
      return res;
    }

    // Backtracking: find the largest damping that reduces ||F||.
    bool found = false;
    double found_damping = 1.0;
    double found_norm = 0.0;
    const double previous_norm = res.residual_norm;
    for (double damping = 1.0; damping >= kMinDamping; damping *= 0.5) {
      trial.get() = res.x;
      axpy(trial.get(), -damping, step.get());
      floor_state(trial.get(), opts.state_floor);
      ftrial.get().assign(n, 0.0);
      f(trial, ftrial.get());
      ++res.rhs_evaluations;
      if (!all_finite(ftrial)) continue;
      const double norm = norm_inf(ftrial);
      if (norm < res.residual_norm) {
        found = true;
        found_damping = damping;
        found_norm = norm;
        break;
      }
    }
    if (!found) {
      if (!fresh) {
        refresh = true;  // non-descending chord direction: free fresh retry
        continue;
      }
      return res;  // stuck in a non-descending region even with a fresh J
    }
    // A STALE direction must clear a higher bar than "any descent": weak
    // chord steps are DISCARDED before they move x — the iterate sequence
    // then never leaves the region classic Newton would traverse, which is
    // what keeps chord mode's convergence set equal to classic Newton's
    // (a weakly-descending chord trajectory can wander into basins where
    // even a fresh Jacobian stalls).
    if (!fresh && (found_damping < kChordRefreshDamping ||
                   found_norm > kChordStallRatio * previous_norm)) {
      refresh = true;
      continue;
    }
    res.x = trial.get();
    fx.get() = ftrial.get();
    res.residual_norm = found_norm;
    ++res.iterations;
    ++lu_age;
    // Fresh steps keep classic acceptance; they only schedule a refresh
    // when progress was marginal (pointless to chord off a bad linearization).
    if (found_damping < kChordRefreshDamping ||
        found_norm > kChordStallRatio * previous_norm) {
      refresh = true;
    }
  }
  res.converged = res.residual_norm <= opts.tolerance;
  return res;
}

NewtonResult solve_pseudo_transient(const NonlinearSystem& f,
                                    std::span<const double> x0,
                                    const PtcOptions& opts) {
  if (!opts.jacobian) {
    throw std::invalid_argument(
        "solve_pseudo_transient: PtcOptions::jacobian is null");
  }
  NewtonResult res;
  res.x.assign(x0.begin(), x0.end());
  floor_state(res.x, opts.state_floor);
  const std::size_t n = res.x.size();
  const std::size_t max_age = std::max<std::size_t>(opts.chord_max_age, 1);
  Workspace& ws =
      opts.workspace ? *opts.workspace : Workspace::thread_local_instance();

  ScratchVec fx(ws, n), trial(ws, n), ftrial(ws, n), step(ws, n), best_x(ws, n);
  ScratchMat w(ws, n, n);
  ScratchLu lu_slot(ws);
  fx.get().assign(n, 0.0);
  f(res.x, fx.get());
  ++res.rhs_evaluations;
  res.residual_norm = norm_inf(fx);
  const double initial_norm = std::max(res.residual_norm, 1e-300);
  double h = opts.initial_timestep;

  // The flow x' = F(x) may orbit its equilibrium (kinetic oscillations), so
  // the residual is NOT required to fall monotonically: every finite step is
  // accepted and h follows the switched-evolution-relaxation rule
  // h_k = h_0 * ||F_0|| / ||F_k||.  The best iterate seen is what's returned.
  best_x.get() = res.x;
  double best_norm = res.residual_norm;
  double current_norm = res.residual_norm;

  // Chord state: W = I/h_factored - J stays factored across steps while the
  // residual keeps falling and the SER timestep stays inside the band.  As
  // in solve_newton, a failed STALE step is re-done fresh without consuming
  // iteration budget.
  bool have_lu = false;
  double h_factored = h;
  std::size_t lu_age = 0;
  bool refresh = true;

  while (res.iterations < opts.max_iterations) {
    if (best_norm <= opts.tolerance) break;

    const bool in_band =
        h >= h_factored / kChordHBand && h <= h_factored * kChordHBand;
    const bool fresh = refresh || !have_lu || lu_age >= max_age || !in_band;
    if (fresh) {
      // W = I/h - J; the step solves W dx = F (implicit Euler for x' = F).
      build_jacobian(opts.jacobian, res.x, w.get());
      const double inv_h = 1.0 / h;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) w(r, c) = -w(r, c);
        w(r, r) += inv_h;
      }
      ++res.jacobian_factorizations;
      have_lu = lu_slot.get().factor(w.get());
      h_factored = h;
      lu_age = 0;
      refresh = false;
    }
    bool ok = have_lu;
    if (ok) {
      lu_slot.get().solve_into(fx, step.get());
      ok = all_finite(step);
      if (ok) {
        trial.get() = res.x;
        add_inplace(trial.get(), step.get());
        floor_state(trial.get(), opts.state_floor);
        ftrial.get().assign(n, 0.0);
        f(trial, ftrial.get());
        ++res.rhs_evaluations;
        ok = all_finite(ftrial);
      }
    }
    if (!ok) {
      if (!fresh) {
        refresh = true;  // stale W produced garbage — free rebuild at the same h
        continue;
      }
      have_lu = false;
      h *= 0.25;
      ++res.iterations;  // fresh-step failures consume budget, as classic PTC
      if (h < 1e-14) break;
      continue;
    }

    const double previous_norm = current_norm;
    res.x = trial.get();
    fx.get() = ftrial.get();
    current_norm = norm_inf(fx);
    ++res.iterations;
    ++lu_age;
    // A rising residual under a stale W is indistinguishable from a genuine
    // kinetic orbit; resolving it with a fresh factorization keeps the
    // non-monotone acceptance rule honest.
    if (!fresh && current_norm > previous_norm) refresh = true;
    if (current_norm < best_norm) {
      best_norm = current_norm;
      best_x.get() = res.x;
    }
    h = std::clamp(opts.initial_timestep * initial_norm /
                       std::max(current_norm, 1e-300),
                   1e-12, kMaxTimestep);
  }

  res.x = best_x.get();
  res.residual_norm = best_norm;
  res.converged = best_norm <= opts.tolerance;
  return res;
}

}  // namespace rmp::num
