#include "numeric/ode.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "numeric/workspace.hpp"

namespace rmp::num {

namespace {

void apply_floor(Vec& y, double floor) {
  if (floor <= -1e299) return;
  for (double& v : y) v = std::max(v, floor);
}

/// Weighted RMS error norm used for adaptive step-size control.
double error_norm(std::span<const double> err, std::span<const double> y0,
                  std::span<const double> y1, double abs_tol, double rel_tol) {
  double acc = 0.0;
  for (std::size_t i = 0; i < err.size(); ++i) {
    const double scale =
        abs_tol + rel_tol * std::max(std::fabs(y0[i]), std::fabs(y1[i]));
    const double e = err[i] / scale;
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(err.size()));
}

/// Generic embedded explicit Runge-Kutta stepper driven by a Butcher tableau.
/// Stage slopes live in a workspace Matrix (row s = k_s) — no per-step
/// allocation.
class EmbeddedRk {
 public:
  EmbeddedRk(std::size_t stages, const double* a, const double* b_high,
             const double* b_low, const double* c, std::size_t order_low)
      : stages_(stages), a_(a), b_high_(b_high), b_low_(b_low), c_(c),
        order_low_(order_low) {}

  [[nodiscard]] std::size_t stages() const { return stages_; }
  [[nodiscard]] std::size_t order_low() const { return order_low_; }

  /// One trial step from (t, y) with size h; fills y_new and err.  Stage
  /// slopes land in k (row s = k_s); y_stage and k_stage are scratch.
  void trial(OdeRhs f, double t, const Vec& y, double h, Vec& y_new, Vec& err,
             Matrix& k, Vec& y_stage, Vec& k_stage, OdeResult& stats) const {
    const std::size_t n = y.size();

    for (std::size_t s = 0; s < stages_; ++s) {
      y_stage = y;
      for (std::size_t j = 0; j < s; ++j) {
        const double aij = a_[s * stages_ + j];
        if (aij != 0.0) axpy(y_stage, h * aij, k.row(j));
      }
      // The RHS contract wants a Vec&, so the slope lands in k_stage and is
      // copied into the matrix row (cheap next to the RHS evaluation).
      k_stage.assign(n, 0.0);
      f(t + c_[s] * h, y_stage, k_stage);
      std::copy(k_stage.begin(), k_stage.end(), k.row(s).begin());
      ++stats.rhs_evals;
    }

    y_new = y;
    err.assign(n, 0.0);
    for (std::size_t s = 0; s < stages_; ++s) {
      if (b_high_[s] != 0.0) axpy(y_new, h * b_high_[s], k.row(s));
      const double db = b_high_[s] - b_low_[s];
      if (db != 0.0) axpy(err, h * db, k.row(s));
    }
  }

 private:
  std::size_t stages_;
  const double* a_;
  const double* b_high_;
  const double* b_low_;
  const double* c_;
  std::size_t order_low_;
};

// --- Dormand-Prince 5(4) tableau ---------------------------------------------
constexpr double kDpA[7 * 7] = {
    0, 0, 0, 0, 0, 0, 0,
    1.0 / 5, 0, 0, 0, 0, 0, 0,
    3.0 / 40, 9.0 / 40, 0, 0, 0, 0, 0,
    44.0 / 45, -56.0 / 15, 32.0 / 9, 0, 0, 0, 0,
    19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729, 0, 0, 0,
    9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656, 0, 0,
    35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0};
constexpr double kDpB5[7] = {35.0 / 384, 0, 500.0 / 1113, 125.0 / 192,
                             -2187.0 / 6784, 11.0 / 84, 0};
constexpr double kDpB4[7] = {5179.0 / 57600,    0,          7571.0 / 16695, 393.0 / 640,
                             -92097.0 / 339200, 187.0 / 2100, 1.0 / 40};
constexpr double kDpC[7] = {0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0};

OdeResult integrate_adaptive(const EmbeddedRk& rk, OdeRhs f, double t0,
                             std::span<const double> y0, double t_end,
                             const OdeOptions& opts, Workspace& ws) {
  OdeResult res;
  res.y.assign(y0.begin(), y0.end());
  res.t = t0;
  const std::size_t n = res.y.size();

  ScratchVec y_new(ws, n), err(ws, n), y_stage(ws, n), k_stage(ws, n);
  ScratchMat k(ws, rk.stages(), n);
  double h = std::clamp(opts.initial_step, opts.min_step, opts.max_step);
  const double order = static_cast<double>(rk.order_low()) + 1.0;
  const double exponent = 1.0 / order;

  while (res.t < t_end && res.steps < opts.max_steps) {
    res.last_step = h;  // the controller's h, before end-of-interval truncation
    h = std::min(h, t_end - res.t);
    rk.trial(f, res.t, res.y, h, y_new.get(), err.get(), k.get(), y_stage.get(),
             k_stage.get(), res);
    const double en =
        error_norm(err, res.y, y_new, opts.abs_tol, opts.rel_tol);
    const bool finite = all_finite(y_new);

    if (en <= 1.0 && finite) {
      res.t += h;
      res.y = y_new.get();
      apply_floor(res.y, opts.state_floor);
      ++res.steps;
      if (opts.step_observer) opts.step_observer(res.t, h, res.y);
      const double factor =
          en > 0.0 ? std::clamp(0.9 * std::pow(en, -exponent), 0.2, 5.0) : 5.0;
      h = std::clamp(h * factor, opts.min_step, opts.max_step);
    } else {
      ++res.rejected;
      const double factor =
          finite && en > 0.0 ? std::clamp(0.9 * std::pow(en, -exponent), 0.1, 0.9) : 0.1;
      h *= factor;
      if (h < opts.min_step) {
        res.success = false;
        return res;  // step size underflow: stiff beyond this method
      }
    }
  }
  res.success = res.t >= t_end;
  return res;
}

// W = I - gamma h J for one ROS2 step of size h (Verwer's 2-stage, order-2,
// L-stable Rosenbrock), factored into lu.  Returns false when W is singular.
bool ros2_factor(const Matrix& j, double h, Matrix& w, LuFactorization& lu) {
  const std::size_t n = j.rows();
  const double gamma = 1.0 - 1.0 / std::sqrt(2.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      w(r, c) = (r == c ? 1.0 : 0.0) - gamma * h * j(r, c);
  return lu.factor(w);
}

// One ROS2 step from (t, y) with step h, given W(h) factored in lu and the
// stage-1 slope f0 = f(t, y).
void ros2_step(OdeRhs f, double t, const Vec& y, const Vec& f0, double h,
               const LuFactorization& lu, Vec& y_new, Workspace& ws,
               OdeResult& stats) {
  const std::size_t n = y.size();
  ScratchVec k1(ws, n), y1(ws, n), f1(ws, n), rhs2(ws, n), k2(ws, n);
  lu.solve_into(f0, k1.get());

  y1.get() = y;
  axpy(y1.get(), h, k1);
  f1.get().assign(n, 0.0);
  f(t + h, y1, f1.get());
  ++stats.rhs_evals;
  for (std::size_t i = 0; i < n; ++i) rhs2[i] = f1[i] - 2.0 * k1[i];
  lu.solve_into(rhs2, k2.get());

  y_new = y;
  for (std::size_t i = 0; i < n; ++i) y_new[i] += h * (1.5 * k1[i] + 0.5 * k2[i]);
}

/// Builds the augmented-system Jacobian (df/dy block; appended time state
/// contributes a zero row/column under an analytic Jacobian, the FD path
/// picks up df/dt for forced problems) into `j`.
void rosenbrock_jacobian(OdeRhs f, OdeJacobian user_jac, double t,
                         const Vec& y_aug, std::size_t n_user, Workspace& ws,
                         Matrix& j, OdeResult& res) {
  if (user_jac) {
    ScratchMat ju(ws, n_user, n_user);
    user_jac(y_aug[n_user], std::span<const double>(y_aug).first(n_user),
             ju.get());
    std::fill(j.data().begin(), j.data().end(), 0.0);
    for (std::size_t r = 0; r < n_user; ++r) {
      for (std::size_t c = 0; c < n_user; ++c) j(r, c) = ju(r, c);
    }
  } else {
    fd_jacobian(f, t, y_aug, 1e-7, ws, j, res.rhs_evals);
  }
}

// Rosenbrock-W driver with step-doubling (Richardson) error control: the
// naive embedded order-1 estimate of ROS2 is wildly pessimistic on stiff
// components, so each step is compared against two half steps instead.
//
// ROS2's order-2 accuracy requires an autonomous system; time is therefore
// appended as an extra state (Y = [y; t], dt/dt = 1), which also makes the
// numeric Jacobian pick up the df/dt column for forced problems.
OdeResult integrate_rosenbrock(OdeRhs f_user, double t0,
                               std::span<const double> y0, double t_end,
                               const OdeOptions& opts, Workspace& ws) {
  const std::size_t n_user = y0.size();
  ScratchVec inner_d(ws, n_user);
  auto augmented = [&f_user, n_user, &inner_d](
                       double, std::span<const double> y, Vec& d) {
    // The last state is time itself.
    inner_d.get().assign(n_user, 0.0);
    f_user(y[n_user], y.first(n_user), inner_d.get());
    for (std::size_t i = 0; i < n_user; ++i) d[i] = inner_d[i];
    d[n_user] = 1.0;
  };
  const OdeRhs f = augmented;

  OdeResult res;
  res.y.assign(y0.begin(), y0.end());
  res.y.push_back(t0);
  res.t = t0;
  const std::size_t n = res.y.size();

  ScratchVec y_full(ws, n), y_half(ws, n), y_two(ws, n), err(ws, n), f0(ws, n),
      f_mid(ws, n);
  ScratchMat j(ws, n, n), w(ws, n, n);
  ScratchLu lu_full(ws), lu_half(ws);
  double h = std::clamp(opts.initial_step, opts.min_step, opts.max_step);

  while (res.t < t_end && res.steps < opts.max_steps) {
    res.last_step = h;  // the controller's h, before end-of-interval truncation
    h = std::min(h, t_end - res.t);

    rosenbrock_jacobian(f, opts.jacobian, res.t, res.y, n_user, ws, j.get(),
                        res);

    // One trial = a full step and two half steps, all on the Jacobian at
    // (t, y).  Both half steps use the same W(h/2), and the full step and
    // the first half step the same stage-1 slope f(t, y), so each is
    // computed once: two factorizations and five RHS evaluations per trial.
    bool ok = ros2_factor(j.get(), h, w.get(), lu_full.get());
    if (ok) {
      f0.get().assign(n, 0.0);
      f(res.t, res.y, f0.get());
      ++res.rhs_evals;
      ros2_step(f, res.t, res.y, f0.get(), h, lu_full.get(), y_full.get(), ws,
                res);
      ok = ros2_factor(j.get(), 0.5 * h, w.get(), lu_half.get());
    }
    if (ok) {
      ros2_step(f, res.t, res.y, f0.get(), 0.5 * h, lu_half.get(), y_half.get(),
                ws, res);
      f_mid.get().assign(n, 0.0);
      f(res.t + 0.5 * h, y_half, f_mid.get());
      ++res.rhs_evals;
      ros2_step(f, res.t + 0.5 * h, y_half.get(), f_mid.get(), 0.5 * h,
                lu_half.get(), y_two.get(), ws, res);
    }
    if (!ok) {
      h *= 0.5;
      ++res.rejected;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
      continue;
    }

    // Richardson: for an order-2 method the half-step solution's error is
    // ~(y_two - y_full) / 3; local extrapolation gives one extra order.
    for (std::size_t i = 0; i < n; ++i) err[i] = (y_two[i] - y_full[i]) / 3.0;
    const double en = error_norm(err, res.y, y_two, opts.abs_tol, opts.rel_tol);

    if (en <= 1.0 && all_finite(y_two)) {
      res.t += h;
      res.y = y_two.get();
      add_inplace(res.y, err);  // local extrapolation
      if (opts.state_floor > -1e299) {
        for (std::size_t i = 0; i < n_user; ++i) {
          res.y[i] = std::max(res.y[i], opts.state_floor);
        }
      }
      res.y[n_user] = res.t;  // keep the time state exact
      ++res.steps;
      if (opts.step_observer) {
        opts.step_observer(res.t, h,
                           std::span<const double>(res.y.data(), n_user));
      }
      const double factor =
          en > 0.0 ? std::clamp(0.9 * std::pow(en, -1.0 / 3.0), 0.2, 5.0) : 5.0;
      h = std::clamp(h * factor, opts.min_step, opts.max_step);
    } else {
      ++res.rejected;
      h *= 0.5;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
    }
  }
  res.success = res.t >= t_end;
  res.y.pop_back();  // strip the internal time state
  return res;
}

// --- ROS3: 3-stage, order 3(2), L-stable Rosenbrock (Sandu et al., the KPP
// coefficient set).  Two RHS evaluations and one LU factorization per step:
// a31 = a21 and a32 = 0 make the second and third stage share one F
// evaluation, and the embedded second-order solution reuses the stage
// slopes, so error control costs nothing extra (unlike the ROS2 driver's
// step-doubling, which integrates every interval three times and factors
// twice).  This is the limit-cycle integration path: cycle averaging
// integrates long horizons at moderate tolerance, exactly where an embedded
// order-3 estimate beats an order-2 Richardson loop.
constexpr double kRos3Gamma = 0.43586652150845899941601945119356;
constexpr double kRos3A21 = 1.0;
constexpr double kRos3C21 = -1.0156171083877702091975600115545;
constexpr double kRos3C31 = 4.0759956452537699824805835358067;
constexpr double kRos3C32 = 9.2076794298330791242156818474003;
constexpr double kRos3M1 = 1.0;
constexpr double kRos3M2 = 6.1697947043828245592553615689730;
constexpr double kRos3M3 = -0.42772256543218573326238373806514;
constexpr double kRos3E1 = 0.5;
constexpr double kRos3E2 = -2.9079558716805469821718236208017;
constexpr double kRos3E3 = 0.22354069897811569627360909276199;

OdeResult integrate_rosenbrock3(OdeRhs f_user, double t0,
                                std::span<const double> y0, double t_end,
                                const OdeOptions& opts, Workspace& ws) {
  const std::size_t n_user = y0.size();
  ScratchVec inner_d(ws, n_user);
  auto augmented = [&f_user, n_user, &inner_d](
                       double, std::span<const double> y, Vec& d) {
    inner_d.get().assign(n_user, 0.0);
    f_user(y[n_user], y.first(n_user), inner_d.get());
    for (std::size_t i = 0; i < n_user; ++i) d[i] = inner_d[i];
    d[n_user] = 1.0;
  };
  const OdeRhs f = augmented;

  OdeResult res;
  res.y.assign(y0.begin(), y0.end());
  res.y.push_back(t0);
  res.t = t0;
  const std::size_t n = res.y.size();

  ScratchVec f0(ws, n), f1(ws, n), rhs(ws, n), y_stage(ws, n), y_new(ws, n),
      err(ws, n), k1(ws, n), k2(ws, n), k3(ws, n);
  ScratchMat j(ws, n, n), w(ws, n, n);
  ScratchLu lu(ws);
  double h = std::clamp(opts.initial_step, opts.min_step, opts.max_step);
  bool j_current = false;  // J is a function of y only; reuse across retries

  while (res.t < t_end && res.steps < opts.max_steps) {
    res.last_step = h;  // the controller's h, before end-of-interval truncation
    h = std::min(h, t_end - res.t);

    if (!j_current) {
      rosenbrock_jacobian(f, opts.jacobian, res.t, res.y, n_user, ws, j.get(),
                          res);
      f0.get().assign(n, 0.0);
      f(res.t, res.y, f0.get());
      ++res.rhs_evals;
      j_current = true;
    }

    // W = I/(h*gamma) - J (the KPP scaling: stage slopes carry units of y).
    const double diag = 1.0 / (h * kRos3Gamma);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) w(r, c) = -j.get()(r, c);
      w(r, r) += diag;
    }
    if (!lu.get().factor(w.get())) {
      ++res.rejected;
      h *= 0.5;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
      continue;
    }

    // Stage 1: W k1 = F(Y).
    lu.get().solve_into(f0, k1.get());
    // Stage 2: Y2 = Y + a21 k1; W k2 = F(Y2) + (c21/h) k1.
    y_stage.get() = res.y;
    axpy(y_stage.get(), kRos3A21, k1);
    f1.get().assign(n, 0.0);
    f(res.t, y_stage, f1.get());
    ++res.rhs_evals;
    const double c21_h = kRos3C21 / h;
    for (std::size_t i = 0; i < n; ++i) rhs[i] = f1[i] + c21_h * k1[i];
    lu.get().solve_into(rhs, k2.get());
    // Stage 3: Y3 = Y2 (a31 = a21, a32 = 0) — F(Y3) = F(Y2), no new eval.
    const double c31_h = kRos3C31 / h;
    const double c32_h = kRos3C32 / h;
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = f1[i] + c31_h * k1[i] + c32_h * k2[i];
    }
    lu.get().solve_into(rhs, k3.get());

    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
      y_new[i] = res.y[i] + kRos3M1 * k1[i] + kRos3M2 * k2[i] + kRos3M3 * k3[i];
      err[i] = kRos3E1 * k1[i] + kRos3E2 * k2[i] + kRos3E3 * k3[i];
      finite = finite && std::isfinite(y_new[i]);
    }
    const double en = error_norm(err, res.y, y_new, opts.abs_tol, opts.rel_tol);

    if (en <= 1.0 && finite) {
      res.t += h;
      res.y = y_new.get();
      if (opts.state_floor > -1e299) {
        for (std::size_t i = 0; i < n_user; ++i) {
          res.y[i] = std::max(res.y[i], opts.state_floor);
        }
      }
      res.y[n_user] = res.t;  // keep the time state exact
      ++res.steps;
      if (opts.step_observer) {
        opts.step_observer(res.t, h,
                           std::span<const double>(res.y.data(), n_user));
      }
      j_current = false;
      const double factor =
          en > 0.0 ? std::clamp(0.9 * std::pow(en, -1.0 / 3.0), 0.2, 5.0) : 5.0;
      h = std::clamp(h * factor, opts.min_step, opts.max_step);
    } else {
      ++res.rejected;
      const double factor =
          finite && en > 0.0
              ? std::clamp(0.9 * std::pow(en, -1.0 / 3.0), 0.1, 0.9)
              : 0.1;
      h *= factor;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
    }
  }
  res.success = res.t >= t_end;
  res.y.pop_back();  // strip the internal time state
  return res;
}

}  // namespace

OdeResult integrate(const OdeRhs& f, double t0, std::span<const double> y0, double t_end,
                    const OdeOptions& opts) {
  assert(t_end >= t0);
  Workspace& ws =
      opts.workspace ? *opts.workspace : Workspace::thread_local_instance();
  switch (opts.method) {
    case OdeMethod::kDormandPrince54: {
      const EmbeddedRk rk(7, kDpA, kDpB5, kDpB4, kDpC, 4);
      return integrate_adaptive(rk, f, t0, y0, t_end, opts, ws);
    }
    case OdeMethod::kRosenbrockW:
      return integrate_rosenbrock(f, t0, y0, t_end, opts, ws);
    case OdeMethod::kRosenbrock3:
      return integrate_rosenbrock3(f, t0, y0, t_end, opts, ws);
  }
  return {};
}

void fd_jacobian(OdeRhs f, double t, std::span<const double> y, double eps,
                 Workspace& ws, Matrix& j, std::size_t& rhs_evals) {
  const std::size_t n = y.size();
  ScratchVec base(ws, n), pert(ws, n), yp(ws, n);
  yp.get().assign(y.begin(), y.end());
  base.get().assign(n, 0.0);
  f(t, y, base.get());
  ++rhs_evals;
  for (std::size_t c = 0; c < n; ++c) {
    const double h = eps * std::max(1.0, std::fabs(y[c]));
    const double saved = yp[c];
    yp[c] = saved + h;
    pert.get().assign(n, 0.0);
    f(t, yp, pert.get());
    ++rhs_evals;
    yp[c] = saved;
    const double inv_h = 1.0 / h;
    for (std::size_t r = 0; r < n; ++r) j(r, c) = (pert[r] - base[r]) * inv_h;
  }
}

}  // namespace rmp::num
