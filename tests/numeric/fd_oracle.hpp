// Forward-difference Jacobians: the test oracle for the solvers' analytic
// Jacobian contract.  The library's Newton, PTC, Rosenbrock and shooting
// solvers take dF/dx only in closed form; a test that needs a Jacobian it
// has no formula for (or wants the classic finite-difference method as a
// reference) passes one of these instead.  Each counts its own RHS probes,
// which the solvers' rhs_evaluations / rhs_evals do not see.
//
// Column c is (F(x + h e_c) - F(x)) / h with h = kFdStep * max(1, |x_c|);
// every Jacobian build costs n + 1 probes (the base point plus one per
// column).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "numeric/matrix.hpp"
#include "numeric/newton.hpp"
#include "numeric/ode.hpp"
#include "numeric/vec.hpp"

namespace rmp::num::reference {

/// Relative column step of the forward differences.
inline constexpr double kFdStep = 1e-7;

/// Fills `j` with the forward-difference Jacobian of `eval` at x and
/// returns the number of `eval` calls (n + 1).
template <class Eval>
std::size_t forward_difference(const Eval& eval, std::span<const double> x,
                               Matrix& j) {
  const std::size_t n = x.size();
  Vec base(n, 0.0), pert(n), xp(x.begin(), x.end());
  eval(x, base);
  for (std::size_t c = 0; c < n; ++c) {
    const double h = kFdStep * std::max(1.0, std::fabs(x[c]));
    const double saved = xp[c];
    xp[c] = saved + h;
    pert.assign(n, 0.0);
    eval(xp, pert);
    xp[c] = saved;
    const double inv_h = 1.0 / h;
    for (std::size_t r = 0; r < n; ++r) j(r, c) = (pert[r] - base[r]) * inv_h;
  }
  return n + 1;
}

/// A JacobianFn for NewtonOptions/PtcOptions::jacobian.  Non-owning like
/// the solver callbacks: `f` must outlive this object, and this object the
/// solves it is handed to.
class FdJacobian {
 public:
  explicit FdJacobian(NonlinearSystem f) : f_(f) {}

  void operator()(std::span<const double> x, Matrix& j) {
    probes_ += forward_difference(f_, x, j);
  }

  /// RHS evaluations spent on Jacobian builds so far.
  [[nodiscard]] std::size_t probes() const { return probes_; }

 private:
  NonlinearSystem f_;
  std::size_t probes_ = 0;
};

/// An OdeJacobian for OdeOptions::jacobian: df/dy at fixed t.  Same
/// lifetime contract as FdJacobian.
class FdOdeJacobian {
 public:
  explicit FdOdeJacobian(OdeRhs f) : f_(f) {}

  void operator()(double t, std::span<const double> y, Matrix& j) {
    const auto at_t = [this, t](std::span<const double> x, Vec& d) {
      f_(t, x, d);
    };
    probes_ += forward_difference(at_t, y, j);
  }

  [[nodiscard]] std::size_t probes() const { return probes_; }

 private:
  OdeRhs f_;
  std::size_t probes_ = 0;
};

}  // namespace rmp::num::reference
