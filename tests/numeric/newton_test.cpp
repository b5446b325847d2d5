#include "numeric/newton.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "numeric/fd_oracle.hpp"

namespace rmp::num {
namespace {

/// solve_newton on the forward-difference oracle's Jacobian: the classic
/// method, for problems whose assertions do not depend on where dF/dx
/// comes from.
NewtonResult solve_newton_fd(const NonlinearSystem& f, std::span<const double> x0,
                             NewtonOptions opts = {}) {
  reference::FdJacobian fd(f);
  opts.jacobian = fd;
  return solve_newton(f, x0, opts);
}

TEST(NewtonTest, ScalarRoot) {
  // F(x) = x^2 - 4: root at 2 from positive start.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] - 4.0;
  };
  const NewtonResult r = solve_newton_fd(f, Vec{5.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
}

TEST(NewtonTest, TwoDimensionalSystem) {
  // x^2 + y^2 = 5, x*y = 2  ->  (x, y) = (2, 1) near the start (2.5, 0.5).
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
    out[1] = x[0] * x[1] - 2.0;
  };
  const NewtonResult r = solve_newton_fd(f, Vec{2.5, 0.5});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 1.0, 1e-7);
}

TEST(NewtonTest, LinearSystemOneIteration) {
  // F(x) = A x - b converges in a single Newton step.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = 2.0 * x[0] + x[1] - 3.0;
    out[1] = x[0] - x[1];
  };
  const NewtonResult r = solve_newton_fd(f, Vec{10.0, -10.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
  EXPECT_LE(r.iterations, 3u);
}

TEST(NewtonTest, DampingRescuesOvershoot) {
  // F(x) = atan(x): full Newton steps diverge from |x0| >~ 1.39; the
  // backtracking line search must still converge.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = std::atan(x[0]);
  };
  const NewtonResult r = solve_newton_fd(f, Vec{3.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.0, 1e-8);
}

TEST(NewtonTest, StateFloorKeepsPositive) {
  // Root of x - 2 = 0 with floor 0.5; iterates must never dip below.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = std::log(x[0] / 2.0);  // needs x > 0 to evaluate
  };
  NewtonOptions opts;
  opts.state_floor = 1e-6;
  const NewtonResult r = solve_newton_fd(f, Vec{0.1}, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(NewtonTest, ReportsFailureOnNoRoot) {
  // F(x) = x^2 + 1 has no real root: must not claim convergence.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] + 1.0;
  };
  NewtonOptions opts;
  opts.max_iterations = 30;
  const NewtonResult r = solve_newton_fd(f, Vec{1.0}, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.residual_norm, 0.5);
}

TEST(NewtonTest, AlreadyAtRoot) {
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] - 1.0;
  };
  const NewtonResult r = solve_newton_fd(f, Vec{1.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(NewtonTest, CountsRhsEvaluationsAndFactorizations) {
  // Classic (FD oracle, no chord) bookkeeping: every iteration builds one
  // Jacobian (n + 1 oracle probes, counted by the oracle) and factors it
  // once; every backtrack trial plus the initial residual is a solver RHS
  // evaluation.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
    out[1] = x[0] * x[1] - 2.0;
  };
  reference::FdJacobian fd(f);
  NewtonOptions opts;
  opts.jacobian = fd;
  const NewtonResult r = solve_newton(f, Vec{2.5, 0.5}, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.jacobian_factorizations, r.iterations);
  EXPECT_EQ(fd.probes(), 3 * r.jacobian_factorizations);
  // >= 1 (initial) + per iteration: 2 FD column probes + >= 1 trial.
  EXPECT_GE(r.rhs_evaluations + fd.probes(), 1 + 3 * r.iterations);
  EXPECT_GE(r.rhs_evaluations, 1 + r.iterations);
}

TEST(NewtonTest, AnalyticJacobianSolvesWithoutFdProbes) {
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
    out[1] = x[0] * x[1] - 2.0;
  };
  NewtonOptions opts;
  opts.jacobian = [](std::span<const double> x, Matrix& j) {
    j(0, 0) = 2.0 * x[0];
    j(0, 1) = 2.0 * x[1];
    j(1, 0) = x[1];
    j(1, 1) = x[0];
  };
  const NewtonResult a = solve_newton(f, Vec{2.5, 0.5}, opts);
  ASSERT_TRUE(a.converged);
  EXPECT_NEAR(a.x[0], 2.0, 1e-7);
  EXPECT_NEAR(a.x[1], 1.0, 1e-7);
  // No finite-difference probes: one RHS per backtrack trial plus the
  // initial residual — strictly fewer than the FD oracle's n-per-build.
  reference::FdJacobian oracle(f);
  NewtonOptions fd_opts;
  fd_opts.jacobian = oracle;
  const NewtonResult fd = solve_newton(f, Vec{2.5, 0.5}, fd_opts);
  EXPECT_LT(a.rhs_evaluations, fd.rhs_evaluations + oracle.probes());
  EXPECT_LE(a.rhs_evaluations, 1 + 2 * a.iterations);
}

TEST(NewtonTest, ChordReuseAmortizesFactorizations) {
  // Mildly nonlinear system: stale factorizations keep descending, so chord
  // mode must converge to the same root with fewer factorizations than
  // iterations.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] + 0.1 * x[0] * x[0] - 1.0;
    out[1] = x[1] + 0.1 * x[0] * x[1] - 2.0;
  };
  NewtonOptions classic;
  classic.tolerance = 1e-12;
  NewtonOptions chord = classic;
  chord.chord_max_age = 16;
  const NewtonResult a = solve_newton_fd(f, Vec{3.0, 3.0}, classic);
  const NewtonResult b = solve_newton_fd(f, Vec{3.0, 3.0}, chord);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.x[0], b.x[0], 1e-9);
  EXPECT_NEAR(a.x[1], b.x[1], 1e-9);
  EXPECT_EQ(a.jacobian_factorizations, a.iterations);
  EXPECT_LT(b.jacobian_factorizations, b.iterations);
}

TEST(NewtonTest, ChordRefreshesOnStalledResidual) {
  // x^3 - 1 from x = 3: the Jacobian changes by 9x along the path, so a
  // never-refreshed chord direction would crawl.  The stall/damping
  // heuristics must trigger intermediate refreshes: more than one
  // factorization, yet fewer than one per iteration, and the exact root.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] * x[0] - 1.0;
  };
  NewtonOptions opts;
  opts.chord_max_age = 1000;  // age alone never forces a refresh
  opts.tolerance = 1e-12;
  const NewtonResult r = solve_newton_fd(f, Vec{3.0}, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_GT(r.jacobian_factorizations, 1u);
  EXPECT_LT(r.jacobian_factorizations, r.iterations);
}

TEST(NewtonTest, SingularJacobianGivesUpCleanly) {
  // J = [[2 x0, 0], [2 x0, 0]] is singular everywhere: the solver must
  // report failure without iterating or producing non-finite state.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] - 1.0;
    out[1] = x[0] * x[0] - 1.0;
  };
  const NewtonResult r = solve_newton_fd(f, Vec{3.0, 3.0});
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(all_finite(r.x));
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.jacobian_factorizations, 1u);
}

TEST(NewtonTest, StateFloorInteractsWithBacktrackingUnderChord) {
  // The log system needs x > 0 to evaluate; a full step from 0.1 undershoots
  // and must be floored/backtracked — also under chord reuse, where a stale
  // direction may point below the floor again.
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = std::log(x[0] / 2.0);
  };
  NewtonOptions opts;
  opts.state_floor = 1e-6;
  opts.chord_max_age = 8;
  const NewtonResult r = solve_newton_fd(f, Vec{0.1}, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(PtcTest, StiffTwoDimensionalSystemReachesKnownRoot) {
  // x0' = 1000 (cos(x1) - x0), x1' = x0 - x1: eigenvalue spread ~1000, and
  // the equilibrium is the Dottie fixed point x0 = x1 = cos(x) = 0.739085...
  const double dottie = 0.7390851332151607;
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = 1000.0 * (std::cos(x[1]) - x[0]);
    out[1] = x[0] - x[1];
  };
  reference::FdJacobian oracle(f);
  PtcOptions opts;
  opts.tolerance = 1e-10;
  opts.jacobian = oracle;
  const NewtonResult fd = solve_pseudo_transient(f, Vec{0.0, 0.0}, opts);
  ASSERT_TRUE(fd.converged);
  EXPECT_NEAR(fd.x[0], dottie, 1e-7);
  EXPECT_NEAR(fd.x[1], dottie, 1e-7);

  // Same root through the analytic-Jacobian + chord path, cheaper in RHS.
  PtcOptions fast = opts;
  fast.jacobian = [](std::span<const double> x, Matrix& j) {
    j(0, 0) = -1000.0;
    j(0, 1) = -1000.0 * std::sin(x[1]);
    j(1, 0) = 1.0;
    j(1, 1) = -1.0;
  };
  fast.chord_max_age = 8;
  const NewtonResult an = solve_pseudo_transient(f, Vec{0.0, 0.0}, fast);
  ASSERT_TRUE(an.converged);
  EXPECT_NEAR(an.x[0], dottie, 1e-7);
  EXPECT_NEAR(an.x[1], dottie, 1e-7);
  EXPECT_LT(an.rhs_evaluations, fd.rhs_evaluations + oracle.probes());
}

// The Jacobian is mandatory: a null callback is a caller error, reported
// before any work is done, never a silent switch to finite differences.
TEST(NewtonTest, NullJacobianIsRejected) {
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] - 1.0;
  };
  EXPECT_THROW((void)solve_newton(f, Vec{2.0}, NewtonOptions{}),
               std::invalid_argument);
}

TEST(PtcTest, NullJacobianIsRejected) {
  const NonlinearSystem f = [](std::span<const double> x, Vec& out) {
    out[0] = x[0] - 1.0;
  };
  EXPECT_THROW((void)solve_pseudo_transient(f, Vec{2.0}, PtcOptions{}),
               std::invalid_argument);
}

// Parameterized: roots of x^3 - c for several c, from a far start.
class NewtonCubeRoot : public ::testing::TestWithParam<double> {};

TEST_P(NewtonCubeRoot, Converges) {
  const double c = GetParam();
  // Capturing lambda: must be a named local — NonlinearSystem is a
  // non-owning FunctionRef and would dangle on a temporary.
  const auto cube = [c](std::span<const double> x, Vec& out) {
    out[0] = x[0] * x[0] * x[0] - c;
  };
  const NonlinearSystem f = cube;
  const NewtonResult r = solve_newton_fd(f, Vec{10.0});
  ASSERT_TRUE(r.converged) << "c = " << c;
  EXPECT_NEAR(r.x[0], std::cbrt(c), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Values, NewtonCubeRoot,
                         ::testing::Values(0.001, 0.5, 1.0, 8.0, 1000.0));

}  // namespace
}  // namespace rmp::num
