#include "numeric/simplex.hpp"

#include <gtest/gtest.h>

#include "numeric/rng.hpp"

namespace rmp::num {
namespace {

LpProblem make_problem(std::size_t rows, std::size_t cols) {
  LpProblem p;
  p.constraint_matrix = Matrix(rows, cols);
  p.rhs.assign(rows, 0.0);
  p.objective.assign(cols, 0.0);
  p.lower.assign(cols, 0.0);
  p.upper.assign(cols, kLpInfinity);
  return p;
}

TEST(SimplexTest, SingleVariableBound) {
  // max x s.t. x = x (no constraint rows), 0 <= x <= 7.
  LpProblem p = make_problem(0, 1);
  p.objective[0] = 1.0;
  p.upper[0] = 7.0;
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 7.0, 1e-9);
}

TEST(SimplexTest, SimpleEqualitySystem) {
  // max x0 + x1 s.t. x0 + x1 = 10, x0 <= 4 -> optimum 10 with x0 = 4, x1 = 6.
  LpProblem p = make_problem(1, 2);
  p.constraint_matrix(0, 0) = 1.0;
  p.constraint_matrix(0, 1) = 1.0;
  p.rhs[0] = 10.0;
  p.objective = {2.0, 1.0};
  p.upper = {4.0, kLpInfinity};
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0, 1e-8);
  EXPECT_NEAR(s.objective_value, 14.0, 1e-8);
}

TEST(SimplexTest, DetectsInfeasible) {
  // x0 + x1 = -5 with x >= 0 is infeasible.
  LpProblem p = make_problem(1, 2);
  p.constraint_matrix(0, 0) = 1.0;
  p.constraint_matrix(0, 1) = 1.0;
  p.rhs[0] = -5.0;
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  // max x0 with x0 - x1 = 0 and both unbounded above.
  LpProblem p = make_problem(1, 2);
  p.constraint_matrix(0, 0) = 1.0;
  p.constraint_matrix(0, 1) = -1.0;
  p.objective[0] = 1.0;
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // max x0 + x1, x0 + x1 = 1, -5 <= x0 <= 0, x1 free-ish.
  LpProblem p = make_problem(1, 2);
  p.constraint_matrix(0, 0) = 1.0;
  p.constraint_matrix(0, 1) = 1.0;
  p.rhs[0] = 1.0;
  p.objective = {1.0, -1.0};  // prefer mass on x0
  p.lower = {-5.0, -10.0};
  p.upper = {0.0, 20.0};
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 0.0, 1e-8);
  EXPECT_NEAR(s.x[1], 1.0, 1e-8);
}

TEST(SimplexTest, FreeVariables) {
  // max -x1 with x0 + x1 = 3, x0 totally free -> x1 at its lower bound.
  LpProblem p = make_problem(1, 2);
  p.constraint_matrix(0, 0) = 1.0;
  p.constraint_matrix(0, 1) = 1.0;
  p.rhs[0] = 3.0;
  p.objective = {0.0, -1.0};
  p.lower = {-kLpInfinity, -2.0};
  p.upper = {kLpInfinity, 5.0};
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[1], -2.0, 1e-8);
  EXPECT_NEAR(s.x[0], 5.0, 1e-8);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple constraints meeting at a degenerate vertex.
  LpProblem p = make_problem(3, 3);
  // x0 + x1 = 1; x0 + x2 = 1; x1 - x2 = 0.
  p.constraint_matrix(0, 0) = 1;
  p.constraint_matrix(0, 1) = 1;
  p.constraint_matrix(1, 0) = 1;
  p.constraint_matrix(1, 2) = 1;
  p.constraint_matrix(2, 1) = 1;
  p.constraint_matrix(2, 2) = -1;
  p.rhs = {1.0, 1.0, 0.0};
  p.objective = {1.0, 0.0, 0.0};
  p.upper = {10.0, 10.0, 10.0};
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 1.0, 1e-8);
}

TEST(SimplexTest, SolutionSatisfiesConstraints) {
  Rng rng(99);
  // Random feasible-by-construction problems: x_feas random in box, rhs = A x_feas.
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m = 3 + rng.uniform_index(5);
    const std::size_t n = m + 2 + rng.uniform_index(6);
    LpProblem p = make_problem(m, n);
    Vec x_feas(n);
    for (std::size_t j = 0; j < n; ++j) {
      p.lower[j] = -2.0;
      p.upper[j] = 5.0;
      x_feas[j] = rng.uniform(-2.0, 5.0);
      p.objective[j] = rng.normal();
    }
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        p.constraint_matrix(i, j) = rng.uniform(-1.0, 1.0);
    p.rhs = p.constraint_matrix.multiply(x_feas);

    const LpSolution s = solve_lp(p);
    ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial;
    // Constraints hold.
    const Vec ax = p.constraint_matrix.multiply(s.x);
    for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(ax[i], p.rhs[i], 1e-6);
    // Bounds hold.
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(s.x[j], p.lower[j] - 1e-7);
      EXPECT_LE(s.x[j], p.upper[j] + 1e-7);
    }
    // Optimal is at least as good as the feasible construction point.
    EXPECT_GE(s.objective_value, dot(p.objective, x_feas) - 1e-6);
  }
}

TEST(SimplexTest, FixedVariableHandled) {
  // A variable with lower == upper (like the paper's ATP maintenance flux).
  LpProblem p = make_problem(1, 2);
  p.constraint_matrix(0, 0) = 1.0;
  p.constraint_matrix(0, 1) = -1.0;
  p.rhs[0] = 0.0;
  p.objective = {1.0, 0.0};
  p.lower = {0.0, 0.45};
  p.upper = {10.0, 0.45};
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 0.45, 1e-8);
  EXPECT_NEAR(s.x[1], 0.45, 1e-8);
}

TEST(SimplexTest, MediumScaleDiet) {
  // A chain topology resembling a linear pathway: maximize terminal flux.
  const std::size_t n = 40;
  LpProblem p = make_problem(n - 1, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    p.constraint_matrix(i, i) = 1.0;
    p.constraint_matrix(i, i + 1) = -1.0;
  }
  p.objective[n - 1] = 1.0;
  for (std::size_t j = 0; j < n; ++j) p.upper[j] = 100.0;
  p.upper[n / 2] = 3.5;  // a bottleneck in the middle
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 3.5, 1e-8);
}

TEST(SimplexTest, SingularRefactorizationWaitsAFullInterval) {
  // One row, columns 1e-8, 1e-16, 1e-24: each pivot's |w| is 1e-8, well
  // above kLpPivotTol, but the basis [1e-16] reached after pivot 2 is below
  // the refactorization's singularity threshold.  The refactor keeps the
  // product-form inverse and must wait a full interval before trying again,
  // so pivot 3 (x2 -> x3) triggers no second attempt.
  LpProblem p = make_problem(1, 3);
  p.constraint_matrix(0, 0) = 1e-8;
  p.constraint_matrix(0, 1) = 1e-16;
  p.constraint_matrix(0, 2) = 1e-24;
  p.rhs[0] = 1e-8;
  p.objective = {1.0, 10.0, 1.0};
  LpOptions opts;
  opts.refactor_interval = 2;
  const LpSolution s = solve_lp(p, opts);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.iterations, 5u);  // 1 pivot + check, then 2 pivots + check
  EXPECT_EQ(s.refactorizations, 1u);
  EXPECT_EQ(s.x[0], 0.0);
  EXPECT_EQ(s.x[1], 0.0);
  EXPECT_NEAR(s.x[2], 1e16, 1e6);
}

}  // namespace
}  // namespace rmp::num
