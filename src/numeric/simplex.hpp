// Linear programming: bounded-variable revised simplex.
//
// Flux Balance Analysis is the LP
//     maximize c^T v   subject to  S v = 0,  lo <= v <= hi
// over a genome-scale stoichiometric matrix S.  This solver implements the
// two-phase primal simplex for exactly that standard form:
//   * general variable bounds (finite or infinite on either side),
//   * phase 1 with one artificial variable per row,
//   * Dantzig pricing with an automatic switch to Bland's rule when cycling
//     is suspected,
//   * dense explicit basis inverse maintained by product-form updates with
//     periodic refactorization for numerical hygiene.
// Genome-scale S is very sparse (Geobacter: 509 x 608, 0.56% nonzero), and
// the two hot kernels exploit exactly that: pricing and the entering column
// walk A's compressed columns, and each refactorization factors the basis
// with a partial-pivot LU that touches only nonzeros (L by column, U by row)
// before building B^{-1} column by column with zero-skipping substitutions.
// Contract: both kernels perform, per element, the floating-point operations
// of their dense counterparts in the same order, minus terms that are an
// exact +-0, so solve_lp's x, objective, status and pivot counts are
// bit-identical to the dense solver kept in tests/ as the oracle.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] std::string to_string(LpStatus s);

struct LpProblem {
  // maximize objective . x  s.t.  constraint_matrix * x = rhs, lower <= x <= upper
  Matrix constraint_matrix;  ///< m x n, dense
  Vec rhs;                   ///< m
  Vec objective;             ///< n
  Vec lower;                 ///< n (may be -kLpInfinity)
  Vec upper;                 ///< n (may be +kLpInfinity)

  [[nodiscard]] std::size_t num_rows() const { return constraint_matrix.rows(); }
  [[nodiscard]] std::size_t num_cols() const { return constraint_matrix.cols(); }

  /// Convenience constructor from a sparse constraint matrix.
  [[nodiscard]] static LpProblem from_sparse(const SparseMatrix& a, Vec rhs, Vec objective,
                                             Vec lower, Vec upper);
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  Vec x;                             ///< primal solution (valid when optimal)
  double objective_value = 0;        ///< c^T x
  std::size_t iterations = 0;        ///< simplex pivots over both phases
  std::size_t refactorizations = 0;  ///< basis refactorizations attempted
};

/// The simplex's tolerances: phase-1 infeasibility (relative to 1 + ||b||_1),
/// reduced-cost pricing, and the ratio test's smallest pivot magnitude.
inline constexpr double kLpFeasibilityTol = 1e-8;
inline constexpr double kLpOptimalityTol = 1e-9;
inline constexpr double kLpPivotTol = 1e-10;

struct LpOptions {
  std::size_t max_iterations = 50'000;
  std::size_t refactor_interval = 120;
};

[[nodiscard]] LpSolution solve_lp(const LpProblem& problem, const LpOptions& opts = {});

}  // namespace rmp::num
