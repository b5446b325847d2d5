#include "numeric/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <utility>

namespace rmp::num {

std::string to_string(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

LpProblem LpProblem::from_sparse(const SparseMatrix& a, Vec rhs, Vec objective, Vec lower,
                                 Vec upper) {
  LpProblem p;
  p.constraint_matrix = a.to_dense();
  p.rhs = std::move(rhs);
  p.objective = std::move(objective);
  p.lower = std::move(lower);
  p.upper = std::move(upper);
  return p;
}

namespace {

enum class VarStatus { kBasic, kAtLower, kAtUpper, kFreeAtZero };

/// The structural columns of A in compressed form: column j's nonzeros are
/// rows row[start[j] .. start[j+1]) with their values, in increasing row
/// order.  Every kernel that walks them visits the same nonzero terms, in the
/// same order, as a dense loop over all m rows that skips zero entries.
struct CompressedColumns {
  std::vector<std::size_t> start;
  std::vector<std::size_t> row;
  Vec value;

  explicit CompressedColumns(const Matrix& a) {
    start.reserve(a.cols() + 1);
    start.push_back(0);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      for (std::size_t i = 0; i < a.rows(); ++i) {
        if (a(i, j) == 0.0) continue;
        row.push_back(i);
        value.push_back(a(i, j));
      }
      start.push_back(row.size());
    }
  }
};

/// LU factor of a simplex basis with partial pivoting.  For every element it
/// performs the floating-point operations of LuFactorization::factor and
/// solve_into in the same order, minus the terms whose factor is an exact
/// +-0: elimination updates only the pivot row's nonzero columns, L is kept
/// by column and U by row as sparse lists, and forward substitution skips
/// zero entries of x.  Every accumulator starts at +0 or at a nonzero value,
/// so it can never become -0, and subtracting a +-0 term from it changes no
/// bit.  Pivot choice (largest magnitude, first row on ties) and the
/// zero-multiplier skip are LuFactorization's, so B^{-1} is bit-identical.
class BasisFactor {
 public:
  /// Factors the square matrix `lu` in place; false when a pivot column's
  /// largest magnitude is <= pivot_tol.
  bool factor(Matrix& lu, double pivot_tol) {
    const std::size_t n = lu.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
      std::size_t piv = k;
      double best = std::fabs(lu(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const double v = std::fabs(lu(r, k));
        if (v > best) {
          best = v;
          piv = r;
        }
      }
      if (best <= pivot_tol) return false;
      if (piv != k) {
        const std::span<double> pivot_row = lu.row(piv);
        std::swap_ranges(pivot_row.begin(), pivot_row.end(), lu.row(k).begin());
        std::swap(perm_[k], perm_[piv]);
      }
      const double inv_piv = 1.0 / lu(k, k);
      pivot_cols_.clear();
      for (std::size_t c = k + 1; c < n; ++c) {
        if (lu(k, c) != 0.0) pivot_cols_.push_back(c);
      }
      for (std::size_t r = k + 1; r < n; ++r) {
        const double m = lu(r, k) * inv_piv;
        lu(r, k) = m;
        if (m == 0.0) continue;
        for (const std::size_t c : pivot_cols_) lu(r, c) -= m * lu(k, c);
      }
    }

    pos_of_row_.resize(n);
    for (std::size_t pos = 0; pos < n; ++pos) pos_of_row_[perm_[pos]] = pos;
    l_start_.assign(1, 0);
    l_row_.clear();
    l_value_.clear();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t r = j + 1; r < n; ++r) {
        if (lu(r, j) == 0.0) continue;
        l_row_.push_back(r);
        l_value_.push_back(lu(r, j));
      }
      l_start_.push_back(l_row_.size());
    }
    u_start_.assign(1, 0);
    u_col_.clear();
    u_value_.clear();
    u_diag_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      u_diag_[i] = lu(i, i);
      for (std::size_t c = i + 1; c < n; ++c) {
        if (lu(i, c) == 0.0) continue;
        u_col_.push_back(c);
        u_value_.push_back(lu(i, c));
      }
      u_start_.push_back(u_col_.size());
    }
    return true;
  }

  /// x = B^{-1} e_row.
  void solve_unit(std::size_t row, Vec& x) const {
    const std::size_t n = u_diag_.size();
    x.assign(n, 0.0);
    const std::size_t first = pos_of_row_[row];
    x[first] = 1.0;
    // Forward substitution of L (unit diagonal) by column.
    for (std::size_t j = first; j < n; ++j) {
      const double xj = x[j];
      if (xj == 0.0) continue;
      for (std::size_t q = l_start_[j]; q < l_start_[j + 1]; ++q) {
        x[l_row_[q]] -= l_value_[q] * xj;
      }
    }
    // Back substitution of U by row.
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = x[ii];
      for (std::size_t q = u_start_[ii]; q < u_start_[ii + 1]; ++q) {
        acc -= u_value_[q] * x[u_col_[q]];
      }
      x[ii] = acc / u_diag_[ii];
    }
  }

 private:
  std::vector<std::size_t> perm_;        // original row at each position
  std::vector<std::size_t> pos_of_row_;  // inverse of perm_
  std::vector<std::size_t> pivot_cols_;  // scratch: pivot-row nonzeros
  std::vector<std::size_t> l_start_, l_row_;
  Vec l_value_;
  std::vector<std::size_t> u_start_, u_col_;
  Vec u_value_, u_diag_;
};

/// Internal solver state over the extended column set
/// [0, n) structural, [n, n+m) artificial (identity columns).
class SimplexSolver {
 public:
  SimplexSolver(const LpProblem& p, const LpOptions& opts)
      : opts_(opts),
        m_(p.num_rows()),
        n_(p.num_cols()),
        a_(p.constraint_matrix),
        cols_(p.constraint_matrix),
        b_(p.rhs),
        lower_(p.lower),
        upper_(p.upper) {
    lower_.resize(n_ + m_, 0.0);
    upper_.resize(n_ + m_, kLpInfinity);
  }

  LpSolution solve(const Vec& objective) {
    LpSolution sol = solve_phases(objective);
    sol.refactorizations = refactorizations_;
    return sol;
  }

 private:
  LpSolution solve_phases(const Vec& objective) {
    LpSolution sol;
    initialize();

    // Phase 1: minimize the sum of artificial values.
    Vec phase1_cost(n_ + m_, 0.0);
    for (std::size_t j = n_; j < n_ + m_; ++j) phase1_cost[j] = 1.0;
    const LpStatus s1 = run_phase(phase1_cost, sol.iterations);
    if (s1 == LpStatus::kIterationLimit) {
      sol.status = s1;
      return sol;
    }
    if (phase_objective(phase1_cost) > kLpFeasibilityTol * (1.0 + norm1(b_))) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }

    // Phase 2: pin artificials to zero and minimize -objective.
    for (std::size_t j = n_; j < n_ + m_; ++j) {
      lower_[j] = 0.0;
      upper_[j] = 0.0;
      if (status_[j] == VarStatus::kFreeAtZero) status_[j] = VarStatus::kAtLower;
    }
    Vec phase2_cost(n_ + m_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) phase2_cost[j] = -objective[j];
    const LpStatus s2 = run_phase(phase2_cost, sol.iterations);
    sol.status = s2;
    if (s2 != LpStatus::kOptimal) return sol;

    sol.x.assign(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) sol.x[j] = value_of(j);
    sol.objective_value = dot(sol.x, objective);
    return sol;
  }

  [[nodiscard]] double value_of(std::size_t col) const {
    switch (status_[col]) {
      case VarStatus::kBasic:
        return xb_[basic_pos_[col]];
      case VarStatus::kAtLower:
        return lower_[col];
      case VarStatus::kAtUpper:
        return upper_[col];
      case VarStatus::kFreeAtZero:
        return 0.0;
    }
    return 0.0;
  }

  void initialize() {
    status_.assign(n_ + m_, VarStatus::kAtLower);
    basic_pos_.assign(n_ + m_, 0);
    basis_.resize(m_);
    row_sign_.assign(m_, 1.0);

    // Nonbasic structural variables rest at their finite bound nearest zero.
    for (std::size_t j = 0; j < n_; ++j) {
      const bool lo_fin = std::isfinite(lower_[j]);
      const bool up_fin = std::isfinite(upper_[j]);
      if (lo_fin && up_fin) {
        status_[j] =
            std::fabs(lower_[j]) <= std::fabs(upper_[j]) ? VarStatus::kAtLower
                                                         : VarStatus::kAtUpper;
      } else if (lo_fin) {
        status_[j] = VarStatus::kAtLower;
      } else if (up_fin) {
        status_[j] = VarStatus::kAtUpper;
      } else {
        status_[j] = VarStatus::kFreeAtZero;
      }
    }

    // Residual r = b - A x_N decides artificial orientation: rows with a
    // negative residual are negated so every artificial starts feasible >= 0.
    // This once-per-solve loop stays dense: r starts from b, which may hold a
    // -0, and subtracting the +-0 products can turn it into +0.
    Vec r = b_;
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = value_of(j);
      if (v == 0.0) continue;
      for (std::size_t i = 0; i < m_; ++i) r[i] -= a_(i, j) * v;
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (r[i] < 0.0) {
        row_sign_[i] = -1.0;
        r[i] = -r[i];
      }
    }

    for (std::size_t i = 0; i < m_; ++i) {
      basis_[i] = n_ + i;
      status_[n_ + i] = VarStatus::kBasic;
      basic_pos_[n_ + i] = i;
    }
    binv_ = Matrix::identity(m_);
    xb_ = r;
    pivots_since_refactor_ = 0;
  }

  [[nodiscard]] double phase_objective(const Vec& cost) const {
    double acc = 0.0;
    for (std::size_t j = 0; j < n_ + m_; ++j) {
      if (cost[j] != 0.0) acc += cost[j] * value_of(j);
    }
    return acc;
  }

  /// One simplex phase minimizing cost^T x; returns optimal/unbounded/limit.
  LpStatus run_phase(const Vec& cost, std::size_t& iteration_counter) {
    Vec y(m_), w(m_);
    std::size_t degenerate_streak = 0;
    bool use_bland = false;

    while (iteration_counter < opts_.max_iterations) {
      ++iteration_counter;

      // Duals: y = cost_B^T * B^{-1}.
      y.assign(m_, 0.0);
      for (std::size_t i = 0; i < m_; ++i) {
        const double cb = cost[basis_[i]];
        if (cb == 0.0) continue;
        for (std::size_t k = 0; k < m_; ++k) y[k] += cb * binv_(i, k);
      }

      // Pricing: pick an entering variable that improves the objective.
      std::size_t entering = n_ + m_;
      double best_violation = use_bland ? 0.0 : kLpOptimalityTol;
      int entering_dir = 0;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        if (status_[j] == VarStatus::kBasic) continue;
        if (lower_[j] == upper_[j] && status_[j] != VarStatus::kFreeAtZero) continue;
        double d = cost[j];
        for_each_entry(j, [&](std::size_t i, double e) { d -= y[i] * e; });
        int dir = 0;
        double violation = 0.0;
        if (status_[j] == VarStatus::kAtLower && d < -kLpOptimalityTol) {
          dir = +1;
          violation = -d;
        } else if (status_[j] == VarStatus::kAtUpper && d > kLpOptimalityTol) {
          dir = -1;
          violation = d;
        } else if (status_[j] == VarStatus::kFreeAtZero &&
                   std::fabs(d) > kLpOptimalityTol) {
          dir = d < 0.0 ? +1 : -1;
          violation = std::fabs(d);
        }
        if (dir == 0) continue;
        if (use_bland) {
          entering = j;
          entering_dir = dir;
          break;  // Bland: first eligible index
        }
        if (violation > best_violation) {
          best_violation = violation;
          entering = j;
          entering_dir = dir;
        }
      }
      if (entering == n_ + m_) return LpStatus::kOptimal;

      // Direction through the basis: w = B^{-1} A_e.
      w.assign(m_, 0.0);
      for_each_entry(entering, [&](std::size_t i, double e) {
        for (std::size_t k = 0; k < m_; ++k) w[k] += binv_(k, i) * e;
      });

      // Ratio test: basic variables move by -t*dir*w; find the binding limit.
      const double sigma = static_cast<double>(entering_dir);
      double t_limit = kLpInfinity;
      std::size_t leaving_pos = m_;  // m_ => bound flip instead of pivot
      bool leaving_to_upper = false;

      const double range = upper_[entering] - lower_[entering];
      if (std::isfinite(range)) t_limit = range;

      for (std::size_t i = 0; i < m_; ++i) {
        const double delta = sigma * w[i];
        const std::size_t bj = basis_[i];
        if (delta > kLpPivotTol) {  // basic value decreases toward lower
          if (!std::isfinite(lower_[bj])) continue;
          const double t = (xb_[i] - lower_[bj]) / delta;
          if (t < t_limit - 1e-15 ||
              (use_bland && t <= t_limit && leaving_pos != m_ && bj < basis_[leaving_pos])) {
            t_limit = std::max(t, 0.0);
            leaving_pos = i;
            leaving_to_upper = false;
          }
        } else if (delta < -kLpPivotTol) {  // basic value increases toward upper
          if (!std::isfinite(upper_[bj])) continue;
          const double t = (xb_[i] - upper_[bj]) / delta;
          if (t < t_limit - 1e-15 ||
              (use_bland && t <= t_limit && leaving_pos != m_ && bj < basis_[leaving_pos])) {
            t_limit = std::max(t, 0.0);
            leaving_pos = i;
            leaving_to_upper = true;
          }
        }
      }

      if (!std::isfinite(t_limit)) return LpStatus::kUnbounded;

      // Anti-cycling bookkeeping.
      if (t_limit <= 1e-12) {
        if (++degenerate_streak > m_ + n_) use_bland = true;
      } else {
        degenerate_streak = 0;
        use_bland = false;
      }

      // Move the basic values.
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= t_limit * sigma * w[i];

      if (leaving_pos == m_) {
        // Bound flip: the entering variable crosses to its opposite bound.
        status_[entering] =
            entering_dir > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
        continue;
      }

      // Pivot: entering replaces basis_[leaving_pos].
      const std::size_t leaving = basis_[leaving_pos];
      status_[leaving] = leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      if (!std::isfinite(lower_[leaving]) && !std::isfinite(upper_[leaving])) {
        status_[leaving] = VarStatus::kFreeAtZero;
      }

      const double entering_start = value_of(entering);
      basis_[leaving_pos] = entering;
      status_[entering] = VarStatus::kBasic;
      basic_pos_[entering] = leaving_pos;
      xb_[leaving_pos] = entering_start + sigma * t_limit;

      // Product-form update of the explicit inverse.
      // The ratio test only accepts rows with |w| > kLpPivotTol.
      const double inv_piv = 1.0 / w[leaving_pos];
      for (std::size_t c = 0; c < m_; ++c) binv_(leaving_pos, c) *= inv_piv;
      for (std::size_t r = 0; r < m_; ++r) {
        if (r == leaving_pos) continue;
        const double f = w[r];
        if (f == 0.0) continue;
        for (std::size_t c = 0; c < m_; ++c) {
          binv_(r, c) -= f * binv_(leaving_pos, c);
        }
      }

      if (++pivots_since_refactor_ >= opts_.refactor_interval) refactorize();
    }
    return LpStatus::kIterationLimit;
  }

  /// Calls f(row, entry) for the nonzero entries of extended column `col`,
  /// in increasing row order.
  template <typename F>
  void for_each_entry(std::size_t col, F&& f) const {
    if (col >= n_) {
      f(col - n_, 1.0);
      return;
    }
    for (std::size_t q = cols_.start[col]; q < cols_.start[col + 1]; ++q) {
      const std::size_t i = cols_.row[q];
      f(i, row_sign_[i] * cols_.value[q]);
    }
  }

  /// Rebuild B^{-1} and the basic values from the basis definition.
  void refactorize() {
    ++refactorizations_;
    pivots_since_refactor_ = 0;
    basis_lu_.reshape(m_, m_);
    for (std::size_t pos = 0; pos < m_; ++pos) {
      for_each_entry(basis_[pos], [&](std::size_t i, double e) { basis_lu_(i, pos) = e; });
    }
    // Singular: keep the updated inverse until the next interval.
    if (!factor_.factor(basis_lu_, 1e-14)) return;

    // Columns of B^{-1} are solutions of B z = e_i.
    for (std::size_t i = 0; i < m_; ++i) {
      factor_.solve_unit(i, z_);
      for (std::size_t r = 0; r < m_; ++r) binv_(r, i) = z_[r];
    }

    // Recompute x_B = B^{-1} (b' - N x_N) with signed rows.
    Vec rhs(m_);
    for (std::size_t i = 0; i < m_; ++i) rhs[i] = row_sign_[i] * b_[i];
    for (std::size_t j = 0; j < n_ + m_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double v = value_of(j);
      if (v == 0.0) continue;
      for_each_entry(j, [&](std::size_t i, double ce) { rhs[i] -= ce * v; });
    }
    binv_.multiply(rhs, xb_);
  }

  const LpOptions opts_;
  std::size_t m_, n_;
  const Matrix& a_;
  const CompressedColumns cols_;
  Vec b_;
  Vec lower_, upper_;  // extended with artificial bounds

  std::vector<VarStatus> status_;       // per extended column
  std::vector<std::size_t> basis_;      // basic column per row position
  std::vector<std::size_t> basic_pos_;  // inverse map column -> row position
  Vec row_sign_;                        // +-1 row orientation chosen at init
  Matrix binv_;
  Vec xb_;
  std::size_t pivots_since_refactor_ = 0;
  std::size_t refactorizations_ = 0;
  Matrix basis_lu_;  // refactorization workspace
  BasisFactor factor_;
  Vec z_;
};

}  // namespace

LpSolution solve_lp(const LpProblem& problem, const LpOptions& opts) {
  assert(problem.rhs.size() == problem.num_rows());
  assert(problem.objective.size() == problem.num_cols());
  assert(problem.lower.size() == problem.num_cols());
  assert(problem.upper.size() == problem.num_cols());
  SimplexSolver solver(problem, opts);
  return solver.solve(problem.objective);
}

}  // namespace rmp::num
