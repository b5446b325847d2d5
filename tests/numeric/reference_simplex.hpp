// Test-only oracle: the dense bounded-variable revised simplex that
// num::solve_lp used before its kernels learned to skip exact zeros.  It is
// kept verbatim -- a dense explicit basis inverse with product-form updates,
// refactorized through LuFactorization plus m dense solves -- so that
// SimplexDifferentialTest can demand bit-identical answers from the sparse-aware
// production kernels.  It does not count refactorizations.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/simplex.hpp"
#include "numeric/vec.hpp"

namespace rmp::num::reference {

namespace detail {

enum class VarStatus { kBasic, kAtLower, kAtUpper, kFreeAtZero };

/// Internal solver state over the extended column set
/// [0, n) structural, [n, n+m) artificial (identity columns).
class SimplexSolver {
 public:
  SimplexSolver(const LpProblem& p, const LpOptions& opts)
      : opts_(opts),
        m_(p.num_rows()),
        n_(p.num_cols()),
        a_(p.constraint_matrix),
        b_(p.rhs),
        lower_(p.lower),
        upper_(p.upper) {
    lower_.resize(n_ + m_, 0.0);
    upper_.resize(n_ + m_, kLpInfinity);
  }

  LpSolution solve(const Vec& objective) {
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

 private:
  [[nodiscard]] double column_entry(std::size_t row, std::size_t col) const {
    if (col < n_) return row_sign_[row] * a_(row, col);
    return col - n_ == row ? 1.0 : 0.0;
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
        for (std::size_t i = 0; i < m_; ++i) {
          const double e = column_entry(i, j);
          if (e != 0.0) d -= y[i] * e;
        }
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
      for (std::size_t i = 0; i < m_; ++i) {
        const double e = column_entry(i, entering);
        if (e == 0.0) continue;
        for (std::size_t k = 0; k < m_; ++k) w[k] += binv_(k, i) * e;
      }

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
      const double piv = w[leaving_pos];
      if (std::fabs(piv) < kLpPivotTol) {
        refactorize();  // pathological pivot; rebuild from scratch
        continue;
      }
      const double inv_piv = 1.0 / piv;
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

  /// Rebuild B^{-1} and the basic values from the basis definition.
  void refactorize() {
    Matrix basis_matrix(m_, m_);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t pos = 0; pos < m_; ++pos) {
        basis_matrix(i, pos) = column_entry(i, basis_[pos]);
      }
    }
    auto lu = LuFactorization::compute(basis_matrix, 1e-14);
    if (!lu) return;  // keep the updated inverse; nothing better available

    // Columns of B^{-1} are solutions of B z = e_i.
    Vec e(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      e.assign(m_, 0.0);
      e[i] = 1.0;
      const Vec z = lu->solve(e);
      for (std::size_t r = 0; r < m_; ++r) binv_(r, i) = z[r];
    }

    // Recompute x_B = B^{-1} (b' - N x_N) with signed rows.
    Vec rhs(m_);
    for (std::size_t i = 0; i < m_; ++i) rhs[i] = row_sign_[i] * b_[i];
    for (std::size_t j = 0; j < n_ + m_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double v = value_of(j);
      if (v == 0.0) continue;
      for (std::size_t i = 0; i < m_; ++i) {
        const double ce = column_entry(i, j);
        if (ce != 0.0) rhs[i] -= ce * v;
      }
    }
    xb_ = binv_.multiply(rhs);
    pivots_since_refactor_ = 0;
  }

  const LpOptions opts_;
  std::size_t m_, n_;
  const Matrix& a_;
  Vec b_;
  Vec lower_, upper_;  // extended with artificial bounds

  std::vector<VarStatus> status_;       // per extended column
  std::vector<std::size_t> basis_;      // basic column per row position
  std::vector<std::size_t> basic_pos_;  // inverse map column -> row position
  Vec row_sign_;                        // +-1 row orientation chosen at init
  Matrix binv_;
  Vec xb_;
  std::size_t pivots_since_refactor_ = 0;
};

}  // namespace detail

inline LpSolution solve_lp(const LpProblem& problem, const LpOptions& opts = {}) {
  assert(problem.rhs.size() == problem.num_rows());
  assert(problem.objective.size() == problem.num_cols());
  assert(problem.lower.size() == problem.num_cols());
  assert(problem.upper.size() == problem.num_cols());
  detail::SimplexSolver solver(problem, opts);
  return solver.solve(problem.objective);
}

}  // namespace rmp::num::reference
