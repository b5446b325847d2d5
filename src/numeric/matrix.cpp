#include "numeric/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rmp::num {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

namespace {

constexpr std::size_t kRowBlock = 8;

/// y = A * x for row-major `a` (rows x cols), where row r sums its columns
/// range(r) = [first, last) left to right.  Rows go in blocks of kRowBlock,
/// one accumulator each, over the union of the block's ranges; tail rows run
/// one at a time.  Why this keeps every bit: see ProfileMatrix.
template <class RowRange>
void blocked_multiply(const double* a, std::size_t rows, std::size_t cols,
                      std::span<const double> x, Vec& y, RowRange range) {
  assert(x.size() == cols);
  y.resize(rows);
  std::size_t r = 0;
  for (; r + kRowBlock <= rows; r += kRowBlock) {
    std::size_t lo = cols, hi = 0;
    for (std::size_t k = 0; k < kRowBlock; ++k) {
      const auto [first, last] = range(r + k);
      if (first == last) continue;
      lo = std::min(lo, first);
      hi = std::max(hi, last);
    }
    const double* block = a + r * cols;
    double acc[kRowBlock] = {};
    for (std::size_t c = lo; c < hi; ++c) {
      const double xc = x[c];
      for (std::size_t k = 0; k < kRowBlock; ++k) acc[k] += block[k * cols + c] * xc;
    }
    for (std::size_t k = 0; k < kRowBlock; ++k) y[r + k] = acc[k];
  }
  for (; r < rows; ++r) {
    const auto [first, last] = range(r);
    const double* row = a + r * cols;
    double acc = 0.0;
    for (std::size_t c = first; c < last; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

}  // namespace

void Matrix::multiply(std::span<const double> x, Vec& y) const {
  const std::pair<std::size_t, std::size_t> full{0, cols_};
  blocked_multiply(data_.data(), rows_, cols_, x, y, [full](std::size_t) { return full; });
}

Vec Matrix::multiply(std::span<const double> x) const {
  Vec y;
  multiply(x, y);
  return y;
}

ProfileMatrix::ProfileMatrix(Matrix a) : a_(std::move(a)), ranges_(a_.rows()) {
  for (std::size_t r = 0; r < a_.rows(); ++r) {
    const std::span<const double> row = a_.row(r);
    std::size_t first = 0, last = row.size();
    while (first < last && row[first] == 0.0) ++first;
    while (last > first && row[last - 1] == 0.0) --last;
    ranges_[r] = {first, last};
    profile_size_ += last - first;
  }
}

void ProfileMatrix::multiply(std::span<const double> x, Vec& y) const {
  blocked_multiply(a_.data().data(), a_.rows(), a_.cols(), x, y,
                   [this](std::size_t r) { return ranges_[r]; });
}

Matrix Matrix::multiply(const Matrix& b) const {
  assert(cols_ == b.rows());
  Matrix c(rows_, b.cols(), 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data_.data() + k * b.cols_;
      double* crow = c.data_.data() + i * c.cols_;
      for (std::size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

std::optional<LuFactorization> LuFactorization::compute(const Matrix& a,
                                                        double pivot_tol) {
  LuFactorization f;
  if (!f.factor(a, pivot_tol)) return std::nullopt;
  return f;
}

bool LuFactorization::factor(const Matrix& a, double pivot_tol) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  lu_ = a;  // vector copy-assignment: reuses capacity once warmed up
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t piv = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(lu_(r, k));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best <= pivot_tol) return false;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
      std::swap(perm_[k], perm_[piv]);
    }
    const double inv_piv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv_piv;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
  return true;
}

Vec LuFactorization::solve(std::span<const double> b) const {
  Vec x;
  solve_into(b, x);
  return x;
}

void LuFactorization::solve_into(std::span<const double> b, Vec& x) const {
  const std::size_t n = size();
  assert(b.size() == n);
  assert(x.data() != b.data());
  x.resize(n);
  // Apply permutation and forward-substitute L (unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back-substitute U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
}

RowEchelon row_reduce(Matrix a, double tol) {
  RowEchelon out;
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols && pivot_row < rows; ++col) {
    // Find pivot in this column at or below pivot_row.
    std::size_t best_row = pivot_row;
    double best = std::fabs(a(pivot_row, col));
    for (std::size_t r = pivot_row + 1; r < rows; ++r) {
      const double v = std::fabs(a(r, col));
      if (v > best) {
        best = v;
        best_row = r;
      }
    }
    if (best <= tol) continue;
    if (best_row != pivot_row) {
      for (std::size_t c = 0; c < cols; ++c)
        std::swap(a(pivot_row, c), a(best_row, c));
    }
    const double inv = 1.0 / a(pivot_row, col);
    for (std::size_t c = col; c < cols; ++c) a(pivot_row, c) *= inv;
    a(pivot_row, col) = 1.0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pivot_row) continue;
      const double m = a(r, col);
      if (m == 0.0) continue;
      for (std::size_t c = col; c < cols; ++c) a(r, c) -= m * a(pivot_row, c);
      a(r, col) = 0.0;
    }
    out.pivots.push_back(col);
    ++pivot_row;
  }
  out.rank = pivot_row;
  out.reduced = std::move(a);
  return out;
}

Matrix nullspace_basis(const Matrix& a, double tol) {
  const RowEchelon re = row_reduce(a, tol);
  const std::size_t cols = a.cols();
  std::vector<bool> is_pivot(cols, false);
  for (std::size_t p : re.pivots) is_pivot[p] = true;

  std::vector<std::size_t> free_cols;
  for (std::size_t c = 0; c < cols; ++c)
    if (!is_pivot[c]) free_cols.push_back(c);

  Matrix basis(cols, free_cols.size(), 0.0);
  for (std::size_t k = 0; k < free_cols.size(); ++k) {
    const std::size_t fc = free_cols[k];
    basis(fc, k) = 1.0;
    // Pivot variable values: x_pivot = -R(pivot_row, free_col).
    for (std::size_t pr = 0; pr < re.pivots.size(); ++pr) {
      basis(re.pivots[pr], k) = -re.reduced(pr, fc);
    }
  }
  return basis;
}

Matrix orthonormalize_columns(const Matrix& a, double tol) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::vector<Vec> basis;
  basis.reserve(cols);

  Vec v(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) v[r] = a(r, c);
    // Modified Gram-Schmidt: subtract projections sequentially.
    for (const Vec& q : basis) {
      const double proj = dot(v, q);
      axpy(v, -proj, q);
    }
    const double n = norm2(v);
    if (n > tol) {
      Vec q = v;
      scale_inplace(q, 1.0 / n);
      basis.push_back(std::move(q));
    }
  }

  Matrix out(rows, basis.size());
  for (std::size_t c = 0; c < basis.size(); ++c) {
    for (std::size_t r = 0; r < rows; ++r) out(r, c) = basis[c][r];
  }
  return out;
}

}  // namespace rmp::num
