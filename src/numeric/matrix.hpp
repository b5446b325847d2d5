// Dense row-major matrix with the factorizations the library needs:
// LU with partial pivoting (linear solves), and Gaussian
// elimination with full row reduction (rank, null-space basis — used to
// parameterize the steady-state flux space of metabolic networks), plus a
// row-profile view whose mat-vec skips each row's leading and trailing zeros.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "numeric/vec.hpp"

namespace rmp::num {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] const Vec& data() const { return data_; }
  [[nodiscard]] Vec& data() { return data_; }

  /// Re-shape in place to rows x cols, zero-filled.  Reuses the existing
  /// storage when capacity suffices — the workspace arena's resize path.
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Identity matrix of size n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// y = A * x (no aliasing between y and x).  Each y[r] is the row's dot
  /// product summed left to right over all columns; see ProfileMatrix for
  /// the shared register-blocked loop.
  void multiply(std::span<const double> x, Vec& y) const;
  [[nodiscard]] Vec multiply(std::span<const double> x) const;

  /// C = A * B.
  [[nodiscard]] Matrix multiply(const Matrix& b) const;

  [[nodiscard]] Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vec data_;
};

/// A dense row-major matrix plus each row's nonzero column range
/// [first, last), computed once at construction; an all-zero row has an
/// empty range.  Built for mat-vecs with staircase matrices such as the
/// Gram-Schmidt null-space basis, whose rows are one contiguous run of
/// nonzeros each.
///
/// multiply() and Matrix::multiply share one loop: rows go in blocks of 8,
/// one accumulator per row, over the union of the block's ranges in
/// ascending column order (Matrix::multiply passes full ranges); tail rows
/// run one at a time over their own range.
///
/// Bit identity, for finite x: each y[r] equals the full left-to-right row
/// dot sum_c A(r, c) * x[c], because the loop computes that sum with some
/// exact-zero terms left out (columns outside the row's range, whose
/// product A(r, c) * x[c] is +-0 when x[c] is finite).  Leaving such a term
/// out changes nothing: the accumulator starts at +0.0, and in round-to-
/// nearest a sum that is exactly zero rounds to +0, so the accumulator is
/// never -0, and acc + (+-0) == acc bit for bit.  An infinite or NaN x[c]
/// makes 0 * x[c] a NaN that the full dot would carry and the profile
/// loop skips, so the identity needs finite x.  It also needs ISO
/// floating point: no FP contraction into FMAs and no reassociation, which
/// holds for the library's -std=c++20 build on baseline x86-64.
class ProfileMatrix {
 public:
  ProfileMatrix() = default;
  explicit ProfileMatrix(Matrix a);

  [[nodiscard]] std::size_t rows() const { return a_.rows(); }
  [[nodiscard]] std::size_t cols() const { return a_.cols(); }

  /// y = A * x (no aliasing between y and x); bit-identical to
  /// Matrix::multiply for finite x.
  void multiply(std::span<const double> x, Vec& y) const;

  /// Sum of the row range lengths: the multiply-adds one multiply() needs,
  /// before the 8-row blocks round the ranges up to their union.
  [[nodiscard]] std::size_t profile_size() const { return profile_size_; }

 private:
  Matrix a_;
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;  ///< [first, last) per row
  std::size_t profile_size_ = 0;
};

/// LU factorization with partial pivoting of a square matrix.
/// Usable for repeated solves against the same matrix.
class LuFactorization {
 public:
  /// Factors `a`; returns std::nullopt when the matrix is (numerically)
  /// singular relative to `pivot_tol`.
  [[nodiscard]] static std::optional<LuFactorization> compute(const Matrix& a,
                                                              double pivot_tol = 1e-12);

  /// In-place refactor reusing this object's storage (allocation-free once
  /// warmed to the problem size).  Returns false when `a` is numerically
  /// singular relative to `pivot_tol`; the factorization is then invalid
  /// until the next successful factor()/compute().
  bool factor(const Matrix& a, double pivot_tol = 1e-12);

  /// Solves A x = b.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Solves A x = b into a caller-owned buffer (resized to n; reuses
  /// capacity).  `x` must not alias `b`.
  void solve_into(std::span<const double> b, Vec& x) const;

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// Result of row-reducing a (possibly rectangular) matrix.
struct RowEchelon {
  Matrix reduced;                    ///< reduced row-echelon form
  std::vector<std::size_t> pivots;   ///< pivot column of each pivot row
  std::size_t rank = 0;
};

/// Gauss–Jordan reduction with partial pivoting; `tol` decides rank.
[[nodiscard]] RowEchelon row_reduce(Matrix a, double tol = 1e-10);

/// Orthonormal-free null-space basis of A (columns are basis vectors of
/// {x : A x = 0}), built from the reduced row-echelon form.  The basis has
/// cols(A) - rank(A) columns.
[[nodiscard]] Matrix nullspace_basis(const Matrix& a, double tol = 1e-10);

/// Modified Gram-Schmidt orthonormalization of the columns of `a`; columns
/// that become (numerically) zero are dropped.  Returns the orthonormal
/// basis as columns.
[[nodiscard]] Matrix orthonormalize_columns(const Matrix& a, double tol = 1e-10);

}  // namespace rmp::num
