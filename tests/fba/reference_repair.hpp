// Test-only oracle: the null-space repair fba::GeobacterProblem ran before
// its products learned to skip each row's leading and trailing zeros.  It is
// kept verbatim -- the dense orthonormal basis Q, Q^T (v - v0) as a row-by-row
// axpy (the former Matrix::multiply_transposed), then Q * coords as one full
// serial dot per row (the former Matrix::multiply) -- so that
// GeobacterProblemTest can demand bit-identical repairs from the production
// kernels.
#pragma once

#include <cstddef>
#include <span>

#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::fba::reference {

/// y = A^T * x, row by row; rows whose x entry is zero are skipped.
inline void multiply_transposed(const num::Matrix& a, std::span<const double> x,
                                num::Vec& y) {
  y.assign(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.data().data() + r * a.cols();
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
}

/// y = A * x, one serial left-to-right dot product per row.
inline void multiply(const num::Matrix& a, std::span<const double> x, num::Vec& y) {
  y.assign(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.data().data() + r * a.cols();
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

/// The repair: `rounds` times v <- clamp(v0 + Q Q^T (v - v0), lower, upper).
inline void repair(const num::Matrix& basis, std::span<const double> reference_flux,
                   std::span<const double> lower, std::span<const double> upper,
                   std::size_t rounds, num::Vec& x) {
  if (basis.cols() == 0) return;
  num::Vec delta, coords, projected;
  for (std::size_t round = 0; round < rounds; ++round) {
    delta = x;
    num::sub_inplace(delta, reference_flux);
    multiply_transposed(basis, delta, coords);  // Q^T (v - v0)
    multiply(basis, coords, projected);         // Q Q^T (v - v0)
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = reference_flux[i] + projected[i];
    }
    num::clamp_inplace(x, lower, upper);
  }
}

}  // namespace rmp::fba::reference
