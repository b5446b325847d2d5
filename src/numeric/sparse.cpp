#include "numeric/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rmp::num {

void SparseMatrix::Builder::add(std::size_t row, std::size_t col, double value) {
  assert(row < rows_ && col < cols_);
  if (value == 0.0) return;
  triplets_.push_back({row, col, value});
}

SparseMatrix SparseMatrix::Builder::build() const {
  SparseMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;

  std::vector<Triplet> sorted = triplets_;
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  m.row_offsets_.assign(rows_ + 1, 0);
  m.col_indices_.reserve(sorted.size());
  m.values_.reserve(sorted.size());

  for (std::size_t i = 0; i < sorted.size();) {
    const std::size_t r = sorted[i].row;
    const std::size_t c = sorted[i].col;
    double acc = 0.0;
    while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
      acc += sorted[i].value;
      ++i;
    }
    if (acc != 0.0) {
      m.col_indices_.push_back(c);
      m.values_.push_back(acc);
      ++m.row_offsets_[r + 1];
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) m.row_offsets_[r + 1] += m.row_offsets_[r];
  return m;
}

void SparseMatrix::multiply(std::span<const double> x, Vec& y) const {
  assert(x.size() == cols_);
  y.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      acc += values_[k] * x[col_indices_[k]];
    }
    y[r] = acc;
  }
}

Vec SparseMatrix::multiply(std::span<const double> x) const {
  Vec y;
  multiply(x, y);
  return y;
}

double SparseMatrix::residual_norm1(std::span<const double> x) const {
  assert(x.size() == cols_);
  double total = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      acc += values_[k] * x[col_indices_[k]];
    }
    total += std::fabs(acc);
  }
  return total;
}

Matrix SparseMatrix::to_dense() const {
  Matrix m(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      m(r, col_indices_[k]) = values_[k];
    }
  }
  return m;
}

double SparseMatrix::at(std::size_t row, std::size_t col) const {
  assert(row < rows_ && col < cols_);
  for (std::size_t k = row_offsets_[row]; k < row_offsets_[row + 1]; ++k) {
    if (col_indices_[k] == col) return values_[k];
  }
  return 0.0;
}

}  // namespace rmp::num
