// Compressed-sparse-row matrix for genome-scale stoichiometric matrices.
//
// A genome-scale metabolic model has a few thousand non-zeros in a matrix of
// ~500 x ~600 entries; evaluating the steady-state residual S*v for every
// candidate flux vector is on the optimizer's hot path, so the network code
// stores S in CSR form.  Construction goes through a coordinate-triplet
// builder so callers do not need to pre-sort.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

class SparseMatrix {
 public:
  /// Incremental COO builder; duplicate (row, col) entries are summed.
  class Builder {
   public:
    Builder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

    void add(std::size_t row, std::size_t col, double value);

    [[nodiscard]] SparseMatrix build() const;

   private:
    struct Triplet {
      std::size_t row, col;
      double value;
    };
    std::size_t rows_, cols_;
    std::vector<Triplet> triplets_;
  };

  SparseMatrix() = default;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const { return values_.size(); }

  /// y = S * x.
  void multiply(std::span<const double> x, Vec& y) const;
  [[nodiscard]] Vec multiply(std::span<const double> x) const;

  /// ||S x||_1 — the steady-state violation measure used by the Geobacter
  /// experiment (computed without materializing S x when y_scratch given).
  [[nodiscard]] double residual_norm1(std::span<const double> x) const;

  /// Dense copy (small matrices / tests / nullspace computation).
  [[nodiscard]] Matrix to_dense() const;

  /// Entry accessor by search within the row (O(nnz in row)).
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// CSR internals (read-only) for algorithms that iterate the structure.
  [[nodiscard]] std::span<const std::size_t> row_offsets() const { return row_offsets_; }
  [[nodiscard]] std::span<const std::size_t> col_indices() const { return col_indices_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace rmp::num
