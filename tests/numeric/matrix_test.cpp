#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fba/reference_repair.hpp"
#include "numeric/rng.hpp"

namespace rmp::num {
namespace {

TEST(MatrixTest, MultiplyVector) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vec y = a.multiply(Vec{1.0, 1.0, 1.0});
  EXPECT_EQ(y, (Vec{6.0, 15.0}));
}

TEST(MatrixTest, MultiplyTransposed) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  Vec y;
  fba::reference::multiply_transposed(a, Vec{1.0, 1.0}, y);
  EXPECT_EQ(y, (Vec{5.0, 7.0, 9.0}));
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(MatrixTest, ProfileMultiplyIsBitIdenticalToRowDots) {
  Rng rng(21);
  // Row shapes: a staircase run, a run with zeros inside it, an empty row,
  // a full row, and a run whose terms cancel exactly.
  const auto fill_row = [&rng](Matrix& a, std::size_t r, int shape) {
    const std::size_t n = a.cols();
    if (n == 0) return;
    const std::size_t first = rng.uniform_index(n);
    const std::size_t last = first + 1 + rng.uniform_index(n - first);
    switch (shape) {
      case 0:  // staircase: one contiguous run of nonzeros
        for (std::size_t c = first; c < last; ++c) a(r, c) = rng.uniform(-1, 1);
        break;
      case 1:  // zeros (and a -0.0) inside the run
        for (std::size_t c = first; c < last; ++c) {
          const double u = rng.uniform();
          a(r, c) = u < 0.3 ? 0.0 : u < 0.4 ? -0.0 : rng.normal();
        }
        break;
      case 2:  // empty row
        break;
      case 3:  // full row
        for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
        break;
      default:  // +v, -v pairs that cancel to an exact zero
        for (std::size_t c = first; c + 1 < last; c += 2) {
          a(r, c) = 1.5;
          a(r, c + 1) = -1.5;
        }
        break;
    }
  };

  int cases = 0;
  for (std::size_t rows = 0; rows <= 20; ++rows) {
    for (const std::size_t cols : {0, 1, 3, 9, 17}) {
      for (int variant = 0; variant < 3; ++variant) {
        Matrix a(rows, cols, 0.0);
        if (variant > 0) {  // variant 0 is the all-zero matrix
          for (std::size_t r = 0; r < rows; ++r) {
            fill_row(a, r, variant == 1 ? 0 : static_cast<int>(rng.uniform_index(5)));
          }
        }
        // x mixes zeros, -0.0, and values that make the cancelling pairs sum
        // to an exact zero.
        Vec x(cols);
        for (std::size_t c = 0; c < cols; ++c) {
          const double u = rng.uniform();
          x[c] = u < 0.15 ? 0.0 : u < 0.25 ? -0.0 : u < 0.5 ? 2.0 : rng.normal();
        }
        const ProfileMatrix p(a);
        Vec got_profile, got_dense;
        p.multiply(x, got_profile);
        a.multiply(x, got_dense);
        Vec want;  // one full left-to-right dot per row
        fba::reference::multiply(a, x, want);
        EXPECT_TRUE(same_bits(got_profile, want)) << rows << "x" << cols << " v" << variant;
        EXPECT_TRUE(same_bits(got_dense, want)) << rows << "x" << cols << " v" << variant;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 21 * 5 * 3);
}

TEST(MatrixTest, ProfileSizeSumsRowRanges) {
  Matrix a(3, 5, 0.0);
  a(0, 1) = 1.0;  // [1, 4) with a zero inside
  a(0, 3) = 2.0;
  a(2, 0) = 3.0;  // [0, 5)
  a(2, 4) = -0.5;
  const ProfileMatrix p(a);  // row 1 is empty
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_EQ(p.cols(), 5u);
  EXPECT_EQ(p.profile_size(), 3u + 0u + 5u);
}

TEST(MatrixTest, MatrixProductAgainstIdentity) {
  Rng rng(5);
  Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-1, 1);
  const Matrix prod = a.multiply(Matrix::identity(4));
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a(2, 3);
  a(0, 2) = 7.0;
  a(1, 0) = -2.0;
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
  EXPECT_DOUBLE_EQ(t(0, 1), -2.0);
  const Matrix tt = t.transposed();
  EXPECT_EQ(tt.data(), a.data());
}

TEST(LuTest, SolvesDiagonal) {
  Matrix a(3, 3);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  a(2, 2) = 0.5;
  const auto f = LuFactorization::compute(a);
  ASSERT_TRUE(f.has_value());
  const Vec x = f->solve(Vec{2.0, 8.0, 1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
}

TEST(LuTest, SolveRandomSystemsResidual) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(12);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
      a(r, r) += 3.0;  // diagonal dominance avoids accidental singularity
    }
    Vec b(n);
    for (double& v : b) v = rng.normal();
    const auto f = LuFactorization::compute(a);
    ASSERT_TRUE(f.has_value());
    const Vec r = a.multiply(f->solve(b));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-8);
  }
}

TEST(LuTest, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_FALSE(LuFactorization::compute(a).has_value());
}

TEST(RowReduceTest, RankOfRankDeficient) {
  Matrix a(3, 3);
  // Row 2 = row 0 + row 1.
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 0;
  a(1, 1) = 1;
  a(1, 2) = 1;
  a(2, 0) = 1;
  a(2, 1) = 3;
  a(2, 2) = 4;
  const RowEchelon re = row_reduce(a);
  EXPECT_EQ(re.rank, 2u);
}

TEST(NullspaceTest, BasisSpansKernel) {
  // A = [1 1 0; 0 0 1] has kernel spanned by (1, -1, 0).
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 1;
  a(1, 2) = 1;
  const Matrix basis = nullspace_basis(a);
  ASSERT_EQ(basis.cols(), 1u);
  ASSERT_EQ(basis.rows(), 3u);
  // Check A * basis_col == 0.
  Vec col(3);
  for (std::size_t r = 0; r < 3; ++r) col[r] = basis(r, 0);
  const Vec res = a.multiply(col);
  EXPECT_NEAR(res[0], 0.0, 1e-12);
  EXPECT_NEAR(res[1], 0.0, 1e-12);
}

TEST(NullspaceTest, DimensionTheorem) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t rows = 3 + rng.uniform_index(4);
    const std::size_t cols = rows + 1 + rng.uniform_index(5);
    Matrix a(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) a(r, c) = rng.normal();
    const RowEchelon re = row_reduce(a);
    const Matrix basis = nullspace_basis(a);
    EXPECT_EQ(basis.cols(), cols - re.rank);
    // Every basis column is in the kernel.
    for (std::size_t k = 0; k < basis.cols(); ++k) {
      Vec col(cols);
      for (std::size_t r = 0; r < cols; ++r) col[r] = basis(r, k);
      const Vec res = a.multiply(col);
      EXPECT_LT(norm_inf(res), 1e-8);
    }
  }
}

TEST(OrthonormalizeTest, ProducesOrthonormalColumns) {
  Rng rng(11);
  Matrix a(6, 4);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
  const Matrix q = orthonormalize_columns(a);
  ASSERT_EQ(q.cols(), 4u);
  for (std::size_t i = 0; i < q.cols(); ++i) {
    for (std::size_t j = 0; j < q.cols(); ++j) {
      double d = 0.0;
      for (std::size_t r = 0; r < q.rows(); ++r) d += q(r, i) * q(r, j);
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(OrthonormalizeTest, DropsDependentColumns) {
  Matrix a(3, 3);
  // Third column = first + second.
  a(0, 0) = 1;
  a(1, 1) = 1;
  a(0, 2) = 1;
  a(1, 2) = 1;
  const Matrix q = orthonormalize_columns(a);
  EXPECT_EQ(q.cols(), 2u);
}

}  // namespace
}  // namespace rmp::num
