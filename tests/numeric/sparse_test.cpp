#include "numeric/sparse.hpp"

#include <gtest/gtest.h>

#include "numeric/rng.hpp"

namespace rmp::num {
namespace {

SparseMatrix small() {
  SparseMatrix::Builder b(2, 3);
  b.add(0, 0, 1.0);
  b.add(0, 2, 2.0);
  b.add(1, 1, -3.0);
  return b.build();
}

TEST(SparseTest, BuildAndAccess) {
  const SparseMatrix m = small();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), -3.0);
}

TEST(SparseTest, DuplicateEntriesAreSummed) {
  SparseMatrix::Builder b(1, 1);
  b.add(0, 0, 1.5);
  b.add(0, 0, 2.5);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
}

TEST(SparseTest, CancellingDuplicatesVanish) {
  SparseMatrix::Builder b(1, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, -1.0);
  b.add(0, 1, 5.0);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(SparseTest, ZeroEntriesIgnored) {
  SparseMatrix::Builder b(2, 2);
  b.add(0, 0, 0.0);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 0u);
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(42);
  SparseMatrix::Builder b(20, 30);
  for (int k = 0; k < 100; ++k) {
    b.add(rng.uniform_index(20), rng.uniform_index(30), rng.normal());
  }
  const SparseMatrix m = b.build();
  const Matrix dense = m.to_dense();

  Vec x(30);
  for (double& v : x) v = rng.normal();

  const Vec ys = m.multiply(x);
  const Vec yd = dense.multiply(x);
  ASSERT_EQ(ys.size(), yd.size());
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseTest, ResidualNorm1) {
  const SparseMatrix m = small();
  // S x for x = (1, 1, 1): rows (3, -3) -> |3| + |-3| = 6.
  EXPECT_DOUBLE_EQ(m.residual_norm1(Vec{1.0, 1.0, 1.0}), 6.0);
  EXPECT_DOUBLE_EQ(m.residual_norm1(Vec{0.0, 0.0, 0.0}), 0.0);
}

TEST(SparseTest, EmptyMatrix) {
  SparseMatrix::Builder b(3, 3);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 0u);
  const Vec y = m.multiply(Vec{1.0, 2.0, 3.0});
  EXPECT_EQ(y, (Vec{0.0, 0.0, 0.0}));
}

}  // namespace
}  // namespace rmp::num
