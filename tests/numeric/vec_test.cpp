#include "numeric/vec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace rmp::num {
namespace {

TEST(VecTest, InplaceOps) {
  Vec y{1.0, 1.0};
  add_inplace(y, Vec{2.0, 3.0});
  EXPECT_EQ(y, (Vec{3.0, 4.0}));
  sub_inplace(y, Vec{1.0, 1.0});
  EXPECT_EQ(y, (Vec{2.0, 3.0}));
  scale_inplace(y, -1.0);
  EXPECT_EQ(y, (Vec{-2.0, -3.0}));
  axpy(y, 2.0, Vec{1.0, 1.0});
  EXPECT_EQ(y, (Vec{0.0, -1.0}));
}

TEST(VecTest, DotAndNorms) {
  const Vec a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm1(a), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vec{-9.0, 2.0}), 9.0);
}

TEST(VecTest, Distances) {
  const Vec a{0.0, 0.0};
  const Vec b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dist(a, b), 5.0);
  EXPECT_DOUBLE_EQ(dist2(a, b), 25.0);  // squared, no sqrt
  EXPECT_DOUBLE_EQ(dist1(a, b), 7.0);
  EXPECT_DOUBLE_EQ(dist_inf(a, b), 4.0);
}

TEST(VecTest, DistSquaredConsistency) {
  const Vec a{1.0, 2.0, -3.0};
  const Vec b{0.5, -1.0, 4.0};
  EXPECT_NEAR(dist(a, b) * dist(a, b), dist2(a, b), 1e-12 * dist2(a, b));
  EXPECT_DOUBLE_EQ(dist2(a, a), 0.0);
}

TEST(VecTest, DistanceIsSymmetric) {
  const Vec a{1.0, -2.0, 0.5};
  const Vec b{-4.0, 0.25, 3.0};
  EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a));
  EXPECT_DOUBLE_EQ(dist2(a, b), dist2(b, a));
  EXPECT_DOUBLE_EQ(dist1(a, b), dist1(b, a));
  EXPECT_DOUBLE_EQ(dist_inf(a, b), dist_inf(b, a));
}

TEST(VecTest, ClampInplace) {
  Vec y{-5.0, 0.5, 10.0};
  const Vec lo{0.0, 0.0, 0.0};
  const Vec hi{1.0, 1.0, 1.0};
  clamp_inplace(y, lo, hi);
  EXPECT_EQ(y, (Vec{0.0, 0.5, 1.0}));
}

TEST(VecTest, AllFinite) {
  EXPECT_TRUE(all_finite(Vec{1.0, -2.0, 0.0}));
  EXPECT_FALSE(all_finite(Vec{1.0, std::numeric_limits<double>::quiet_NaN()}));
  EXPECT_FALSE(all_finite(Vec{std::numeric_limits<double>::infinity()}));
  EXPECT_TRUE(all_finite(Vec{}));
}

TEST(VecTest, BitwiseEqual) {
  const Vec a{1.0, 2.0};
  const Vec b{1.0, std::nextafter(2.0, 3.0)};
  EXPECT_TRUE(bitwise_equal(a, a));
  EXPECT_TRUE(bitwise_equal(Vec{}, Vec{}));
  EXPECT_FALSE(bitwise_equal(a, b));  // one ULP apart
  EXPECT_FALSE(bitwise_equal(a, Vec{1.0}));  // length mismatch
  // Numerically equal, distinct bit patterns.
  ASSERT_TRUE(0.0 == -0.0);
  EXPECT_FALSE(bitwise_equal(Vec{0.0}, Vec{-0.0}));
  // Same NaN pattern compares equal, unlike operator==.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(bitwise_equal(Vec{nan}, Vec{nan}));
}

// Property sweep: ||a+b|| <= ||a|| + ||b|| (triangle inequality) for a grid
// of scales.
class VecNormProperty : public ::testing::TestWithParam<double> {};

TEST_P(VecNormProperty, TriangleInequality) {
  const double s = GetParam();
  const Vec a{s, -2.0 * s, 3.0};
  const Vec b{-0.5, s, s * s};
  Vec sum = a;
  add_inplace(sum, b);
  EXPECT_LE(norm2(sum), norm2(a) + norm2(b) + 1e-12);
  EXPECT_LE(norm1(sum), norm1(a) + norm1(b) + 1e-12);
  EXPECT_LE(norm_inf(sum), norm_inf(a) + norm_inf(b) + 1e-12);
}

TEST_P(VecNormProperty, CauchySchwarz) {
  const double s = GetParam();
  const Vec a{s, 1.0, -s};
  const Vec b{2.0, -s, 0.25};
  EXPECT_LE(std::fabs(dot(a, b)), norm2(a) * norm2(b) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, VecNormProperty,
                         ::testing::Values(0.0, 0.1, 1.0, -3.0, 17.5, 1e6));

}  // namespace
}  // namespace rmp::num
