#include "numeric/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace rmp::num {
namespace {

double mean(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

/// Sample standard deviation (n - 1 denominator).
double stddev(const std::vector<double>& xs) {
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(9);
  std::vector<double> xs(200000);
  for (double& x : xs) x = rng.uniform();
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(10);
  std::vector<double> xs(200000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(11);
  std::vector<double> xs(100000);
  for (double& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mean(xs), 5.0, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(13);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(14);
  std::set<long> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(15);
  const auto p = rng.permutation(50);
  std::vector<std::size_t> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(16);
  std::vector<int> v{1, 2, 2, 3, 5, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  std::sort(orig.begin(), orig.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SplitStreamsDiverge) {
  Rng parent(77);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next_u64() == child.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  // Engine must not be stuck at zero.
  std::uint64_t acc = 0;
  for (int i = 0; i < 10; ++i) acc |= rng.next_u64();
  EXPECT_NE(acc, 0u);
}

TEST(RngTest, StateRoundTripResumesBitExactly) {
  Rng a(42);
  for (int i = 0; i < 37; ++i) (void)a.next_u64();
  // One normal() from an empty bank leaves the Marsaglia second normal
  // cached — the state round-trip must carry it, or the resumed stream
  // skips a value.
  (void)a.normal();

  Rng b(999);  // deliberately different seed; set_state overwrites it
  b.set_state(a.state());
  EXPECT_EQ(a.normal(), b.normal());  // the cached normal itself
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.normal(), b.normal());
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, SetStateEscapesAllZeroState) {
  Rng rng(1);
  rng.set_state(Rng::State{});  // all-zero words would wedge xoshiro
  std::uint64_t acc = 0;
  for (int i = 0; i < 10; ++i) acc |= rng.next_u64();
  EXPECT_NE(acc, 0u);
}

}  // namespace
}  // namespace rmp::num
