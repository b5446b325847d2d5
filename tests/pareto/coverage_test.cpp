#include "pareto/coverage.hpp"

#include <gtest/gtest.h>

namespace rmp::pareto {
namespace {

Individual make(double f0, double f1) {
  Individual ind;
  ind.f = {f0, f1};
  return ind;
}

TEST(CoverageTest, IdenticalFrontFullCoverage) {
  Front a;
  a.add(make(1.0, 3.0));
  a.add(make(3.0, 1.0));
  const CoverageResult r = coverage(a, a);
  EXPECT_DOUBLE_EQ(r.global, 1.0);
  EXPECT_DOUBLE_EQ(r.relative, 1.0);
  EXPECT_EQ(r.in_union, 2u);
}

TEST(CoverageTest, DominatedFrontZeroCoverage) {
  Front winner, loser;
  winner.add(make(0.5, 0.5));
  loser.add(make(1.0, 1.0));
  loser.add(make(2.0, 0.8));
  const std::vector<Front> fronts{winner, loser};
  const Front global = Front::global_union(fronts);
  const CoverageResult w = coverage(winner, global);
  const CoverageResult l = coverage(loser, global);
  EXPECT_DOUBLE_EQ(w.relative, 1.0);
  EXPECT_DOUBLE_EQ(w.global, 1.0);
  EXPECT_DOUBLE_EQ(l.relative, 0.0);
  EXPECT_DOUBLE_EQ(l.global, 0.0);
}

TEST(CoverageTest, PartialOverlap) {
  Front a, b;
  a.add(make(1.0, 4.0));  // globally optimal
  a.add(make(3.0, 3.0));  // dominated by b's (2, 2)
  b.add(make(2.0, 2.0));  // globally optimal
  b.add(make(4.0, 1.0));  // globally optimal
  const std::vector<Front> fronts{a, b};
  const auto results = coverage_against_union(fronts);
  // Union front: (1,4), (2,2), (4,1) -> size 3.
  EXPECT_EQ(results[0].in_union, 1u);
  EXPECT_NEAR(results[0].global, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(results[0].relative, 0.5, 1e-12);
  EXPECT_EQ(results[1].in_union, 2u);
  EXPECT_NEAR(results[1].global, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(results[1].relative, 1.0, 1e-12);
}

TEST(CoverageTest, GpRewardsLargeFronts) {
  // Two disjoint halves of the same global front: the bigger one has the
  // higher Gp though both have Rp = 1 (the property the paper discusses).
  Front big, small;
  for (int i = 0; i < 8; ++i) big.add(make(i, 10.0 - i));
  small.add(make(20.0, -11.0));
  const std::vector<Front> fronts{big, small};
  const auto results = coverage_against_union(fronts);
  EXPECT_DOUBLE_EQ(results[0].relative, 1.0);
  EXPECT_DOUBLE_EQ(results[1].relative, 1.0);
  EXPECT_GT(results[0].global, results[1].global);
}

TEST(CoverageTest, EmptyFront) {
  Front empty, other;
  other.add(make(1.0, 1.0));
  const CoverageResult r = coverage(empty, other);
  EXPECT_DOUBLE_EQ(r.relative, 0.0);
  EXPECT_DOUBLE_EQ(r.global, 0.0);
}

}  // namespace
}  // namespace rmp::pareto
