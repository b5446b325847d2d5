#include "moo/operators.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "moo/dominance.hpp"

namespace rmp::moo {
namespace {

TEST(SbxTest, ChildrenWithinBounds) {
  num::Rng rng(1);
  const num::Vec p1{0.1, 0.9, 0.5};
  const num::Vec p2{0.8, 0.2, 0.5};
  const num::Vec lo(3, 0.0);
  const num::Vec hi(3, 1.0);
  num::Vec c1, c2;
  for (int trial = 0; trial < 500; ++trial) {
    sbx_crossover(p1, p2, lo, hi, 1.0, 15.0, rng, c1, c2);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GE(c1[i], 0.0);
      EXPECT_LE(c1[i], 1.0);
      EXPECT_GE(c2[i], 0.0);
      EXPECT_LE(c2[i], 1.0);
    }
  }
}

TEST(SbxTest, ZeroProbabilityCopiesParents) {
  num::Rng rng(2);
  const num::Vec p1{0.3, 0.7};
  const num::Vec p2{0.6, 0.1};
  const num::Vec lo(2, 0.0), hi(2, 1.0);
  num::Vec c1, c2;
  sbx_crossover(p1, p2, lo, hi, 0.0, 15.0, rng, c1, c2);
  EXPECT_EQ(c1, p1);
  EXPECT_EQ(c2, p2);
}

TEST(SbxTest, IdenticalParentsUnchanged) {
  num::Rng rng(3);
  const num::Vec p{0.4, 0.4};
  const num::Vec lo(2, 0.0), hi(2, 1.0);
  num::Vec c1, c2;
  for (int i = 0; i < 100; ++i) {
    sbx_crossover(p, p, lo, hi, 1.0, 15.0, rng, c1, c2);
    EXPECT_EQ(c1, p);
    EXPECT_EQ(c2, p);
  }
}

TEST(SbxTest, MeanOfChildrenNearParentMean) {
  // SBX is mean-preserving per variable (when no clamping occurs).
  num::Rng rng(4);
  const num::Vec p1{0.45};
  const num::Vec p2{0.55};
  const num::Vec lo(1, 0.0), hi(1, 1.0);
  num::Vec c1, c2;
  const int n = 4000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sbx_crossover(p1, p2, lo, hi, 1.0, 15.0, rng, c1, c2);
    sum += 0.5 * (c1[0] + c2[0]);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(SbxTest, HigherEtaStaysCloserToParents) {
  num::Rng rng_a(5), rng_b(5);
  const num::Vec p1{0.3};
  const num::Vec p2{0.7};
  const num::Vec lo(1, 0.0), hi(1, 1.0);
  num::Vec c1, c2;
  double spread_low_eta = 0.0, spread_high_eta = 0.0;
  for (int i = 0; i < 3000; ++i) {
    sbx_crossover(p1, p2, lo, hi, 1.0, 2.0, rng_a, c1, c2);
    spread_low_eta += std::fabs(c1[0] - 0.3) + std::fabs(c2[0] - 0.7);
    sbx_crossover(p1, p2, lo, hi, 1.0, 30.0, rng_b, c1, c2);
    spread_high_eta += std::fabs(c1[0] - 0.3) + std::fabs(c2[0] - 0.7);
  }
  EXPECT_LT(spread_high_eta, spread_low_eta);
}

TEST(MutationTest, StaysInBounds) {
  num::Rng rng(6);
  const num::Vec lo{-1.0, 0.0};
  const num::Vec hi{1.0, 10.0};
  for (int trial = 0; trial < 1000; ++trial) {
    num::Vec x{0.5, 5.0};
    polynomial_mutation(x, lo, hi, 1.0, 20.0, rng);
    EXPECT_GE(x[0], -1.0);
    EXPECT_LE(x[0], 1.0);
    EXPECT_GE(x[1], 0.0);
    EXPECT_LE(x[1], 10.0);
  }
}

TEST(MutationTest, ZeroProbabilityNoChange) {
  num::Rng rng(7);
  num::Vec x{0.25, 0.75};
  const num::Vec orig = x;
  const num::Vec lo(2, 0.0), hi(2, 1.0);
  polynomial_mutation(x, lo, hi, 0.0, 20.0, rng);
  EXPECT_EQ(x, orig);
}

TEST(MutationTest, DefaultRateIsOneOverN) {
  // With p = 1/n, on average one variable changes per call.
  num::Rng rng(8);
  const std::size_t n = 20;
  const num::Vec lo(n, 0.0), hi(n, 1.0);
  double changed = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    num::Vec x(n, 0.5);
    polynomial_mutation(x, lo, hi, -1.0, 20.0, rng);
    for (double v : x) changed += v != 0.5;
  }
  EXPECT_NEAR(changed / trials, 1.0, 0.15);
}

TEST(MutationTest, DegenerateBoundsUntouched) {
  num::Rng rng(9);
  num::Vec x{0.45};
  const num::Vec lo{0.45}, hi{0.45};
  polynomial_mutation(x, lo, hi, 1.0, 20.0, rng);
  EXPECT_DOUBLE_EQ(x[0], 0.45);
}

TEST(TournamentTest, PrefersDominatingIndividual) {
  num::Rng rng(10);
  std::vector<Individual> pop(2);
  pop[0].f = {1.0, 1.0};
  pop[1].f = {2.0, 2.0};
  pop[0].rank = 0;
  pop[1].rank = 1;
  int wins = 0;
  for (int t = 0; t < 1000; ++t) {
    wins += binary_tournament(pop, rng) == 0;
  }
  // Index 0 wins every mixed tournament and half of the self-tournaments.
  EXPECT_GT(wins, 700);
}

TEST(TournamentTest, FeasibilityDominatesQuality) {
  num::Rng rng(11);
  std::vector<Individual> pop(2);
  pop[0].f = {100.0, 100.0};
  pop[0].violation = 0.0;
  pop[1].f = {0.0, 0.0};
  pop[1].violation = 5.0;
  int wins = 0;
  for (int t = 0; t < 1000; ++t) wins += binary_tournament(pop, rng) == 0;
  EXPECT_GT(wins, 700);
}

TEST(TournamentTest, CrowdingBreaksTies) {
  num::Rng rng(12);
  std::vector<Individual> pop(2);
  pop[0].f = {1.0, 2.0};
  pop[1].f = {2.0, 1.0};
  pop[0].rank = pop[1].rank = 0;
  pop[0].crowding = 10.0;
  pop[1].crowding = 0.1;
  int wins = 0;
  for (int t = 0; t < 1000; ++t) wins += binary_tournament(pop, rng) == 0;
  EXPECT_GT(wins, 700);
}

}  // namespace
}  // namespace rmp::moo
