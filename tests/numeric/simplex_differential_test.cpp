// Differential test: num::solve_lp against the dense simplex it replaced
// (reference_simplex.hpp).  The sparse-aware kernels promise the dense
// solver's answers bit for bit, so every comparison here is exact: the same
// status, the same pivot count, memcmp-equal x and an objective with the
// same bits.  Inputs are the seven Geobacter seed LPs and a seeded stream of
// small random sparse LPs mixing finite, infinite, free and fixed bounds,
// feasible, infeasible and unbounded, some solved with a short refactor
// interval so refactorization runs often.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "fba/geobacter.hpp"
#include "numeric/rng.hpp"
#include "numeric/simplex.hpp"
#include "reference_simplex.hpp"
#include "support/geobacter_seed_lps.hpp"

namespace rmp::num {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_bit_identical(const LpProblem& p, const LpOptions& opts, const std::string& label) {
  const LpSolution got = solve_lp(p, opts);
  const LpSolution want = reference::solve_lp(p, opts);
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_EQ(bits(got.objective_value), bits(want.objective_value)) << label;
  ASSERT_EQ(got.x.size(), want.x.size()) << label;
  if (!got.x.empty()) {
    EXPECT_EQ(std::memcmp(got.x.data(), want.x.data(), got.x.size() * sizeof(double)), 0)
        << label;
  }
}

/// A random LP with at most 24 rows and 36 columns.  Each column draws one of
/// five bound shapes; the right-hand side is either A x0 for an x0 inside the
/// box (feasible), a random vector (often infeasible) or zero (degenerate).
LpProblem random_lp(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t m = 1 + rng.uniform_index(24);
  const std::size_t n = 1 + rng.uniform_index(36);
  const double density = rng.uniform(0.05, 0.45);

  LpProblem p;
  p.constraint_matrix = Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!rng.bernoulli(density)) continue;
      // Small integers make ties in the ratio test and the LU pivot search.
      const double magnitude = static_cast<double>(rng.uniform_int(1, 4));
      p.constraint_matrix(i, j) = rng.bernoulli(0.5)
                                      ? (rng.bernoulli(0.5) ? magnitude : -magnitude)
                                      : rng.normal(0.0, 2.0);
    }
  }

  p.lower.resize(n);
  p.upper.resize(n);
  Vec x0(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double a = rng.uniform(-5.0, 5.0);
    const double b = a + rng.uniform(0.0, 10.0);
    switch (rng.uniform_index(5)) {
      case 0:  // nonnegative
        p.lower[j] = 0.0;
        p.upper[j] = kLpInfinity;
        x0[j] = rng.uniform(0.0, 5.0);
        break;
      case 1:  // finite box
        p.lower[j] = a;
        p.upper[j] = b;
        x0[j] = rng.uniform(a, b);
        break;
      case 2:  // free
        p.lower[j] = -kLpInfinity;
        p.upper[j] = kLpInfinity;
        x0[j] = rng.uniform(-5.0, 5.0);
        break;
      case 3:  // fixed
        p.lower[j] = a;
        p.upper[j] = a;
        x0[j] = a;
        break;
      default:  // bounded above only
        p.lower[j] = -kLpInfinity;
        p.upper[j] = b;
        x0[j] = b - rng.uniform(0.0, 5.0);
        break;
    }
  }

  switch (rng.uniform_index(3)) {
    case 0:
      p.rhs = p.constraint_matrix.multiply(x0);
      break;
    case 1:
      p.rhs.resize(m);
      for (double& v : p.rhs) v = rng.normal(0.0, 10.0);
      break;
    default:
      p.rhs.assign(m, 0.0);
      break;
  }

  p.objective.assign(n, 0.0);
  for (double& c : p.objective) {
    if (rng.bernoulli(0.7)) c = rng.normal(0.0, 1.0);
  }
  return p;
}

TEST(SimplexDifferentialTest, GeobacterSeedLpsAreBitIdenticalToDenseOracle) {
  const fba::MetabolicNetwork net = fba::build_geobacter();
  const auto lps = testing::geobacter_seed_lps(net);
  ASSERT_EQ(lps.size(), 7u);
  for (std::size_t k = 0; k < lps.size(); ++k) {
    expect_bit_identical(lps[k], LpOptions{}, "geobacter seed LP " + std::to_string(k));
  }
}

TEST(SimplexDifferentialTest, RandomSparseLpsAreBitIdenticalToDenseOracle) {
  std::array<std::size_t, 4> status_count{};
  constexpr std::uint64_t kCases = 240;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const LpProblem p = random_lp(seed);
    LpOptions opts;
    if (seed % 2 == 0) opts.refactor_interval = 4;
    expect_bit_identical(p, opts, "random LP seed " + std::to_string(seed));
    ++status_count[static_cast<std::size_t>(solve_lp(p, opts).status)];
  }
  // The stream must reach all three answers an LP can have.
  EXPECT_GE(status_count[static_cast<std::size_t>(LpStatus::kOptimal)], 40u);
  EXPECT_GE(status_count[static_cast<std::size_t>(LpStatus::kInfeasible)], 20u);
  EXPECT_GE(status_count[static_cast<std::size_t>(LpStatus::kUnbounded)], 20u);
}

}  // namespace
}  // namespace rmp::num
