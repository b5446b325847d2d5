#include "robustness/perturbation.hpp"
#include "robustness/yield.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "support/per_variable_local_yield.hpp"

namespace rmp::robustness {
namespace {

TEST(PerturbationTest, GlobalStaysWithinRelativeBand) {
  num::Rng rng(1);
  PerturbationConfig cfg;
  cfg.global_trials = 500;
  const num::Vec x{1.0, 10.0, 100.0};
  for (const num::Vec& p : global_ensemble(x, cfg, rng)) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(p[i], x[i] * 0.9 - 1e-12);
      EXPECT_LE(p[i], x[i] * 1.1 + 1e-12);
    }
  }
}

TEST(PerturbationTest, LocalChangesOnlyOneCoordinate) {
  num::Rng rng(2);
  PerturbationConfig cfg;
  cfg.local_trials_per_variable = 100;
  const num::Vec x{1.0, 2.0, 3.0};
  for (const num::Vec& p : local_ensemble(x, 1, cfg, rng)) {
    EXPECT_DOUBLE_EQ(p[0], 1.0);
    EXPECT_DOUBLE_EQ(p[2], 3.0);
    EXPECT_GE(p[1], 1.8 - 1e-12);
    EXPECT_LE(p[1], 2.2 + 1e-12);
  }
}

TEST(PerturbationTest, EnsembleSizesMatchPaper) {
  // Paper: 5x10^3 global trials; 200 local trials per enzyme.
  num::Rng rng(3);
  PerturbationConfig cfg;
  const num::Vec x(23, 1.0);
  EXPECT_EQ(global_ensemble(x, cfg, rng).size(), 5000u);
  EXPECT_EQ(local_ensemble(x, 0, cfg, rng).size(), 200u);
}

TEST(PerturbationTest, BoundsClampApplied) {
  num::Rng rng(4);
  PerturbationConfig cfg;
  cfg.max_relative = 0.5;
  cfg.lower = {0.95};
  cfg.upper = {1.05};
  cfg.global_trials = 200;
  const num::Vec x{1.0};
  for (const num::Vec& p : global_ensemble(x, cfg, rng)) {
    EXPECT_GE(p[0], 0.95);
    EXPECT_LE(p[0], 1.05);
  }
}

TEST(RhoTest, ThresholdSemantics) {
  // eq. 3: rho = 1 iff |f(x) - f(x*)| <= eps; eps = 5% of 10 = 0.5.
  const auto robust = [](double perturbed) {
    return summarize_ensemble(10.0, 0.05, std::span<const double>(&perturbed, 1))
               .robust_trials == 1;
  };
  EXPECT_TRUE(robust(10.4));
  EXPECT_TRUE(robust(9.6));
  EXPECT_FALSE(robust(10.6));
  EXPECT_TRUE(robust(10.5));  // boundary inclusive
}

TEST(YieldTest, ConstantFunctionIsFullyRobust) {
  const PropertyFn constant = [](std::span<const double>) { return 7.0; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 500;
  const YieldResult r = global_yield(num::Vec{1.0, 2.0}, constant, cfg);
  EXPECT_DOUBLE_EQ(r.gamma, 1.0);
  EXPECT_EQ(r.robust_trials, 500u);
  EXPECT_DOUBLE_EQ(r.nominal_value, 7.0);
}

TEST(YieldTest, HypersensitiveFunctionHasZeroYield) {
  // Any perturbation multiplies the output far beyond 5%.
  const PropertyFn sensitive = [](std::span<const double> x) {
    return std::exp(100.0 * (x[0] - 1.0));
  };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 500;
  const YieldResult r = global_yield(num::Vec{1.0}, sensitive, cfg);
  EXPECT_LT(r.gamma, 0.1);
}

TEST(YieldTest, LinearFunctionPartialYield) {
  // f = x: 10% perturbation, 5% threshold -> about half the trials robust.
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 4000;
  const YieldResult r = global_yield(num::Vec{1.0}, identity, cfg);
  EXPECT_NEAR(r.gamma, 0.5, 0.05);
}

TEST(YieldTest, EpsilonIsRelativeToNominal) {
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 100;
  const YieldResult r = global_yield(num::Vec{40.0}, identity, cfg);
  EXPECT_NEAR(r.absolute_threshold, 2.0, 1e-12);  // 5% of 40
}

TEST(YieldTest, LocalYieldIsolatesFragileVariable) {
  // Output depends violently on x0 and not at all on x1.
  const PropertyFn f = [](std::span<const double> x) {
    return std::exp(50.0 * (x[0] - 1.0)) + 0.0 * x[1];
  };
  YieldConfig cfg;
  cfg.perturbation.local_trials_per_variable = 400;
  const auto locals = local_yields(num::Vec{1.0, 1.0}, f, cfg);
  ASSERT_EQ(locals.size(), 2u);
  EXPECT_LT(locals[0].gamma, 0.2);
  EXPECT_DOUBLE_EQ(locals[1].gamma, 1.0);
}

// local_yields scores every variable's ensemble through one chunked
// scorer call; each variable's result must still be exactly the answer of
// its own per-variable batch.  7 variables x 300 trials split into chunks
// of 3, 3 and 1 ensembles; the upper bounds clamp a quarter of the draws.
TEST(YieldTest, LocalYieldsMatchPerVariableOracleBitForBit) {
  const PropertyFn f = [](std::span<const double> x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      s += std::sin(static_cast<double>(i + 1) * x[i]) * x[(i + 1) % x.size()];
    }
    return s;
  };
  const num::Vec x{0.3, 1.1, 2.0, 0.7, 1.6, 0.9, 1.3};
  YieldConfig cfg;
  cfg.seed = 23;
  cfg.perturbation.local_trials_per_variable = 300;
  cfg.perturbation.max_relative = 0.2;
  cfg.perturbation.lower.assign(x.size(), 0.0);
  for (const double v : x) cfg.perturbation.upper.push_back(1.1 * v);
  ASSERT_GT(x.size() * 300, kEnsembleChunkTrials);
  ASSERT_NE(x.size() % (kEnsembleChunkTrials / 300), 0u);

  const double nominal = f(x);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    cfg.threads = threads;
    const std::vector<YieldResult> locals = local_yields(x, f, cfg);
    ASSERT_EQ(locals.size(), x.size());
    std::set<double> distinct;
    for (std::size_t var = 0; var < x.size(); ++var) {
      const YieldResult expected =
          rmp::testing::per_variable_local_yield(x, var, nominal, f, cfg);
      const YieldResult& got = locals[var];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gamma),
                std::bit_cast<std::uint64_t>(expected.gamma))
          << "threads=" << threads << " var " << var;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.nominal_value),
                std::bit_cast<std::uint64_t>(expected.nominal_value));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.absolute_threshold),
                std::bit_cast<std::uint64_t>(expected.absolute_threshold));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_deviation),
                std::bit_cast<std::uint64_t>(expected.max_deviation));
      EXPECT_EQ(got.robust_trials, expected.robust_trials);
      EXPECT_EQ(got.total_trials, 300u);
      distinct.insert(got.gamma);
    }
    EXPECT_GE(distinct.size(), 3u) << "near-constant gammas would not test the variables";
  }
}

TEST(YieldTest, DeterministicForSeed) {
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig cfg;
  cfg.perturbation.global_trials = 300;
  cfg.seed = 17;
  const YieldResult a = global_yield(num::Vec{1.0}, identity, cfg);
  const YieldResult b = global_yield(num::Vec{1.0}, identity, cfg);
  EXPECT_EQ(a.robust_trials, b.robust_trials);
}

// Parameterized sweep over epsilon: yield must be monotone non-decreasing
// in the robustness threshold.
class YieldEpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(YieldEpsilonSweep, MonotoneInEpsilon) {
  const PropertyFn identity = [](std::span<const double> x) { return x[0]; };
  YieldConfig tight;
  tight.perturbation.global_trials = 1500;
  tight.epsilon_fraction = GetParam();
  YieldConfig loose = tight;
  loose.epsilon_fraction = GetParam() * 2.0;
  const double g_tight = global_yield(num::Vec{1.0}, identity, tight).gamma;
  const double g_loose = global_yield(num::Vec{1.0}, identity, loose).gamma;
  EXPECT_LE(g_tight, g_loose + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, YieldEpsilonSweep,
                         ::testing::Values(0.01, 0.02, 0.05, 0.08));

}  // namespace
}  // namespace rmp::robustness
