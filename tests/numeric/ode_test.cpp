#include "numeric/ode.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "kinetics/c3model.hpp"
#include "numeric/rng.hpp"
#include "numeric/workspace.hpp"

namespace rmp::num {
namespace {

// y' = -y, y(0) = 1  =>  y(t) = exp(-t).
const OdeRhs kDecay = [](double, std::span<const double> y, Vec& d) {
  d[0] = -y[0];
};

// Harmonic oscillator: y'' = -y as a 2-state system; energy is conserved.
const OdeRhs kOscillator = [](double, std::span<const double> y, Vec& d) {
  d[0] = y[1];
  d[1] = -y[0];
};

// Classic stiff problem: y' = -1000 (y - cos(t)) - sin(t); y -> cos(t).
const OdeRhs kStiff = [](double t, std::span<const double> y, Vec& d) {
  d[0] = -1000.0 * (y[0] - std::cos(t)) - std::sin(t);
};

struct MethodParam {
  OdeMethod method;
  // GoogleTest names each case after a dump of this struct's bytes.  An
  // explicit zero word where alignment padding would sit keeps those names
  // the same from run to run; padding would print leftover memory.
  std::uint32_t zero = 0;
  double tolerance;  // acceptance tolerance on the final value
};
static_assert(sizeof(MethodParam) ==
              sizeof(OdeMethod) + sizeof(std::uint32_t) + sizeof(double));

class OdeMethodTest : public ::testing::TestWithParam<MethodParam> {};

TEST_P(OdeMethodTest, ExponentialDecay) {
  OdeOptions opts;
  opts.method = GetParam().method;
  opts.initial_step = 1e-3;
  const OdeResult r = integrate(kDecay, 0.0, Vec{1.0}, 2.0, opts);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.y[0], std::exp(-2.0), GetParam().tolerance);
}

TEST_P(OdeMethodTest, OscillatorPhase) {
  OdeOptions opts;
  opts.method = GetParam().method;
  opts.initial_step = 1e-3;
  opts.abs_tol = 1e-9;
  opts.rel_tol = 1e-8;
  const double t_end = 3.14159265358979323846;  // half period
  const OdeResult r = integrate(kOscillator, 0.0, Vec{1.0, 0.0}, t_end, opts);
  ASSERT_TRUE(r.success);
  // After half a period the state is (-1, 0).
  EXPECT_NEAR(r.y[0], -1.0, 50 * GetParam().tolerance);
  EXPECT_NEAR(r.y[1], 0.0, 50 * GetParam().tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, OdeMethodTest,
    ::testing::Values(
        MethodParam{.method = OdeMethod::kDormandPrince54, .tolerance = 1e-6},
        MethodParam{.method = OdeMethod::kRosenbrockW, .tolerance = 1e-4}));

TEST(OdeTest, StiffProblemWithRosenbrock) {
  OdeOptions opts;
  opts.method = OdeMethod::kRosenbrockW;
  opts.initial_step = 1e-4;
  opts.max_step = 0.5;
  const OdeResult r = integrate(kStiff, 0.0, Vec{0.0}, 5.0, opts);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.y[0], std::cos(5.0), 1e-3);
}

TEST(OdeTest, StiffProblemExplicitIsStabilityLimited) {
  // At loose accuracy the explicit method is limited by stability (step size
  // ~ 2.8/1000 regardless of tolerance) while the L-stable Rosenbrock method
  // is limited only by accuracy — this is why the stiff path exists.
  OdeOptions opts;
  opts.method = OdeMethod::kDormandPrince54;
  opts.abs_tol = 1e-6;
  opts.rel_tol = 1e-4;
  const OdeResult explicit_r = integrate(kStiff, 0.0, Vec{0.0}, 5.0, opts);
  ASSERT_TRUE(explicit_r.success);
  EXPECT_NEAR(explicit_r.y[0], std::cos(5.0), 1e-3);
  const std::size_t explicit_attempts = explicit_r.steps + explicit_r.rejected;

  opts.method = OdeMethod::kRosenbrockW;
  opts.initial_step = 1e-4;
  opts.max_step = 0.5;
  const OdeResult stiff_r = integrate(kStiff, 0.0, Vec{0.0}, 5.0, opts);
  ASSERT_TRUE(stiff_r.success);
  EXPECT_NEAR(stiff_r.y[0], std::cos(5.0), 1e-3);
  EXPECT_LT(stiff_r.steps + stiff_r.rejected, explicit_attempts / 5);
}

TEST(OdeTest, AdaptiveTightensWithTolerance) {
  OdeOptions loose;
  loose.method = OdeMethod::kDormandPrince54;
  loose.abs_tol = 1e-4;
  loose.rel_tol = 1e-3;
  OdeOptions tight = loose;
  tight.abs_tol = 1e-12;
  tight.rel_tol = 1e-11;

  const OdeResult rl = integrate(kDecay, 0.0, Vec{1.0}, 2.0, loose);
  const OdeResult rt = integrate(kDecay, 0.0, Vec{1.0}, 2.0, tight);
  ASSERT_TRUE(rl.success && rt.success);
  const double exact = std::exp(-2.0);
  EXPECT_LE(std::fabs(rt.y[0] - exact), std::fabs(rl.y[0] - exact) + 1e-15);
  EXPECT_GT(rt.steps, rl.steps);
}

TEST(OdeTest, StateFloorEnforced) {
  OdeOptions opts;
  opts.method = OdeMethod::kDormandPrince54;
  opts.state_floor = 0.0;
  // Aggressive decay would overshoot below zero with large steps; the floor
  // keeps concentrations physical.
  const OdeRhs f = [](double, std::span<const double> y, Vec& d) {
    d[0] = -5.0 * y[0] - 0.1;
  };
  const OdeResult r = integrate(f, 0.0, Vec{1.0}, 10.0, opts);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.y[0], 0.0);
}

TEST(OdeTest, NumericJacobianOfLinearSystem) {
  // f = A y with A = [[1, 2], [3, 4]]: the Jacobian is A itself.
  const OdeRhs f = [](double, std::span<const double> y, Vec& d) {
    d[0] = 1.0 * y[0] + 2.0 * y[1];
    d[1] = 3.0 * y[0] + 4.0 * y[1];
  };
  Matrix j(2, 2);
  std::size_t rhs_evals = 0;
  fd_jacobian(f, 0.0, Vec{1.0, 1.0}, 1e-7, Workspace::thread_local_instance(),
              j, rhs_evals);
  EXPECT_EQ(rhs_evals, 3u);  // base + one per column
  EXPECT_NEAR(j(0, 0), 1.0, 1e-5);
  EXPECT_NEAR(j(0, 1), 2.0, 1e-5);
  EXPECT_NEAR(j(1, 0), 3.0, 1e-5);
  EXPECT_NEAR(j(1, 1), 4.0, 1e-5);
}

TEST(OdeTest, ZeroLengthIntervalIsIdentity) {
  const OdeResult r = integrate(kDecay, 1.0, Vec{0.7}, 1.0, {});
  EXPECT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.y[0], 0.7);
  EXPECT_EQ(r.steps, 0u);
}

// --- ROS2 step doubling: bit identity with the three-factorization form --
// The driver factors W(h/2) once for both half steps and evaluates f(t, y)
// once for the full step and the first half step.  The oracle below is the
// form it replaced — every ROS2 step factors its own W and evaluates its
// own stage-1 slope — kept here to pin the rewrite to the same bits.

double oracle_error_norm(const Vec& err, const Vec& y0, const Vec& y1,
                         double abs_tol, double rel_tol) {
  double acc = 0.0;
  for (std::size_t i = 0; i < err.size(); ++i) {
    const double scale =
        abs_tol + rel_tol * std::max(std::fabs(y0[i]), std::fabs(y1[i]));
    const double e = err[i] / scale;
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(err.size()));
}

/// One ROS2 step with its own factorization and stage-1 slope; false when
/// W is singular.
bool oracle_ros2_step(const OdeRhs& f, double t, const Vec& y, double h,
                      const Matrix& j, Vec& y_new, OdeResult& stats) {
  const std::size_t n = y.size();
  const double gamma = 1.0 - 1.0 / std::sqrt(2.0);
  Matrix w(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      w(r, c) = (r == c ? 1.0 : 0.0) - gamma * h * j(r, c);
  LuFactorization lu;
  if (!lu.factor(w)) return false;

  Vec f0(n, 0.0), k1, f1(n, 0.0), rhs2(n), k2;
  f(t, y, f0);
  ++stats.rhs_evals;
  lu.solve_into(f0, k1);
  Vec y1 = y;
  axpy(y1, h, k1);
  f(t + h, y1, f1);
  ++stats.rhs_evals;
  for (std::size_t i = 0; i < n; ++i) rhs2[i] = f1[i] - 2.0 * k1[i];
  lu.solve_into(rhs2, k2);
  y_new = y;
  for (std::size_t i = 0; i < n; ++i) y_new[i] += h * (1.5 * k1[i] + 0.5 * k2[i]);
  return true;
}

/// The three-factorization ROS2 driver.  `factorized_trials` counts the
/// trials that factored W(h/2), i.e. ran both half steps.
OdeResult oracle_rosenbrock(const OdeRhs& f_user, double t0,
                            std::span<const double> y0, double t_end,
                            const OdeOptions& opts,
                            std::size_t& factorized_trials) {
  const std::size_t n_user = y0.size();
  const auto augmented = [&f_user, n_user](double, std::span<const double> y,
                                           Vec& d) {
    Vec inner(n_user, 0.0);
    f_user(y[n_user], y.first(n_user), inner);
    for (std::size_t i = 0; i < n_user; ++i) d[i] = inner[i];
    d[n_user] = 1.0;
  };
  const OdeRhs f = augmented;

  OdeResult res;
  res.y.assign(y0.begin(), y0.end());
  res.y.push_back(t0);
  res.t = t0;
  const std::size_t n = res.y.size();
  Vec y_full, y_half, y_two, err(n);
  double h = std::clamp(opts.initial_step, opts.min_step, opts.max_step);
  factorized_trials = 0;

  while (res.t < t_end && res.steps < opts.max_steps) {
    res.last_step = h;
    h = std::min(h, t_end - res.t);

    Matrix j(n, n);
    if (opts.jacobian) {
      Matrix ju(n_user, n_user);
      opts.jacobian(res.y[n_user], std::span<const double>(res.y).first(n_user),
                    ju);
      for (std::size_t r = 0; r < n_user; ++r)
        for (std::size_t c = 0; c < n_user; ++c) j(r, c) = ju(r, c);
    } else {
      fd_jacobian(f, res.t, res.y, 1e-7, Workspace::thread_local_instance(),
                  j, res.rhs_evals);
    }

    bool ok = oracle_ros2_step(f, res.t, res.y, h, j, y_full, res);
    ok = ok && oracle_ros2_step(f, res.t, res.y, 0.5 * h, j, y_half, res);
    if (ok) ++factorized_trials;
    ok = ok && oracle_ros2_step(f, res.t + 0.5 * h, y_half, 0.5 * h, j, y_two,
                                res);
    if (!ok) {
      h *= 0.5;
      ++res.rejected;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
      continue;
    }

    for (std::size_t i = 0; i < n; ++i) err[i] = (y_two[i] - y_full[i]) / 3.0;
    const double en = oracle_error_norm(err, res.y, y_two, opts.abs_tol, opts.rel_tol);
    if (en <= 1.0 && all_finite(y_two)) {
      res.t += h;
      res.y = y_two;
      add_inplace(res.y, err);
      if (opts.state_floor > -1e299) {
        for (std::size_t i = 0; i < n_user; ++i) {
          res.y[i] = std::max(res.y[i], opts.state_floor);
        }
      }
      res.y[n_user] = res.t;
      ++res.steps;
      const double factor =
          en > 0.0 ? std::clamp(0.9 * std::pow(en, -1.0 / 3.0), 0.2, 5.0) : 5.0;
      h = std::clamp(h * factor, opts.min_step, opts.max_step);
    } else {
      ++res.rejected;
      h *= 0.5;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
    }
  }
  res.success = res.t >= t_end;
  res.y.pop_back();
  return res;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Runs the driver and the oracle over the same problem and checks that
/// they agree bit for bit, with exactly one RHS evaluation saved per
/// factorized trial.
void expect_ros2_matches_oracle(const OdeRhs& f, std::span<const double> y0,
                                double t_end, const OdeOptions& opts) {
  ASSERT_EQ(opts.method, OdeMethod::kRosenbrockW);
  std::size_t factorized_trials = 0;
  const OdeResult want = oracle_rosenbrock(f, 0.0, y0, t_end, opts, factorized_trials);
  const OdeResult got = integrate(f, 0.0, y0, t_end, opts);
  ASSERT_TRUE(want.success);
  ASSERT_TRUE(got.success);
  ASSERT_EQ(got.y.size(), want.y.size());
  for (std::size_t i = 0; i < got.y.size(); ++i) {
    EXPECT_TRUE(same_bits(got.y[i], want.y[i]))
        << "i=" << i << " got " << got.y[i] << " want " << want.y[i];
  }
  EXPECT_TRUE(same_bits(got.t, want.t));
  EXPECT_TRUE(same_bits(got.last_step, want.last_step));
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_GT(got.rejected, 0u) << "no rejected trial: weak coverage";
  EXPECT_GT(factorized_trials, 0u);
  EXPECT_EQ(want.rhs_evals - got.rhs_evals, factorized_trials);
}

TEST(Ros2StepDoublingTest, VanDerPolMatchesThreeFactorizationOracle) {
  // mu = 5: relaxation oscillations, stiff enough to reject steps.
  const auto vdp = [](double, std::span<const double> y, Vec& d) {
    d[0] = y[1];
    d[1] = 5.0 * (1.0 - y[0] * y[0]) * y[1] - y[0];
  };
  const auto vdp_jac = [](double, std::span<const double> y, Matrix& j) {
    j(0, 1) = 1.0;
    j(1, 0) = -10.0 * y[0] * y[1] - 1.0;
    j(1, 1) = 5.0 * (1.0 - y[0] * y[0]);
  };
  OdeOptions opts;
  opts.method = OdeMethod::kRosenbrockW;
  opts.abs_tol = 1e-6;
  opts.rel_tol = 1e-4;
  opts.max_step = 0.5;
  opts.jacobian = vdp_jac;
  expect_ros2_matches_oracle(vdp, Vec{2.0, 0.0}, 20.0, opts);
}

TEST(Ros2StepDoublingTest, C3CycleCandidateMatchesThreeFactorizationOracle) {
  // A near-natural partition inside the model's oscillatory shell, on the
  // window average's integrator settings and analytic Jacobian.
  const kinetics::C3Model model;
  Rng rng(20260808);
  Vec mult(kinetics::kNumEnzymes);
  for (double& m : mult) m = std::clamp(1.0 + rng.normal(0.0, 0.05), 0.02, 5.0);
  ASSERT_TRUE(model.steady_state(mult).oscillatory);

  const auto rhs = [&](double, std::span<const double> y, Vec& d) {
    model.derivatives(y, mult, d);
  };
  Vec dydt;
  const auto jac = [&](double, std::span<const double> y, Matrix& j) {
    model.derivatives_and_jacobian(y, mult, dydt, j);
  };
  OdeOptions opts;
  opts.method = OdeMethod::kRosenbrockW;
  opts.abs_tol = 1e-6;
  opts.rel_tol = 1e-4;
  opts.state_floor = 0.0;
  opts.max_step = 20.0;
  opts.jacobian = jac;
  expect_ros2_matches_oracle(rhs, model.natural_state().state, 60.0, opts);
}

TEST(Ros2StepDoublingTest, ForcedProblemOnFdJacobianMatchesOracle) {
  // No analytic Jacobian: the finite-difference build of the augmented
  // system picks up the df/dt column of the forcing.
  OdeOptions opts;
  opts.method = OdeMethod::kRosenbrockW;
  opts.initial_step = 1e-1;
  opts.max_step = 0.5;
  expect_ros2_matches_oracle(kStiff, Vec{0.0}, 5.0, opts);
}

}  // namespace
}  // namespace rmp::num
