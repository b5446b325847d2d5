// Scratch-arena reuse contract (ARCHITECTURE.md, "kinetic engine v2"): a
// Workspace warms up to its high-water capacity during the first solve of a
// given shape, and every later same-shape solve through it performs ZERO
// allocations — allocation_events() goes quiet.  Run under ASan in CI
// (ci/build.sh SAN_TESTS) so leaks and lifetime bugs in the pool surface.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "numeric/newton.hpp"
#include "numeric/ode.hpp"
#include "numeric/shooting.hpp"
#include "numeric/workspace.hpp"

namespace rmp::num {
namespace {

void two_dim_system(std::span<const double> x, Vec& out) {
  out[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
  out[1] = x[0] * x[1] - 2.0;
}

void two_dim_jacobian(std::span<const double> x, Matrix& j) {
  j(0, 0) = 2.0 * x[0];
  j(0, 1) = 2.0 * x[1];
  j(1, 0) = x[1];
  j(1, 1) = x[0];
}

void stiff_rhs(double, std::span<const double> y, Vec& d) {
  d[0] = -1000.0 * (y[0] - std::cos(y[1]));
  d[1] = y[0] - y[1];
}

void stiff_jacobian(double, std::span<const double> y, Matrix& j) {
  j(0, 0) = -1000.0;
  j(0, 1) = -1000.0 * std::sin(y[1]);
  j(1, 0) = 1.0;
  j(1, 1) = -1.0;
}

void vdp_rhs(double, std::span<const double> y, Vec& d) {
  d[0] = y[1];
  d[1] = (1.0 - y[0] * y[0]) * y[1] - y[0];
}

void vdp_jacobian(double, std::span<const double> y, Matrix& j) {
  j(0, 1) = 1.0;
  j(1, 0) = -2.0 * y[0] * y[1] - 1.0;
  j(1, 1) = 1.0 - y[0] * y[0];
}

TEST(WorkspaceTest, PushPopReusesBuffers) {
  Workspace ws;
  {
    ScratchVec a(ws, 8);
    ScratchVec b(ws, 4);
    EXPECT_EQ(ws.in_use(), 2u);
    EXPECT_EQ(a.size(), 8u);
    EXPECT_EQ(b.size(), 4u);
  }
  EXPECT_EQ(ws.in_use(), 0u);
  const std::size_t warm = ws.allocation_events();
  for (int i = 0; i < 100; ++i) {
    ScratchVec a(ws, 8);  // first slot again, capacity already 8
    ScratchVec b(ws, 4);
    a[0] = 1.0;
    b[0] = 2.0;
  }
  EXPECT_EQ(ws.allocation_events(), warm);
}

TEST(WorkspaceTest, GrowingABufferCountsAnAllocationEvent) {
  Workspace ws;
  { ScratchVec a(ws, 4); }
  const std::size_t warm = ws.allocation_events();
  { ScratchVec a(ws, 4); }  // fits: quiet
  EXPECT_EQ(ws.allocation_events(), warm);
  { ScratchVec a(ws, 64); }  // must grow: one event
  EXPECT_EQ(ws.allocation_events(), warm + 1);
  { ScratchVec a(ws, 64); }  // grown capacity sticks
  EXPECT_EQ(ws.allocation_events(), warm + 1);
}

TEST(WorkspaceTest, MatrixAndLuPoolsReuse) {
  Workspace ws;
  {
    ScratchMat m(ws, 3, 3);
    m(0, 0) = 2.0;
    m(1, 1) = 3.0;
    m(2, 2) = 4.0;
    ScratchLu lu(ws);
    ASSERT_TRUE(lu.get().factor(m.get()));
    EXPECT_EQ(ws.in_use(), 2u);
  }
  EXPECT_EQ(ws.in_use(), 0u);
  const std::size_t warm = ws.allocation_events();
  for (int i = 0; i < 50; ++i) {
    ScratchMat m(ws, 3, 3);
    m(0, 0) = 1.0 + i;
    m(1, 1) = 1.0;
    m(2, 2) = 1.0;
    ScratchLu lu(ws);
    ASSERT_TRUE(lu.get().factor(m.get()));
  }
  EXPECT_EQ(ws.allocation_events(), warm);
}

TEST(WorkspaceTest, RepeatedNewtonSolvesGoQuietAfterWarmup) {
  Workspace ws;
  NewtonOptions opts;
  opts.workspace = &ws;
  opts.jacobian = two_dim_jacobian;
  const NonlinearSystem f = two_dim_system;

  const NewtonResult first = solve_newton(f, Vec{2.5, 0.5}, opts);
  ASSERT_TRUE(first.converged);
  EXPECT_GT(ws.allocation_events(), 0u);  // the warm-up did allocate
  EXPECT_EQ(ws.in_use(), 0u);

  const std::size_t warm = ws.allocation_events();
  for (int i = 0; i < 64; ++i) {
    const NewtonResult r = solve_newton(f, Vec{2.5, 0.5}, opts);
    ASSERT_TRUE(r.converged);
  }
  EXPECT_EQ(ws.allocation_events(), warm);
  EXPECT_EQ(ws.in_use(), 0u);
}

TEST(WorkspaceTest, RepeatedPtcSolvesGoQuietAfterWarmup) {
  Workspace ws;
  PtcOptions opts;
  opts.workspace = &ws;
  opts.jacobian = two_dim_jacobian;
  const NonlinearSystem f = two_dim_system;

  ASSERT_TRUE(solve_pseudo_transient(f, Vec{0.5, 0.5}, opts).converged);
  const std::size_t warm = ws.allocation_events();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(solve_pseudo_transient(f, Vec{0.5, 0.5}, opts).converged);
  }
  EXPECT_EQ(ws.allocation_events(), warm);
  EXPECT_EQ(ws.in_use(), 0u);
}

class WorkspaceOdeMethods : public ::testing::TestWithParam<OdeMethod> {};

TEST_P(WorkspaceOdeMethods, RepeatedIntegrationsGoQuietAfterWarmup) {
  Workspace ws;
  OdeOptions opts;
  opts.method = GetParam();
  opts.workspace = &ws;
  opts.abs_tol = 1e-8;
  opts.rel_tol = 1e-6;
  opts.jacobian = stiff_jacobian;
  const OdeRhs f = stiff_rhs;

  const OdeResult first = integrate(f, 0.0, Vec{0.0, 0.0}, 5.0, opts);
  ASSERT_TRUE(first.success);
  const std::size_t warm = ws.allocation_events();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(integrate(f, 0.0, Vec{0.0, 0.0}, 5.0, opts).success);
  }
  EXPECT_EQ(ws.allocation_events(), warm);
  EXPECT_EQ(ws.in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, WorkspaceOdeMethods,
                         ::testing::Values(OdeMethod::kRosenbrockW,
                                           OdeMethod::kRosenbrock3));

TEST(WorkspaceTest, RepeatedShootingSolvesGoQuietAfterWarmup) {
  Workspace ws;
  ShootingOptions opts;
  opts.workspace = &ws;
  opts.ode.workspace = &ws;
  opts.ode.method = OdeMethod::kRosenbrock3;
  opts.ode.max_step = 0.5;
  opts.ode.jacobian = vdp_jacobian;
  const OdeRhs f = vdp_rhs;

  const ShootingResult first = solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, opts);
  ASSERT_TRUE(first.converged);
  const std::size_t warm = ws.allocation_events();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(solve_limit_cycle(f, Vec{2.0, 0.0}, 6.5, opts).converged);
  }
  EXPECT_EQ(ws.allocation_events(), warm);
  EXPECT_EQ(ws.in_use(), 0u);
}

TEST(WorkspaceTest, ThreadLocalFallbackIsQuietOnRepeatSolves) {
  // Entry points without an explicit workspace share the thread's fallback
  // arena; after one warm-up the whole default path is allocation-free too.
  const NonlinearSystem f = two_dim_system;
  NewtonOptions opts;
  opts.jacobian = two_dim_jacobian;
  ASSERT_TRUE(solve_newton(f, Vec{2.5, 0.5}, opts).converged);
  Workspace& tls = Workspace::thread_local_instance();
  const std::size_t warm = tls.allocation_events();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(solve_newton(f, Vec{2.5, 0.5}, opts).converged);
  }
  EXPECT_EQ(tls.allocation_events(), warm);
}

}  // namespace
}  // namespace rmp::num
