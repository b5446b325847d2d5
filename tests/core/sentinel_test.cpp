// Runtime-sentinel coverage: the allocation-counting operator new hook and
// the deterministic-region guard (src/core/sentinel.*).
//
// The headline test is the hard form of PR 7's arena claim: a warm settled
// steady_state solve — an exact repeat of a pooled candidate through
// C3Model::steady_state_into — performs ZERO heap allocations.  Not "few",
// not "amortized": zero, counted by the operator-new replacement.  The death
// tests then prove the sentinels actually fire: a deliberately-allocating
// solve under ScopedAllocationBan aborts, and touching history-bearing
// state (a thread-local cache, a pool commit) inside a deterministic region
// aborts.
//
// Everything here skips in builds without RMP_SENTINELS (plain Release):
// the hooks are compiled into Debug and sanitizer configurations, which is
// where ci/build.sh runs this binary.
#include "core/sentinel.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.hpp"
#include "kinetics/c3model.hpp"
#include "kinetics/enzymes.hpp"
#include "kinetics/warm_start.hpp"
#include "numeric/vec.hpp"

namespace rmp {
namespace {

#define SKIP_WITHOUT_SENTINELS()                                   \
  if (!core::alloc_sentinel_enabled()) {                           \
    GTEST_SKIP() << "RMP_SENTINELS not compiled into this build"; \
  }

TEST(AllocSentinel, CountsHeapAllocations) {
  SKIP_WITHOUT_SENTINELS();
  const std::uint64_t before = core::thread_allocation_count();
  {
    std::vector<double> v(1024);
    ASSERT_EQ(v.size(), 1024u);
  }
  const std::uint64_t after = core::thread_allocation_count();
  EXPECT_GE(after - before, 1u);
}

TEST(AllocSentinel, BanIsScopedAndNests) {
  SKIP_WITHOUT_SENTINELS();
  // A nested ban must restore the OUTER ban on destruction, not lift it;
  // here both scopes end before any allocation happens, so nothing fires.
  {
    core::ScopedAllocationBan outer("outer");
    { core::ScopedAllocationBan inner("inner"); }
  }
  std::vector<double> fine(16);
  EXPECT_EQ(fine.size(), 16u);
}

TEST(AllocSentinelDeathTest, AllocationUnderBanAborts) {
  SKIP_WITHOUT_SENTINELS();
  EXPECT_DEATH(
      {
        core::ScopedAllocationBan ban("sentinel_test deliberate allocation");
        // Direct operator-new call: a `new int[32]` expression may legally be
        // elided by the optimizer (and GCC does at -O2), which would make
        // this child "fail to die".
        ::operator delete(::operator new(32));
      },
      "heap allocation under ScopedAllocationBan");
}

// The satellite case from the issue: deliberately allocate inside an
// arena-backed solve and assert the sentinel fires.  A COLD solve of a
// never-seen candidate must allocate (result staging, pool entries) — that
// IS the deliberate allocation, placed in the middle of the arena-backed
// solver machinery — so running it under a ban aborts.
TEST(AllocSentinelDeathTest, ColdSolveUnderBanAborts) {
  SKIP_WITHOUT_SENTINELS();
  kinetics::C3Model model;
  num::Vec mult(kinetics::kNumEnzymes, 1.0);
  mult[0] = 1.17;  // not pooled: forces the allocating ladder
  EXPECT_DEATH(
      {
        core::ScopedAllocationBan ban("cold steady_state under ban");
        kinetics::SteadyState out;
        model.steady_state_into(mult, out);
      },
      "heap allocation under ScopedAllocationBan");
}

// PR 7's claim as a hard gate: once a candidate's root is committed in the
// warm pool and the thread's buffers are warm, re-solving that candidate
// through steady_state_into is a WARM SETTLED SOLVE and performs zero heap
// allocations — the answer comes from the pool's exact-key short circuit,
// scratch from the thread workspace arena, and the state lands in reused
// capacity.
TEST(AllocSentinel, WarmSettledSolveAllocatesNothing) {
  SKIP_WITHOUT_SENTINELS();
  kinetics::C3Model model;
  const num::Vec mult(kinetics::kNumEnzymes, 1.0);

  // Prime: solve + commit (serial path commits immediately), then one
  // steady_state_into to size out.state and warm the thread workspace.
  const kinetics::SteadyState primed = model.steady_state(mult);
  ASSERT_TRUE(primed.converged);
  kinetics::SteadyState out;
  model.steady_state_into(mult, out);
  ASSERT_TRUE(out.pool_exact_hit);

  const std::uint64_t before = core::thread_allocation_count();
  model.steady_state_into(mult, out);
  const std::uint64_t after = core::thread_allocation_count();

  EXPECT_TRUE(out.converged);
  EXPECT_TRUE(out.warm_started);
  EXPECT_TRUE(out.pool_exact_hit);
  EXPECT_EQ(after - before, 0u)
      << "a warm settled steady_state solve must not touch the heap";

  // Same property, abort-grade: the whole solve runs under a ban.
  {
    core::ScopedAllocationBan ban("warm settled steady_state");
    model.steady_state_into(mult, out);
  }
  EXPECT_TRUE(out.pool_exact_hit);
}

TEST(RegionGuard, NoOpOutsideRegions) {
  // Outside any deterministic region the guard must be silent in every
  // build configuration.
  core::forbid_in_deterministic_region("sentinel_test outside region");
  SUCCEED();
}

TEST(RegionGuardDeathTest, FiresInsideDeterministicRegion) {
  SKIP_WITHOUT_SENTINELS();
  EXPECT_DEATH(
      {
        // The serial parallel_for path still opens a deterministic region —
        // determinism is a property of the code path's contract, not of the
        // thread count that happened to execute it.
        core::parallel_for(2, 1, [](std::size_t) {
          core::forbid_in_deterministic_region("guarded state in region");
        });
      },
      "forbidden access inside a deterministic region");
}

// The issue's second satellite death test: a history-bearing THREAD-LOCAL
// cache touched from inside a deterministic region.  Thread-local history
// makes results depend on item-to-thread scheduling — the exact bug class
// the PR-1 contract outlawed — so the access pattern is: consult the guard,
// then the cache.  Inside a region, the guard aborts before the cache can
// poison the result.
TEST(RegionGuardDeathTest, ThreadLocalCacheTouchedInRegionAborts) {
  SKIP_WITHOUT_SENTINELS();
  struct History {
    static double& last_result() {
      thread_local double cached = 0.0;
      core::forbid_in_deterministic_region("History::last_result");
      return cached;
    }
  };
  History::last_result() = 42.0;  // fine outside a region
  EXPECT_DEATH(
      {
        core::parallel_for(2, 1,
                           [](std::size_t) { History::last_result() = 1.0; });
      },
      "forbidden access inside a deterministic region");
}

TEST(RegionGuardDeathTest, MidEpochPoolCommitAborts) {
  SKIP_WITHOUT_SENTINELS();
  kinetics::WarmStartPool pool(8);
  const num::Vec key(3, 1.0);
  const num::Vec state(3, 2.0);
  pool.record(key, state);
  EXPECT_DEATH(
      {
        core::parallel_for(2, 1, [&](std::size_t) { pool.commit(); });
      },
      "forbidden access inside a deterministic region");
}

}  // namespace
}  // namespace rmp
