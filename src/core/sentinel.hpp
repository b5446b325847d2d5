// Runtime sentinels for the determinism contract (sentinel builds only).
//
// Two mechanically-enforced invariants back the repo's correctness story:
//
//   * ALLOCATION SENTINEL — PR 7's arena work claims that a warm settled
//     kinetic solve performs no heap allocation at all.  When RMP_SENTINELS
//     is compiled in (Debug and sanitizer configurations; see the root
//     CMakeLists.txt), this translation unit replaces the global operator
//     new/delete with counting hooks: thread_allocation_count() exposes a
//     per-thread allocation counter tests can difference across a hot call,
//     and ScopedAllocationBan turns any allocation on the current thread
//     into an abort — the hard form used by the death tests.
//
//   * DETERMINISTIC-REGION GUARD — shared state is only allowed to change at
//     serial epoch barriers (see core/parallel.hpp).  Code paths that must
//     never run inside a deterministic parallel region (epoch commits,
//     history-bearing thread-local caches) call
//     core::forbid_in_deterministic_region(what); in sentinel builds a
//     violation aborts with the offending site's name, in release builds the
//     call is a no-op so hot paths pay nothing.
//
// Both sentinels are deliberately abort-grade, not exception-grade: a
// violation means the determinism contract is broken in a way that would
// otherwise surface as a fingerprint divergence on someone else's machine,
// and an abort pinpoints the exact call stack under a debugger or sanitizer.
#pragma once

#include <cstdint>

namespace rmp::core {

/// True when the allocation-counting operator new/delete replacement is
/// compiled in (RMP_SENTINELS builds).  Tests that assert allocation counts
/// skip themselves when this is false rather than vacuously passing.
[[nodiscard]] bool alloc_sentinel_enabled();

/// Number of heap allocations (global operator new, any variant) performed
/// by the CURRENT THREAD since it started.  Always 0 when the sentinel is
/// compiled out.  Difference it across a call to assert the call's
/// allocation behaviour; deallocations are not counted (the claim under
/// test is "allocates nothing", not "net-zero").
[[nodiscard]] std::uint64_t thread_allocation_count();

/// While alive, any heap allocation on the current thread aborts after
/// printing `what` (sentinel builds; a no-op otherwise).  Nests: the ban is
/// lifted when the outermost guard dies.  Per-thread — other threads
/// allocate freely.
class ScopedAllocationBan {
 public:
  explicit ScopedAllocationBan(const char* what);
  ~ScopedAllocationBan();
  ScopedAllocationBan(const ScopedAllocationBan&) = delete;
  ScopedAllocationBan& operator=(const ScopedAllocationBan&) = delete;

 private:
  const char* previous_what_;
};

/// Aborts (sentinel builds) when the current thread is inside a
/// deterministic parallel region — see core::in_deterministic_region().
/// Instrument state accesses that are forbidden mid-epoch: snapshot commits
/// (WarmStartPool::commit calls this) and any
/// history-bearing cache whose contents could make results depend on
/// item-to-thread scheduling.  Release builds: no-op.
void forbid_in_deterministic_region(const char* what);

}  // namespace rmp::core
