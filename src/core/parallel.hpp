// Thread-pool batch evaluation.
//
// Problem::evaluate() is documented thread-safe, so independent candidates
// can be scored concurrently.  evaluate_batch() is the single entry point the
// evolutionary engines and the Monte-Carlo robustness loops share: it fills
// in the objective vector and constraint violation of every Individual in a
// span, splitting the work across a persistent thread pool.
//
// Determinism: evaluation never touches an engine's RNG stream and each task
// writes only to its own Individual, so results are bit-identical to the
// serial path for any thread count — parallelism changes wall-clock, never
// answers.
//
// Nested-region composition: every parallel region in the system is a flat,
// dynamically scheduled batch on one pool.  A PMO2 epoch runs three of them
// (Pmo2::step: stage every island's variation, then ONE evaluate_batch over
// all islands' offspring, then commit every island), and the robustness
// scorer scores whole Monte-Carlo ensembles in batches of up to
// kEnsembleChunkTrials trials.  A parallel region started from inside a
// pool batch runs inline on the calling thread instead of re-entering the
// pool, so code reached from a pool task (an engine whose whole step runs
// in the PMO2 commit phase, a yield ensemble inside a caller's region)
// executes serially on that thread: total width stays bounded by the
// outer request and no nesting can deadlock.  A region whose outer loop is
// explicitly serial leaves the pool free for the regions nested in it.  See the tuning table in
// docs/ARCHITECTURE.md.
//
// Layering note: these files live in src/core/ (the paper-pipeline layer)
// but depend only on the header-only moo::Problem/Individual interfaces and
// numeric/, so they build as their own `rmp_parallel` target *below* rmp_moo
// in the link graph; the engines in src/moo/ link against it.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "moo/individual.hpp"
#include "moo/problem.hpp"

namespace rmp::core {

/// Maps the user-facing thread-count convention onto a concrete count:
/// 0 = one thread per hardware context (at least 1), anything else verbatim.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// A fixed-size pool of worker threads executing index-parallel batches.
/// One batch runs at a time (concurrent callers serialize); the calling
/// thread participates in the batch, so a pool of W workers applies W+1
/// threads.  Re-entrant calls from inside a batch degrade to serial inline
/// execution instead of deadlocking, which makes nested parallel loops
/// (a yield ensemble inside a caller's region) safe by construction.
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: every batch runs on the caller).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workers() const { return num_workers_; }

  /// Runs fn(i) for every i in [0, n); returns when all calls completed.
  /// If fn throws, the first exception is rethrown on the caller and the
  /// remaining indices are abandoned (matching the serial path; items
  /// already in flight on other threads still finish).  `max_helpers`
  /// bounds how many pool workers may join this batch (the caller always
  /// participates on top), so a narrower width can reuse the persistent
  /// pool instead of paying for a dedicated one.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn,
                      std::size_t max_helpers = static_cast<std::size_t>(-1));

 private:
  struct Impl;
  Impl* impl_;
  std::size_t num_workers_;
};

/// The process-wide pool shared by all engines, sized so that pool workers
/// plus a participating caller equal the hardware concurrency.  Created on
/// first use.  The RMP_POOL_WORKERS environment variable (read once, at
/// creation) overrides the worker count — the sanitizer lanes use it to
/// force real worker threads on single-core CI machines, where the pool
/// would otherwise have zero workers and every batch would run inline.
[[nodiscard]] ThreadPool& global_pool();

/// Runs fn(i) for i in [0, n) on up to `n_threads` threads (0 = auto).
/// n_threads <= 1 runs serially inline; every wider width runs on
/// global_pool(), with the worker-join cap honoring an explicitly narrower
/// request (so concurrent parallel_for calls serialize on the shared pool
/// regardless of width).
void parallel_for(std::size_t n, std::size_t n_threads,
                  const std::function<void(std::size_t)>& fn);

/// True while the current thread is executing items of an evaluate_batch /
/// parallel_for region — on ANY of their execution paths, including the
/// serial n_threads=1 fallback.  Evaluation code that keeps history-based
/// accelerator state (e.g. a thread-local warm-start cache) must consult
/// this and bypass that state inside such regions: item-to-thread
/// assignment is nondeterministic, so any history dependence would break
/// the bit-identical-results-for-any-thread-count guarantee.
[[nodiscard]] bool in_deterministic_region();

/// True while the current thread is executing items of a ThreadPool batch
/// (as a pool worker or as the participating caller).  Any parallel region
/// started on such a thread runs inline — the nested-region composition
/// contract (see the header comment).  Note the
/// pool-less fallback paths (zero workers, single item, explicit width 1)
/// do NOT set this flag: they hold no pool state, so nested regions remain
/// free to use the pool.
[[nodiscard]] bool in_pool_batch();

/// Scores every Individual in `batch`: resizes ind.f to num_objectives(),
/// calls problem.evaluate() and stores the constraint violation.  Returns
/// the number of evaluations performed (batch.size()) so engines can keep
/// their evaluation counters exact.
std::size_t evaluate_batch(const moo::Problem& problem,
                           std::span<moo::Individual> batch,
                           std::size_t n_threads = 0);

/// The same over several spans as ONE flat, dynamically scheduled region:
/// no thread waits at the end of one span while another still has work.
/// Items are numbered span after span, so a serial run evaluates them in
/// exactly that order.  Returns the total number of evaluations.
std::size_t evaluate_batch(const moo::Problem& problem,
                           std::span<const std::span<moo::Individual>> batches,
                           std::size_t n_threads = 0);

}  // namespace rmp::core
