#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace rmp::core {

namespace {

/// Set while the current thread is executing batch items (as a pool worker
/// or as a participating caller).  A nested for_each_index on such a thread
/// runs inline instead of waiting on the pool, so recursive parallelism can
/// never deadlock.
thread_local bool tls_inside_batch = false;

/// Set on every execution path of parallel_for / evaluate_batch (pooled,
/// inline and serial alike): code observing it via in_deterministic_region()
/// must behave as a pure function of its inputs.
thread_local bool tls_deterministic_region = false;

struct DeterministicScope {
  bool previous = tls_deterministic_region;
  DeterministicScope() { tls_deterministic_region = true; }
  ~DeterministicScope() { tls_deterministic_region = previous; }
};

struct BatchScope {
  // Save/restore rather than set/clear: a nested inline batch must not drop
  // the guard for the remainder of the outer batch (the second nested call
  // would otherwise take the pool path and deadlock on client_mu).
  bool previous = tls_inside_batch;
  BatchScope() { tls_inside_batch = true; }
  ~BatchScope() { tls_inside_batch = previous; }
};

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   ///< wakes workers when a batch arrives
  std::condition_variable done_cv;   ///< wakes the caller when workers drain
  std::mutex client_mu;              ///< serializes concurrent batches

  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::size_t max_helpers = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> has_error{false};
  std::size_t active_workers = 0;
  std::exception_ptr error;
  bool stop = false;

  std::vector<std::thread> threads;

  void record_error() {
    std::lock_guard<std::mutex> lk(mu);
    if (!error) error = std::current_exception();
    has_error.store(true, std::memory_order_relaxed);
  }

  /// Pulls indices until the batch is exhausted or a task threw.  `next`
  /// past `count` makes stragglers no-ops, so any thread may join at any
  /// time; stopping on error matches the serial path, which abandons the
  /// remaining items after the first exception.
  void drain(const std::function<void(std::size_t)>& f, std::size_t n) {
    BatchScope scope;
    DeterministicScope det;
    std::size_t i;
    while (!has_error.load(std::memory_order_relaxed) &&
           (i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
      try {
        f(i);
      } catch (...) {
        record_error();
      }
    }
  }

  void worker_loop() {
    for (;;) {
      const std::function<void(std::size_t)>* job = nullptr;
      std::size_t n = 0;
      {
        std::unique_lock<std::mutex> lk(mu);
        work_cv.wait(lk, [&] {
          // !has_error keeps idle workers from busy-spinning through an
          // abandoned batch (next frozen below count) until the caller
          // clears fn.
          return stop || (fn != nullptr && active_workers < max_helpers &&
                          !has_error.load(std::memory_order_relaxed) &&
                          next.load(std::memory_order_relaxed) < count);
        });
        if (stop) return;
        job = fn;
        n = count;
        ++active_workers;
      }
      drain(*job, n);
      {
        std::lock_guard<std::mutex> lk(mu);
        if (--active_workers == 0) done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers)
    : impl_(new Impl), num_workers_(workers) {
  impl_->threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn,
                                std::size_t max_helpers) {
  if (n == 0) return;
  if (num_workers_ == 0 || n == 1 || max_helpers == 0 || tls_inside_batch) {
    // No helpers, nothing to split, or already inside a batch: run inline.
    // No BatchScope here — the inline path holds no pool lock, so nested
    // parallel regions stay free to use the pool (when the flag is already
    // set, the outer drain()'s scope keeps it set for us).
    DeterministicScope det;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> client(impl_->client_mu);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->fn = &fn;
    impl_->count = n;
    impl_->max_helpers = max_helpers;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->error = nullptr;
    impl_->has_error.store(false, std::memory_order_relaxed);
  }
  impl_->work_cv.notify_all();

  // The caller is a full participant; once it runs out of indices no new
  // worker can enter the batch (the wait predicate requires next < count).
  impl_->drain(fn, n);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->done_cv.wait(lk, [&] { return impl_->active_workers == 0; });
    impl_->fn = nullptr;
    impl_->count = 0;
    error = impl_->error;
    impl_->error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

bool in_deterministic_region() { return tls_deterministic_region; }

bool in_pool_batch() { return tls_inside_batch; }

ThreadPool& global_pool() {
  // Workers + the participating caller = hardware concurrency, unless
  // RMP_POOL_WORKERS pins the worker count explicitly.  The override exists
  // for the sanitizer lanes: a single-core CI machine would otherwise build
  // a zero-worker pool and run every "parallel" test inline, leaving
  // ThreadSanitizer nothing to observe.  Results are unaffected either way —
  // that is the bit-identical-for-any-thread-count contract under test.
  static ThreadPool pool([] {
    if (const char* env = std::getenv("RMP_POOL_WORKERS")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && v <= 256) {
        return static_cast<std::size_t>(v);
      }
    }
    return resolve_threads(0) - 1;
  }());
  return pool;
}

void parallel_for(std::size_t n, std::size_t n_threads,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = resolve_threads(n_threads);
  if (threads <= 1 || n < 2 || tls_inside_batch) {
    // Serial path: no pool lock is held, so no BatchScope — a nested
    // parallel_for under an explicitly serial outer loop (e.g. a threads=1
    // surface over threads=0 yields) may still use the pool.  The
    // deterministic-region flag IS set: results must not depend on which
    // path executed the items.
    DeterministicScope det;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The persistent pool serves every width: the helper cap keeps an
  // explicitly narrower request honest without spawning a transient pool
  // on the per-generation hot path (caller + threads-1 helpers = threads).
  global_pool().for_each_index(n, fn, threads - 1);
}

std::size_t evaluate_batch(const moo::Problem& problem,
                           std::span<const std::span<moo::Individual>> batches,
                           std::size_t n_threads) {
  // offsets[b] = index of batch b's first item in the flat range, so one
  // dynamically scheduled region covers every batch: a thread that finishes
  // one batch's items moves straight on to the next batch's.
  std::vector<std::size_t> offsets(batches.size() + 1, 0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    offsets[b + 1] = offsets[b] + batches[b].size();
  }
  const std::size_t m = problem.num_objectives();
  parallel_for(offsets.back(), n_threads, [&](std::size_t i) {
    const auto b = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), i) - offsets.begin() - 1);
    moo::Individual& ind = batches[b][i - offsets[b]];
    ind.f.assign(m, 0.0);
    ind.violation = problem.evaluate(ind.x, ind.f);
  });
  return offsets.back();
}

std::size_t evaluate_batch(const moo::Problem& problem,
                           std::span<moo::Individual> batch,
                           std::size_t n_threads) {
  return evaluate_batch(problem, std::span<const std::span<moo::Individual>>(&batch, 1),
                        n_threads);
}

}  // namespace rmp::core
