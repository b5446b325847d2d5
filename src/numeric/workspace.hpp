// Reusable fixed-capacity scratch arenas for the solver cores.
//
// A num::Workspace owns pools of Vec / Matrix / LuFactorization buffers that
// are checked out in stack (LIFO) order by the Newton, PTC, and ODE drivers.
// After a warm-up solve the pools reach their high-water capacity and every
// subsequent checkout is a pointer bump: zero allocation per iteration, zero
// per solve.  `allocation_events()` counts every real allocation the arena
// performed (new slot, or growth of an existing buffer past its capacity) so
// tests can assert the hot path has gone quiet.
//
// Ownership rules (see docs/ARCHITECTURE.md, "kinetic engine v2"):
//   * a Workspace is single-threaded state — one per solve context, never
//     shared across threads;
//   * checkouts nest but must release in reverse order (the Scratch* guards
//     enforce this in debug builds), which lets an outer driver (the
//     shooting solver) hold buffers across the inner integrations it runs;
//   * callers that pass no workspace get a thread_local fallback, so every
//     entry point is allocation-free after warm-up without plumbing.
//
// Idiom after openrave's ParabolicRamp/Math.h (SNIPPETS.md §2): a small,
// header-visible numeric utility layer the hot loops can trust completely.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Total real allocations performed by the arena since construction:
  /// new pool slots plus capacity growth of existing buffers.  Stable
  /// across repeated same-shape solves once warmed up.
  [[nodiscard]] std::size_t allocation_events() const {
    return allocation_events_;
  }

  /// Buffers currently checked out (all three pools).  Zero between solves.
  [[nodiscard]] std::size_t in_use() const {
    return vec_top_ + mat_top_ + lu_top_;
  }

  /// Process-wide workspace for the current thread — the fallback used by
  /// solver entry points when the caller supplies none.
  [[nodiscard]] static Workspace& thread_local_instance();

  // Raw stack API (prefer the Scratch* RAII guards below).
  Vec& push_vec(std::size_t n);
  void pop_vec(const Vec& v);
  Matrix& push_mat(std::size_t rows, std::size_t cols);
  void pop_mat(const Matrix& m);
  LuFactorization& push_lu();
  void pop_lu(const LuFactorization& lu);

 private:
  template <class T>
  T& push(std::vector<std::unique_ptr<T>>& pool, std::size_t& top) {
    if (top == pool.size()) {
      pool.push_back(std::make_unique<T>());
      ++allocation_events_;
    }
    return *pool[top++];
  }

  std::vector<std::unique_ptr<Vec>> vec_pool_;
  std::vector<std::unique_ptr<Matrix>> mat_pool_;
  std::vector<std::unique_ptr<LuFactorization>> lu_pool_;
  std::size_t vec_top_ = 0;
  std::size_t mat_top_ = 0;
  std::size_t lu_top_ = 0;
  std::size_t allocation_events_ = 0;
};

/// RAII checkout of a workspace Vec, resized to n (contents unspecified —
/// callers overwrite).  Non-copyable, non-movable: lifetime is the scope.
class ScratchVec {
 public:
  ScratchVec(Workspace& ws, std::size_t n) : ws_(ws), v_(ws.push_vec(n)) {}
  ~ScratchVec() { ws_.pop_vec(v_); }
  ScratchVec(const ScratchVec&) = delete;
  ScratchVec& operator=(const ScratchVec&) = delete;

  [[nodiscard]] Vec& get() { return v_; }
  [[nodiscard]] const Vec& get() const { return v_; }
  operator Vec&() { return v_; }                    // NOLINT
  operator std::span<const double>() const {        // NOLINT
    return {v_.data(), v_.size()};
  }
  [[nodiscard]] double& operator[](std::size_t i) { return v_[i]; }
  [[nodiscard]] double operator[](std::size_t i) const { return v_[i]; }
  [[nodiscard]] std::size_t size() const { return v_.size(); }

 private:
  Workspace& ws_;
  Vec& v_;
};

/// RAII checkout of a workspace Matrix, reshaped to rows x cols and zeroed.
class ScratchMat {
 public:
  ScratchMat(Workspace& ws, std::size_t rows, std::size_t cols)
      : ws_(ws), m_(ws.push_mat(rows, cols)) {}
  ~ScratchMat() { ws_.pop_mat(m_); }
  ScratchMat(const ScratchMat&) = delete;
  ScratchMat& operator=(const ScratchMat&) = delete;

  [[nodiscard]] Matrix& get() { return m_; }
  [[nodiscard]] const Matrix& get() const { return m_; }
  operator Matrix&() { return m_; }  // NOLINT
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return m_(r, c);
  }

 private:
  Workspace& ws_;
  Matrix& m_;
};

/// RAII checkout of a workspace LuFactorization (call factor() to fill).
class ScratchLu {
 public:
  explicit ScratchLu(Workspace& ws) : ws_(ws), lu_(ws.push_lu()) {}
  ~ScratchLu() { ws_.pop_lu(lu_); }
  ScratchLu(const ScratchLu&) = delete;
  ScratchLu& operator=(const ScratchLu&) = delete;

  [[nodiscard]] LuFactorization& get() { return lu_; }
  [[nodiscard]] const LuFactorization& get() const { return lu_; }

 private:
  Workspace& ws_;
  LuFactorization& lu_;
};

}  // namespace rmp::num
