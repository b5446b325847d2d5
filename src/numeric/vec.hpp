// Dense real vector utilities.
//
// The whole library works on plain `std::vector<double>` buffers; this header
// provides the small, allocation-conscious free-function algebra used by the
// optimizers, the ODE integrators and the LP solver.  Functions that write
// into an output argument never allocate, so hot loops can reuse storage.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

namespace rmp::num {

using Vec = std::vector<double>;

/// y = a (copy assign preserving capacity where possible).
void assign(Vec& y, std::span<const double> a);

/// Element-wise y += a.
void add_inplace(Vec& y, std::span<const double> a);

/// Element-wise y -= a.
void sub_inplace(Vec& y, std::span<const double> a);

/// y *= s.
void scale_inplace(Vec& y, double s);

/// y += s * a  (AXPY).
void axpy(Vec& y, double s, std::span<const double> a);

/// out = a + b.
[[nodiscard]] Vec add(std::span<const double> a, std::span<const double> b);

/// out = a - b.
[[nodiscard]] Vec sub(std::span<const double> a, std::span<const double> b);

/// out = s * a.
[[nodiscard]] Vec scaled(std::span<const double> a, double s);

/// Dot product; spans must be the same length.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> a);

/// L1 norm.
[[nodiscard]] double norm1(std::span<const double> a);

/// Max-abs norm.
[[nodiscard]] double norm_inf(std::span<const double> a);

/// Euclidean distance between two equal-length vectors.
[[nodiscard]] double dist(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance (no sqrt) — for nearest-neighbor comparisons
/// where only the ordering matters.
[[nodiscard]] double dist2(std::span<const double> a, std::span<const double> b);

/// Chebyshev (max-abs) distance.
[[nodiscard]] double dist_inf(std::span<const double> a, std::span<const double> b);

/// Manhattan distance.
[[nodiscard]] double dist1(std::span<const double> a, std::span<const double> b);

/// Clamp each element of y into [lo[i], hi[i]].
void clamp_inplace(Vec& y, std::span<const double> lo, std::span<const double> hi);

/// True when every element is finite (no NaN / Inf).
[[nodiscard]] bool all_finite(std::span<const double> a);

/// True iff a and b are identical IEEE-754 bit patterns of equal length —
/// the kinetic pool's exact-hit key equality.  Stricter than operator==:
/// -0.0 != +0.0, NaN == same NaN.
[[nodiscard]] inline bool bitwise_equal(std::span<const double> a,
                                        std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Sum of elements.
[[nodiscard]] double sum(std::span<const double> a);

/// Smallest element (vector must be non-empty).
[[nodiscard]] double min_element(std::span<const double> a);

/// Largest element (vector must be non-empty).
[[nodiscard]] double max_element(std::span<const double> a);

/// Vector filled with a constant.
[[nodiscard]] Vec constant(std::size_t n, double value);

/// Linearly spaced vector of n >= 2 points covering [lo, hi] inclusive.
[[nodiscard]] Vec linspace(double lo, double hi, std::size_t n);

}  // namespace rmp::num
