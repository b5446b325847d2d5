// Front coverage metrics of Section 2.2.
//
// Given fronts P_1..P_m and their union front P_A (globally non-dominated):
//   global coverage   Gp(P_i, P_A) = |{x in P_i  and  x in P_A}| / |P_A|   (eq. 1)
//   relative coverage Rp(P_i, P_A) = |{x in P_i  and  x in P_A}| / |P_i|   (eq. 2)
// Membership of x in P_A is decided in objective space: x belongs to the
// global front when no member of P_A dominates it (within tolerance) —
// i.e. the point is globally Pareto optimal.
#pragma once

#include <span>

#include "pareto/front.hpp"

namespace rmp::pareto {

struct CoverageResult {
  double global = 0.0;    ///< Gp
  double relative = 0.0;  ///< Rp
  std::size_t in_union = 0;  ///< count of members of the front on the union front
};

/// Counts how many members of `front` are globally Pareto optimal w.r.t.
/// `global_front` and derives Gp / Rp.
[[nodiscard]] CoverageResult coverage(const Front& front, const Front& global_front);

/// Builds the union front and computes coverage for every input front.
[[nodiscard]] std::vector<CoverageResult> coverage_against_union(
    std::span<const Front> fronts);

}  // namespace rmp::pareto
