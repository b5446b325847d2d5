#include "pareto/coverage.hpp"

#include "moo/dominance.hpp"

namespace rmp::pareto {

namespace {

/// x is globally Pareto optimal iff no member of the union front dominates it.
bool on_global_front(const Individual& x, const Front& global_front) {
  for (const Individual& g : global_front.members()) {
    if (moo::dominates(g.f, x.f)) return false;
  }
  return true;
}

}  // namespace

CoverageResult coverage(const Front& front, const Front& global_front) {
  CoverageResult r;
  for (const Individual& m : front.members()) {
    if (on_global_front(m, global_front)) ++r.in_union;
  }
  if (!global_front.empty()) {
    r.global = static_cast<double>(r.in_union) / static_cast<double>(global_front.size());
  }
  if (!front.empty()) {
    r.relative = static_cast<double>(r.in_union) / static_cast<double>(front.size());
  }
  return r;
}

std::vector<CoverageResult> coverage_against_union(std::span<const Front> fronts) {
  const Front global = Front::global_union(fronts);
  std::vector<CoverageResult> out;
  out.reserve(fronts.size());
  for (const Front& f : fronts) out.push_back(coverage(f, global));
  return out;
}

}  // namespace rmp::pareto
