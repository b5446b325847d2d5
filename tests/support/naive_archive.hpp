// Reference archive merge: a per-candidate linear dominance scan with
// sorted insertion, and its own single-pass crowding prune — the O(N * B)
// oracle that moo::Archive's batch merge must match member for member and
// bit for bit.  archive_test compares against it, and bench/archive_scaling
// times the production merge against it (the bench reaches this header
// through its include path).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "moo/dominance.hpp"
#include "moo/individual.hpp"
#include "moo/state.hpp"

namespace rmp::testing {

class NaiveArchive {
 public:
  /// capacity == 0 means unbounded.
  explicit NaiveArchive(std::size_t capacity = 0) : capacity_(capacity) {}

  /// One batch transaction with moo::Archive::offer_all's semantics:
  /// per-candidate merge, then at most one capacity prune.
  void offer_all(std::span<const moo::Individual> candidates) {
    if (candidates.empty()) return;
    for (const moo::Individual& c : candidates) {
      if (!c.feasible()) continue;
      bool rejected = false;
      for (const moo::Individual& m : members_) {
        if (moo::dominates(m.f, c.f) || m.f == c.f) {
          rejected = true;
          break;
        }
      }
      if (rejected) continue;
      std::erase_if(members_,
                    [&](const moo::Individual& m) { return moo::dominates(c.f, m.f); });
      members_.insert(
          std::upper_bound(members_.begin(), members_.end(), c, canonical_less), c);
    }
    if (capacity_ != 0 && members_.size() > capacity_) prune();
  }

  [[nodiscard]] std::span<const moo::Individual> solutions() const { return members_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] std::uint64_t fingerprint() const { return moo::fingerprint(members_); }

 private:
  /// Canonical member order: ascending lexicographic objectives.
  static bool canonical_less(const moo::Individual& a, const moo::Individual& b) {
    return std::lexicographical_compare(a.f.begin(), a.f.end(), b.f.begin(),
                                        b.f.end());
  }

  /// Crowding distances once over the whole archive, then the
  /// size-capacity most crowded members leave together; crowding ties
  /// evict the canonically-later member.
  void prune() {
    std::vector<std::size_t> all(members_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    moo::assign_crowding_distance(members_, all);
    std::vector<std::size_t> order = all;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (members_[a].crowding != members_[b].crowding) {
        return members_[a].crowding < members_[b].crowding;
      }
      return a > b;
    });
    std::vector<bool> evict(members_.size(), false);
    for (std::size_t k = 0; k < members_.size() - capacity_; ++k) evict[order[k]] = true;
    std::vector<moo::Individual> kept;
    kept.reserve(capacity_);
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (!evict[i]) kept.push_back(std::move(members_[i]));
    }
    members_ = std::move(kept);
  }

  std::size_t capacity_;
  std::vector<moo::Individual> members_;  ///< canonical order, unique objectives
};

}  // namespace rmp::testing
