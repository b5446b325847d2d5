#include "moo/archive.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "moo/dominance.hpp"
#include "moo/state.hpp"

namespace rmp::moo {

namespace {

/// Canonical member order: ascending lexicographic objectives.  Total over
/// archive members because duplicate objective vectors are rejected.
bool canonical_less(const Individual& a, const Individual& b) {
  return std::lexicographical_compare(a.f.begin(), a.f.end(), b.f.begin(),
                                      b.f.end());
}

}  // namespace

bool Archive::offer(const Individual& candidate) {
  const auto holds_objectives = [&] {
    return std::any_of(members_.begin(), members_.end(), [&](const Individual& m) {
      return m.f == candidate.f;
    });
  };
  // A resident with the candidate's objectives wins the duplicate rule;
  // without one, a member holding them after the merge is the candidate.
  const bool resident = holds_objectives();
  offer_all(std::span<const Individual>(&candidate, 1));
  return !resident && holds_objectives();
}

void Archive::offer_all(std::span<const Individual> candidates) {
  if (candidates.empty()) return;
  merge_batch(candidates);
  if (capacity_ != 0 && members_.size() > capacity_) prune();
}

void Archive::merge_batch(std::span<const Individual> candidates) {
  // 1. Feasibility filter.
  std::vector<std::size_t> surv;
  surv.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].feasible()) surv.push_back(i);
  }
  if (surv.empty()) return;

  const std::size_t m = candidates[surv.front()].f.size();

  // 2. Batch front filter: only the batch's non-dominated, de-duplicated
  // survivors can enter (dominance is transitive, so anything a dropped
  // candidate would have evicted is evicted by its dominator too — see the
  // equivalence tests against the naive oracle).  First offer wins among
  // exact objective duplicates, matching sequential semantics.
  std::vector<std::size_t> front;
  if (m == 2) {
    // One sort + staircase sweep: O(B log B).
    std::sort(surv.begin(), surv.end(), [&](std::size_t a, std::size_t b) {
      const num::Vec& fa = candidates[a].f;
      const num::Vec& fb = candidates[b].f;
      if (fa[0] != fb[0]) return fa[0] < fb[0];
      if (fa[1] != fb[1]) return fa[1] < fb[1];
      return a < b;  // duplicates adjacent, earliest offer first
    });
    double min_f1 = std::numeric_limits<double>::infinity();
    const num::Vec* prev = nullptr;
    for (const std::size_t idx : surv) {
      const num::Vec& f = candidates[idx].f;
      const bool duplicate = prev != nullptr && *prev == f;
      if (!duplicate && f[1] < min_f1) front.push_back(idx);
      min_f1 = std::min(min_f1, f[1]);
      prev = &f;
    }
    // `front` ascends in f0 and descends in f1: already canonical.
  } else {
    for (const std::size_t i : surv) {
      bool drop = false;
      for (const std::size_t j : surv) {
        if (i == j) continue;
        if (dominates(candidates[j].f, candidates[i].f) ||
            (candidates[j].f == candidates[i].f && j < i)) {
          drop = true;
          break;
        }
      }
      if (!drop) front.push_back(i);
    }
  }

  // 3. Merge the survivors against the archive.
  if (m == 2) {
    // Both sequences are canonical staircases (f0 strictly ascending, f1
    // strictly descending); a single merge + sweep keeps exactly the
    // non-dominated union in canonical order: O(N + B).  On an exact
    // objective tie the resident is walked first, so the incumbent survives
    // and the candidate falls to the duplicate rule.
    std::vector<Individual> merged;
    merged.reserve(members_.size() + front.size());
    double min_f1 = std::numeric_limits<double>::infinity();
    const auto keep = [&](Individual&& ind) {
      if (ind.f[1] < min_f1) {
        min_f1 = ind.f[1];
        merged.push_back(std::move(ind));
      }
    };
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < members_.size() || j < front.size()) {
      bool take_resident;
      if (i == members_.size()) {
        take_resident = false;
      } else if (j == front.size()) {
        take_resident = true;
      } else {
        const num::Vec& fm = members_[i].f;
        const num::Vec& fc = candidates[front[j]].f;
        take_resident = fm[0] < fc[0] || (fm[0] == fc[0] && fm[1] <= fc[1]);
      }
      if (take_resident) {
        keep(std::move(members_[i++]));
      } else {
        keep(Individual(candidates[front[j++]]));
      }
    }
    members_ = std::move(merged);
  } else {
    // General objective count: the archive and the batch front are each
    // mutually non-dominated, so only cross comparisons remain — O(N * B).
    std::vector<std::size_t> incoming;
    incoming.reserve(front.size());
    for (const std::size_t idx : front) {
      bool drop = false;
      for (const Individual& resident : members_) {
        if (dominates(resident.f, candidates[idx].f) ||
            resident.f == candidates[idx].f) {
          drop = true;
          break;
        }
      }
      if (!drop) incoming.push_back(idx);
    }
    std::erase_if(members_, [&](const Individual& resident) {
      for (const std::size_t idx : incoming) {
        if (dominates(candidates[idx].f, resident.f)) return true;
      }
      return false;
    });
    for (const std::size_t idx : incoming) members_.push_back(candidates[idx]);
    std::sort(members_.begin(), members_.end(), canonical_less);
  }
}

std::uint64_t Archive::fingerprint() const {
  // The free function (moo/state.hpp) owns the hash so progress events can
  // fingerprint raw population spans with the same identity.
  return moo::fingerprint(members_);
}

void Archive::save_state(core::Json& out) const {
  out.set("kind", "archive");
  out.set("members", state::population_to_json(members_));
  out.set("fingerprint", core::Json::hex(fingerprint()));
}

void Archive::load_state(const core::Json& doc) {
  state::require_tag(doc, "kind", "archive");
  const std::uint64_t saved = state::require(doc, "fingerprint").as_u64();
  std::vector<Individual> members =
      state::population_from_json(state::require(doc, "members"));
  const std::uint64_t derived = moo::fingerprint(members);
  if (derived != saved) {
    throw StateError("checkpoint: archive fingerprint mismatch (saved " +
                     core::Json::hex(saved).as_string() + ", re-derived " +
                     core::Json::hex(derived).as_string() + ")");
  }
  members_ = std::move(members);
}

void Archive::prune() {
  if (capacity_ == 0 || members_.size() <= capacity_) return;
  // Single crowding pass: the archive is one front by construction, so the
  // distances are computed once and the size-capacity most crowded members
  // leave together.  Ties on crowding evict the canonically-later member,
  // making the victim set independent of how the members arrived.
  std::vector<std::size_t> all(members_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  assign_crowding_distance(members_, all);

  std::vector<std::size_t> order = all;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (members_[a].crowding != members_[b].crowding) {
      return members_[a].crowding < members_[b].crowding;
    }
    return a > b;
  });
  std::vector<bool> evict(members_.size(), false);
  const std::size_t evict_count = members_.size() - capacity_;
  for (std::size_t k = 0; k < evict_count; ++k) evict[order[k]] = true;

  std::vector<Individual> kept;
  kept.reserve(capacity_);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!evict[i]) kept.push_back(std::move(members_[i]));
  }
  members_ = std::move(kept);
}

}  // namespace rmp::moo
