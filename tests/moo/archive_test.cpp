#include "moo/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/json.hpp"
#include "moo/dominance.hpp"
#include "moo/state.hpp"
#include "numeric/rng.hpp"
#include "support/naive_archive.hpp"

namespace rmp::moo {
namespace {

Individual make(double f0, double f1, double violation = 0.0) {
  Individual ind;
  ind.f = {f0, f1};
  ind.x = {f0, f1};
  ind.violation = violation;
  return ind;
}

TEST(ArchiveTest, AcceptsNondominated) {
  Archive a;
  EXPECT_TRUE(a.offer(make(1.0, 3.0)));
  EXPECT_TRUE(a.offer(make(3.0, 1.0)));
  EXPECT_EQ(a.size(), 2u);
}

TEST(ArchiveTest, RejectsDominated) {
  Archive a;
  EXPECT_TRUE(a.offer(make(1.0, 1.0)));
  EXPECT_FALSE(a.offer(make(2.0, 2.0)));
  EXPECT_EQ(a.size(), 1u);
}

TEST(ArchiveTest, EvictsDominatedResidents) {
  Archive a;
  EXPECT_TRUE(a.offer(make(2.0, 2.0)));
  EXPECT_TRUE(a.offer(make(3.0, 1.0)));
  EXPECT_TRUE(a.offer(make(1.0, 1.0)));  // dominates both
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.solutions()[0].f, (num::Vec{1.0, 1.0}));
}

TEST(ArchiveTest, RejectsInfeasible) {
  Archive a;
  EXPECT_FALSE(a.offer(make(0.0, 0.0, /*violation=*/1.0)));
  EXPECT_TRUE(a.empty());
}

TEST(ArchiveTest, RejectsObjectiveDuplicates) {
  Archive a;
  EXPECT_TRUE(a.offer(make(1.0, 2.0)));
  EXPECT_FALSE(a.offer(make(1.0, 2.0)));
  EXPECT_EQ(a.size(), 1u);
}

TEST(ArchiveTest, OfferReportsMembershipAfterThePrune) {
  Archive a(2);
  EXPECT_TRUE(a.offer(make(0.0, 3.0)));
  EXPECT_TRUE(a.offer(make(3.0, 0.0)));
  // Non-dominated, so the merge takes it, but as the only interior member
  // it is the one the capacity prune evicts.
  EXPECT_FALSE(a.offer(make(1.0, 2.0)));
  EXPECT_EQ(a.size(), 2u);
}

TEST(ArchiveTest, CapacityPruningKeepsExtremes) {
  Archive a(5);
  // A dense front: f1 = 10 - f0.
  for (int i = 0; i <= 20; ++i) {
    const double f0 = static_cast<double>(i) * 0.5;
    a.offer(make(f0, 10.0 - f0));
  }
  EXPECT_EQ(a.size(), 5u);
  bool has_left = false, has_right = false;
  for (const Individual& m : a.solutions()) {
    if (m.f[0] == 0.0) has_left = true;
    if (m.f[0] == 10.0) has_right = true;
  }
  EXPECT_TRUE(has_left);
  EXPECT_TRUE(has_right);
}

TEST(ArchiveTest, UnboundedGrowth) {
  Archive a(0);
  for (int i = 0; i <= 300; ++i) {
    const double f0 = static_cast<double>(i);
    a.offer(make(f0, 300.0 - f0));
  }
  EXPECT_EQ(a.size(), 301u);
}

TEST(ArchiveTest, ArchiveIsAlwaysMutuallyNondominated) {
  num::Rng rng(3);
  Archive a(50);
  for (int i = 0; i < 1000; ++i) {
    a.offer(make(rng.uniform(), rng.uniform()));
  }
  const auto sols = a.solutions();
  for (std::size_t p = 0; p < sols.size(); ++p) {
    for (std::size_t q = 0; q < sols.size(); ++q) {
      if (p != q) {
        EXPECT_FALSE(dominates(sols[p].f, sols[q].f));
      }
    }
  }
  EXPECT_LE(a.size(), 50u);
}

TEST(ArchiveTest, OfferAllFromPopulation) {
  std::vector<Individual> pop{make(1.0, 5.0), make(2.0, 2.0), make(5.0, 1.0),
                              make(3.0, 3.0)};  // last dominated by (2,2)
  Archive a;
  a.offer_all(pop);
  EXPECT_EQ(a.size(), 3u);
}

TEST(ArchiveTest, FingerprintIsContentIdentity) {
  Archive a;
  a.offer(make(1.0, 3.0));
  a.offer(make(3.0, 1.0));
  Archive b;
  b.offer(make(1.0, 3.0));
  b.offer(make(3.0, 1.0));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Members are stored in canonical order, so offering the same content in
  // reverse yields the same identity — the batch-merge contract.
  Archive reversed;
  reversed.offer(make(3.0, 1.0));
  reversed.offer(make(1.0, 3.0));
  EXPECT_EQ(a.fingerprint(), reversed.fingerprint());

  // Any single-bit change in a member changes the hash.
  Archive tweaked;
  tweaked.offer(make(1.0, 3.0));
  tweaked.offer(make(std::nextafter(3.0, 4.0), 1.0));
  EXPECT_NE(a.fingerprint(), tweaked.fingerprint());

  EXPECT_EQ(Archive().fingerprint(), Archive().fingerprint());
}

TEST(ArchiveTest, SolutionsAreCanonicallyOrdered) {
  num::Rng rng(11);
  Archive a;
  for (int i = 0; i < 200; ++i) a.offer(make(rng.uniform(), rng.uniform()));
  const auto sols = a.solutions();
  for (std::size_t i = 1; i < sols.size(); ++i) {
    EXPECT_LT(sols[i - 1].f[0], sols[i].f[0]);  // lexicographic ascending
  }
}

TEST(ArchiveTest, OfferAllIsOneTransaction) {
  // A batch member dominated by a later batch member never enters, and the
  // dominating member lands exactly once.
  std::vector<Individual> batch{make(2.0, 2.0), make(1.0, 1.0)};
  Archive a;
  a.offer_all(batch);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.solutions()[0].f, (num::Vec{1.0, 1.0}));
}

TEST(ArchiveTest, DuplicateObjectivesKeepFirstOfferedDecisionVector) {
  Individual first = make(1.0, 2.0);
  first.x = {10.0, 20.0};
  Individual second = make(1.0, 2.0);
  second.x = {30.0, 40.0};
  std::vector<Individual> batch{first, second};
  Archive a;
  a.offer_all(batch);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.solutions()[0].x, (num::Vec{10.0, 20.0}));
}

/// Random mixed workload: nondominated staircase points, dominated noise,
/// duplicates and infeasibles.
std::vector<Individual> random_batch(num::Rng& rng, std::size_t count) {
  std::vector<Individual> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform();
    Individual ind = make(u, (1.0 - u) * (1.0 + 0.3 * rng.uniform()));
    if (rng.bernoulli(0.05)) ind.violation = 1.0;               // infeasible
    if (!out.empty() && rng.bernoulli(0.05)) ind.f = out.back().f;  // duplicate
    out.push_back(std::move(ind));
  }
  return out;
}

TEST(ArchiveTest, BatchAndNaivePoliciesAreBitIdentical) {
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{40}}) {
    num::Rng rng(17);
    Archive batch_archive(capacity);
    testing::NaiveArchive naive_archive(capacity);
    for (int round = 0; round < 30; ++round) {
      const auto batch = random_batch(rng, 1 + static_cast<std::size_t>(round) % 60);
      batch_archive.offer_all(batch);
      naive_archive.offer_all(batch);
      ASSERT_EQ(batch_archive.fingerprint(), naive_archive.fingerprint())
          << "capacity " << capacity << ", round " << round;
    }
    EXPECT_GT(batch_archive.size(), 0u);
    if (capacity != 0) {
      EXPECT_LE(batch_archive.size(), capacity);
    }
  }
}

TEST(ArchiveTest, UnboundedMergeIsGroupingAndOrderInvariant) {
  num::Rng rng(23);
  std::vector<Individual> all = random_batch(rng, 300);

  Archive one_shot;
  one_shot.offer_all(all);

  Archive chunked;
  for (std::size_t start = 0; start < all.size(); start += 37) {
    const std::size_t len = std::min<std::size_t>(37, all.size() - start);
    chunked.offer_all(std::span<const Individual>(all).subspan(start, len));
  }
  EXPECT_EQ(one_shot.fingerprint(), chunked.fingerprint());

  // Without duplicates the membership is order-free too (duplicates tie to
  // first-offer, so shuffle only the duplicate-free variant).
  std::vector<Individual> unique;
  for (const Individual& ind : all) {
    bool dup = false;
    for (const Individual& u : unique) {
      if (u.f == ind.f) dup = true;
    }
    if (!dup) unique.push_back(ind);
  }
  Archive forward;
  forward.offer_all(unique);
  std::reverse(unique.begin(), unique.end());
  Archive backward;
  backward.offer_all(unique);
  EXPECT_EQ(forward.fingerprint(), backward.fingerprint());
}

TEST(ArchiveTest, PruneBreaksCrowdingTiesCanonically) {
  // Four evenly spaced collinear points: the two interior members carry
  // identical crowding (4/3 each), so pruning one must pick the victim by
  // the canonical rule — evict the canonically-later member — and not by
  // insertion order, which the old std::min_element scan depended on.
  const std::vector<Individual> points{make(0.0, 3.0), make(1.0, 2.0),
                                       make(2.0, 1.0), make(3.0, 0.0)};
  std::vector<Individual> reversed(points.rbegin(), points.rend());

  Archive forward(3);
  forward.offer_all(points);
  Archive backward(3);
  backward.offer_all(reversed);

  ASSERT_EQ(forward.size(), 3u);
  EXPECT_EQ(forward.fingerprint(), backward.fingerprint());
  // The interior tie evicts (2, 1) — the canonically later of the two.
  EXPECT_EQ(forward.solutions()[0].f, (num::Vec{0.0, 3.0}));
  EXPECT_EQ(forward.solutions()[1].f, (num::Vec{1.0, 2.0}));
  EXPECT_EQ(forward.solutions()[2].f, (num::Vec{3.0, 0.0}));

  // The naive oracle applies the same rule.
  testing::NaiveArchive naive(3);
  naive.offer_all(points);
  EXPECT_EQ(naive.fingerprint(), forward.fingerprint());
}

TEST(ArchiveTest, ThreeObjectiveBatchMatchesNaive) {
  num::Rng rng(31);
  Archive batch_archive(25);
  testing::NaiveArchive naive_archive(25);
  for (int round = 0; round < 10; ++round) {
    std::vector<Individual> pop;
    for (int i = 0; i < 50; ++i) {
      Individual ind;
      ind.f = {rng.uniform(), rng.uniform(), rng.uniform()};
      ind.x = ind.f;
      pop.push_back(std::move(ind));
    }
    batch_archive.offer_all(pop);
    naive_archive.offer_all(pop);
    ASSERT_EQ(batch_archive.fingerprint(), naive_archive.fingerprint())
        << "round " << round;
  }
}

TEST(ArchiveTest, ClearEmpties) {
  Archive a;
  a.offer(make(1.0, 1.0));
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.offer(make(2.0, 2.0)));
}

TEST(ArchiveTest, StateRoundTripPreservesFingerprintThroughText) {
  Archive a;
  a.offer(make(1.0, 3.0));
  a.offer(make(3.0, 1.0));
  a.offer(make(2.0, 2.0, 0.0));
  core::Json doc = core::Json::object();
  a.save_state(doc);

  Archive b;
  b.load_state(core::Json::parse(doc.dump(2)));
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.fingerprint(), a.fingerprint());
  // The restored archive keeps behaving like the original.
  EXPECT_FALSE(b.offer(make(2.5, 2.5)));  // dominated by (2,2)
}

TEST(ArchiveTest, LoadRejectsTamperedMembers) {
  Archive a;
  a.offer(make(1.0, 3.0));
  core::Json doc = core::Json::object();
  a.save_state(doc);
  // Fingerprint/content disagreement must be detected, not trusted.
  doc.set("fingerprint", core::Json::hex(0xdeadbeefULL));
  Archive b;
  EXPECT_THROW(b.load_state(doc), StateError);
  EXPECT_TRUE(b.empty());  // a failed load leaves the archive untouched
}

}  // namespace
}  // namespace rmp::moo
