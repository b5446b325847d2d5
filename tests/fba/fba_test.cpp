#include "fba/fba.hpp"

#include <gtest/gtest.h>

namespace rmp::fba {
namespace {

/// Branched toy network: uptake A (<=10), A -> B (<=8) or A -> C (<=5),
/// B and C -> biomass with different yields.
MetabolicNetwork branched() {
  MetabolicNetwork net;
  const auto ext = net.add_metabolite("a_ext", "", true);
  const auto a = net.add_metabolite("a");
  const auto b = net.add_metabolite("b");
  const auto c = net.add_metabolite("c");
  const auto bio = net.add_metabolite("bio");
  const auto bio_ext = net.add_metabolite("bio_ext", "", true);
  net.add_reaction({"uptake", "", {{ext, -1.0}, {a, 1.0}}, 0.0, 10.0});
  net.add_reaction({"to_b", "", {{a, -1.0}, {b, 1.0}}, 0.0, 8.0});
  net.add_reaction({"to_c", "", {{a, -1.0}, {c, 1.0}}, 0.0, 5.0});
  net.add_reaction({"bio_b", "", {{b, -1.0}, {bio, 2.0}}, 0.0, 100.0});
  net.add_reaction({"bio_c", "", {{c, -1.0}, {bio, 1.0}}, 0.0, 100.0});
  net.add_reaction({"EX_bio", "", {{bio, -1.0}, {bio_ext, 1.0}}, 0.0, 1000.0});
  return net;
}

TEST(FbaTest, MaximizesBiomassThroughBestBranch) {
  const MetabolicNetwork net = branched();
  const FbaResult r = run_fba(net, "EX_bio");
  ASSERT_TRUE(r.optimal());
  // Best: 8 through B (yield 2) + 2 through C (yield 1) = 18.
  EXPECT_NEAR(r.objective_value, 18.0, 1e-6);
  EXPECT_NEAR(r.fluxes[net.reaction_index("to_b").value()], 8.0, 1e-6);
  EXPECT_NEAR(r.fluxes[net.reaction_index("to_c").value()], 2.0, 1e-6);
}

TEST(FbaTest, SolutionIsAtSteadyState) {
  const MetabolicNetwork net = branched();
  const FbaResult r = run_fba(net, "EX_bio");
  ASSERT_TRUE(r.optimal());
  EXPECT_LT(net.steady_state_violation(r.fluxes), 1e-6);
}

TEST(FbaTest, WeightedObjective) {
  const MetabolicNetwork net = branched();
  num::Vec w(net.num_reactions(), 0.0);
  w[net.reaction_index("to_c").value()] = 1.0;
  const FbaResult r = run_fba(net, w);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective_value, 5.0, 1e-6);
}

TEST(FbaTest, BlockedNetworkGivesZero) {
  MetabolicNetwork net = branched();
  // New isolated metabolite that cannot be balanced forces zero flux, not
  // infeasibility (all-zero is always feasible with zero lower bounds).
  const FbaResult r = run_fba(net, "EX_bio");
  ASSERT_TRUE(r.optimal());
  EXPECT_GE(r.objective_value, 0.0);
}

TEST(FbaTest, FixedMaintenanceFluxRespected) {
  MetabolicNetwork net = branched();
  // Pin to_c at exactly 3 (like the paper's ATP maintenance at 0.45).
  const std::size_t idx = net.reaction_index("to_c").value();
  Reaction pinned = net.reaction(idx);
  MetabolicNetwork net2;
  // Rebuild with modified bounds (network API has no mutate; rebuild).
  for (std::size_t m = 0; m < net.num_metabolites(); ++m) {
    const Metabolite& met = net.metabolite(m);
    net2.add_metabolite(met.id, met.name, met.external);
  }
  for (std::size_t r = 0; r < net.num_reactions(); ++r) {
    Reaction rxn = net.reaction(r);
    if (r == idx) {
      rxn.lower_bound = 3.0;
      rxn.upper_bound = 3.0;
    }
    net2.add_reaction(std::move(rxn));
  }
  const FbaResult r = run_fba(net2, "EX_bio");
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.fluxes[idx], 3.0, 1e-8);
  EXPECT_NEAR(r.objective_value, 17.0, 1e-6);  // 7*2 + 3*1
}

}  // namespace
}  // namespace rmp::fba
