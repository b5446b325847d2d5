#include "fba/geobacter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "fba/fba.hpp"
#include "fba/geobacter_problem.hpp"
#include "reference_repair.hpp"
#include "support/geobacter_seed_lps.hpp"

namespace rmp::fba {
namespace {

const MetabolicNetwork& model() {
  static const MetabolicNetwork net = build_geobacter();
  return net;
}

TEST(GeobacterTest, ExactlySixHundredEightReactions) {
  // The paper optimizes "its 608 reaction fluxes".
  EXPECT_EQ(model().num_reactions(), 608u);
}

TEST(GeobacterTest, GenomeScaleShape) {
  EXPECT_GT(model().num_internal_metabolites(), 400u);
  EXPECT_TRUE(model().orphan_metabolites().empty());
}

TEST(GeobacterTest, AtpMaintenanceFixedAtPaperValue) {
  // "its flux is kept fixed at 0.45".
  const auto idx = model().reaction_index(geobacter_ids::kAtpMaintenance);
  ASSERT_TRUE(idx.has_value());
  EXPECT_DOUBLE_EQ(model().reaction(*idx).lower_bound, 0.45);
  EXPECT_DOUBLE_EQ(model().reaction(*idx).upper_bound, 0.45);
}

TEST(GeobacterTest, MaxElectronProductionNearPaperRange) {
  // Paper Figure 4: electron production 158.14 - 160.90 mmol/gDW/h.
  const FbaResult r = run_fba(model(), geobacter_ids::kElectronProduction);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective_value, 161.0, 1.0);
  // Biomass at the max-EP corner ~ 0.283 (paper point E).
  const double bp =
      r.fluxes[model().reaction_index(geobacter_ids::kBiomassExport).value()];
  EXPECT_NEAR(bp, 0.283, 0.02);
}

TEST(GeobacterTest, MaxBiomassExceedsPaperSegment) {
  const FbaResult r = run_fba(model(), geobacter_ids::kBiomassExport);
  ASSERT_TRUE(r.optimal());
  EXPECT_GT(r.objective_value, 0.30);  // the paper segment is the EP-rich corner
  EXPECT_LT(r.objective_value, 1.0);
}

TEST(GeobacterTest, TradeoffSlopeMatchesPaper) {
  // Between EP ~158 and ~161 biomass falls by ~0.017 (paper A -> E):
  // slope dBP/dEP ~ -0.006.
  MetabolicNetwork net = build_geobacter();
  // Force EP to specific values by pinning bounds on EX_el, maximize BP.
  auto pinned_bp = [&](double ep) {
    MetabolicNetwork pin;
    for (std::size_t m = 0; m < net.num_metabolites(); ++m) {
      const Metabolite& met = net.metabolite(m);
      pin.add_metabolite(met.id, met.name, met.external);
    }
    for (std::size_t r = 0; r < net.num_reactions(); ++r) {
      Reaction rxn = net.reaction(r);
      if (rxn.id == geobacter_ids::kElectronProduction) {
        rxn.lower_bound = ep;
        rxn.upper_bound = ep;
      }
      pin.add_reaction(std::move(rxn));
    }
    const FbaResult r = run_fba(pin, geobacter_ids::kBiomassExport);
    EXPECT_TRUE(r.optimal());
    return r.objective_value;
  };
  const double bp158 = pinned_bp(158.14);
  const double bp161 = pinned_bp(160.90);
  EXPECT_GT(bp158, bp161);
  const double slope = (bp158 - bp161) / (160.90 - 158.14);
  EXPECT_NEAR(slope, 0.006, 0.003);
  EXPECT_NEAR(bp158, 0.300, 0.02);  // paper point A: (158.14, 0.300)
}

TEST(GeobacterTest, PeripheralPathwaysSilentAtOptimum) {
  const FbaResult r = run_fba(model(), geobacter_ids::kElectronProduction);
  ASSERT_TRUE(r.optimal());
  double peripheral_flux = 0.0;
  for (std::size_t i = 0; i < model().num_reactions(); ++i) {
    if (model().reaction(i).id.rfind("EX_p", 0) == 0) {
      peripheral_flux += r.fluxes[i];
    }
  }
  EXPECT_LT(peripheral_flux, 1.0);
}

TEST(GeobacterTest, NetworkBitsArePinned) {
  // Bit pin of every model constant build_geobacter reads: an FNV-1a hash
  // of S (CSR structure and values) and of both flux-bound vectors.
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](auto v) {
    std::uint64_t bits = 0;
    static_assert(sizeof v == sizeof bits);
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  const num::SparseMatrix s = model().stoichiometric_matrix();
  mix(s.rows());
  mix(s.cols());
  for (const std::size_t v : s.row_offsets()) mix(v);
  for (const std::size_t v : s.col_indices()) mix(v);
  for (const double v : s.values()) mix(v);
  for (const double v : model().lower_bounds()) mix(v);
  for (const double v : model().upper_bounds()) mix(v);
  EXPECT_EQ(h, 0x5645bd6392507812ULL) << std::hex << "0x" << h;
}

TEST(GeobacterTest, SeedLpWorkCountersArePinned) {
  // The seven seed LPs GeobacterProblem solves: simplex pivots over both
  // phases, and one refactorization per completed refactor_interval (120).
  const auto lps = testing::geobacter_seed_lps(model());
  constexpr std::size_t kPivots[] = {461, 458, 455, 456, 456, 455, 455};
  ASSERT_EQ(lps.size(), std::size(kPivots));
  for (std::size_t k = 0; k < lps.size(); ++k) {
    const num::LpSolution sol = num::solve_lp(lps[k]);
    EXPECT_EQ(sol.status, num::LpStatus::kOptimal) << "seed LP " << k;
    EXPECT_EQ(sol.iterations, kPivots[k]) << "seed LP " << k;
    EXPECT_EQ(sol.refactorizations, 3u) << "seed LP " << k;
  }
}

TEST(GeobacterProblemTest, DimensionsAndBounds) {
  auto net = std::make_shared<const MetabolicNetwork>(build_geobacter());
  GeobacterProblemOptions opts;
  opts.nullspace_repair = false;  // keep construction cheap here
  opts.lp_seeding = false;
  const GeobacterProblem p(net, opts);
  EXPECT_EQ(p.num_variables(), 608u);
  EXPECT_EQ(p.num_objectives(), 2u);
}

TEST(GeobacterProblemTest, EvaluateScoresFluxVector) {
  auto net = std::make_shared<const MetabolicNetwork>(build_geobacter());
  GeobacterProblemOptions opts;
  opts.nullspace_repair = false;
  opts.lp_seeding = true;
  const GeobacterProblem p(net, opts);

  // An LP seed must evaluate as (essentially) feasible with paper-scale
  // objectives.
  num::Rng rng(1);
  std::vector<num::Vec> seeds(1);
  ASSERT_EQ(p.suggest_initial(seeds, rng), 1u);
  num::Vec f(2);
  const double violation = p.evaluate(seeds[0], f);
  EXPECT_LT(violation, 1e-3);
  const auto [ep, bp] = GeobacterProblem::to_paper_units(f);
  EXPECT_GT(ep, 100.0);
  EXPECT_GT(bp, 0.2);
}

TEST(GeobacterProblemTest, ViolationMeasuresSteadyStateResidual) {
  auto net = std::make_shared<const MetabolicNetwork>(build_geobacter());
  GeobacterProblemOptions opts;
  opts.nullspace_repair = false;
  opts.lp_seeding = false;
  const GeobacterProblem p(net, opts);
  num::Vec x(608, 1.0);  // uniform fluxes are far from steady state
  num::Vec f(2);
  const double violation = p.evaluate(x, f);
  EXPECT_GT(violation, 1.0);
  EXPECT_NEAR(violation, net->steady_state_violation(x), 1e-9);
}

TEST(GeobacterProblemTest, NullspaceRepairReducesViolation) {
  auto net = std::make_shared<const MetabolicNetwork>(build_geobacter());
  GeobacterProblemOptions opts;
  opts.nullspace_repair = true;
  opts.lp_seeding = true;
  const GeobacterProblem p(net, opts);

  num::Rng rng(7);
  num::Vec x(608);
  const num::Vec lo = net->lower_bounds();
  const num::Vec hi = net->upper_bounds();
  for (std::size_t i = 0; i < 608; ++i) {
    x[i] = rng.uniform(lo[i], std::min(hi[i], lo[i] + 10.0));
  }
  const double before = net->steady_state_violation(x);
  p.repair(x);
  const double after = net->steady_state_violation(x);
  EXPECT_LT(after, before * 0.2);
  // Repair must respect the box.
  for (std::size_t i = 0; i < 608; ++i) {
    EXPECT_GE(x[i], lo[i] - 1e-9);
    EXPECT_LE(x[i], hi[i] + 1e-9);
  }
}

TEST(GeobacterProblemTest, RepairIsBitIdenticalToDenseOracle) {
  auto net = std::make_shared<const MetabolicNetwork>(build_geobacter());
  const GeobacterProblemOptions opts;  // repair and LP seeding on
  const GeobacterProblem p(net, opts);

  // The oracle's Q from the same public calls the constructor makes.  With
  // LP seeding on, the first suggested point is the first seed, which is
  // the problem's reference flux v0.
  const num::Matrix q =
      num::orthonormalize_columns(num::nullspace_basis(net->stoichiometric_matrix().to_dense()));
  ASSERT_EQ(q.rows(), 608u);
  ASSERT_GT(q.cols(), 0u);
  num::Rng seed_rng(0);
  std::vector<num::Vec> seeds(7);
  ASSERT_EQ(p.suggest_initial(seeds, seed_rng), 7u);
  const num::Vec& v0 = seeds.front();
  const num::Vec lo = net->lower_bounds();
  const num::Vec hi = net->upper_bounds();

  // Interior points, points on the box, the seven LP seeds, and candidates
  // that equal v0 in some coordinates (so v - v0 has exact zeros).
  std::vector<num::Vec> candidates = seeds;
  num::Rng rng(19);
  for (int k = 0; k < 420; ++k) {
    num::Vec x(608);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double top = std::min(hi[i], lo[i] + 10.0);
      switch (k % 4) {
        case 0:  // interior
          x[i] = rng.uniform(lo[i], top);
          break;
        case 1:  // on the box
          x[i] = rng.uniform() < 0.5 ? lo[i] : hi[i];
          break;
        case 2:  // v0 in about half the coordinates
          x[i] = rng.uniform() < 0.5 ? v0[i] : rng.uniform(lo[i], top);
          break;
        default:  // a perturbed seed, as suggest_initial builds them
          x[i] = seeds[static_cast<std::size_t>(k) % seeds.size()][i] + rng.normal(0.0, 0.5);
          break;
      }
    }
    candidates.push_back(std::move(x));
  }
  ASSERT_GE(candidates.size(), 400u);

  for (std::size_t k = 0; k < candidates.size(); ++k) {
    num::Vec got = candidates[k];
    num::Vec want = candidates[k];
    p.repair(got);
    reference::repair(q, v0, lo, hi, kRepairRounds, want);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
        << "candidate " << k;
  }
}

TEST(GeobacterProblemTest, LpSeedingOffSuggestsNoSeeds) {
  auto net = std::make_shared<const MetabolicNetwork>(build_geobacter());
  GeobacterProblemOptions opts;
  opts.nullspace_repair = true;
  opts.lp_seeding = false;
  const GeobacterProblem p(net, opts);

  num::Rng rng(2);
  std::vector<num::Vec> out(4);
  EXPECT_EQ(p.suggest_initial(out, rng), 0u);

  // Repair still projects around the first seed, as with seeding on.
  GeobacterProblemOptions seeded = opts;
  seeded.lp_seeding = true;
  const GeobacterProblem q(net, seeded);
  num::Vec x(608, 1.0);
  num::Vec y = x;
  p.repair(x);
  q.repair(y);
  EXPECT_EQ(x, y);
}

}  // namespace
}  // namespace rmp::fba
