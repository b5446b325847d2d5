#include "kinetics/c3model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "core/parallel.hpp"
#include "kinetics/photosynthesis_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "numeric/fd_oracle.hpp"
#include "numeric/newton.hpp"
#include "numeric/rng.hpp"

namespace rmp::kinetics {
namespace {

/// Shared models (constructing one solves the natural steady state).
const C3Model& present_low() {
  static const C3Model model(C3Config{});  // defaults: Ci=270, export=1
  return model;
}

const C3Model& present_high() {
  static const C3Model model = [] {
    C3Config c;
    c.triose_export_vmax = kExportHigh;
    return C3Model(c);
  }();
  return model;
}

TEST(C3ModelTest, NaturalStateConverges) {
  const SteadyState& nat = present_low().natural_state();
  ASSERT_TRUE(nat.converged);
  EXPECT_LT(nat.residual, 1e-3);
  EXPECT_TRUE(num::all_finite(nat.state));
  // A solve at the natural partition lands on the natural uptake.
  const SteadyState again = present_low().steady_state(num::Vec(kNumEnzymes, 1.0));
  ASSERT_TRUE(again.converged);
  EXPECT_NEAR(again.co2_uptake, nat.co2_uptake, 0.2);
}

TEST(C3ModelTest, NaturalUptakeMatchesPaperOperatingPoint) {
  // Figure 1: "Oper. CO2 Uptake: 15.486 +- 10% umol m^-2 s^-1".
  const double a = present_low().natural_state().co2_uptake;
  EXPECT_NEAR(a, 15.486, 0.10 * 15.486);
}

TEST(C3ModelTest, NaturalNitrogenMatchesPaper) {
  const num::Vec ones(kNumEnzymes, 1.0);
  EXPECT_NEAR(present_low().nitrogen(ones), 208330.0, 0.05 * 208330.0);
}

TEST(C3ModelTest, StateIsNonNegativeAndPoolsPlausibleAtNatural) {
  const num::Vec& y = present_low().natural_state().state;
  for (double v : y) EXPECT_GE(v, 0.0);
  // Conserved pools respected.
  const C3Config& c = present_low().config();
  EXPECT_LE(y[kAtp], c.adenylate_total + 1e-6);
}

TEST(C3ModelTest, DerivativesVanishAtSteadyState) {
  const num::Vec ones(kNumEnzymes, 1.0);
  num::Vec dydt(kNumMetabolites);
  present_low().derivatives(present_low().natural_state().state, ones, dydt);
  EXPECT_LT(num::norm_inf(dydt), 1e-3);
}

TEST(C3ModelTest, CarbonBalanceClosesAtSteadyState) {
  // Net fixation = carbon leaving through export, starch and photorespiratory
  // CO2 (sucrose carbon leaves via the translocator legs).
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Rates r = present_low().rates(present_low().natural_state().state, ones);
  const double carbon_in = r.vc;                       // 1 C per carboxylation
  const double carbon_out = 3.0 * (r.v_export + r.v_export_pga) +
                            6.0 * r.v_starch + r.v_gdc;
  EXPECT_NEAR(carbon_in, carbon_out, 0.05 * carbon_in);
}

TEST(C3ModelTest, PhotorespiratoryChainIsBalanced) {
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Rates r = present_low().rates(present_low().natural_state().state, ones);
  // vo -> PGCA -> GCA -> GOA at steady state.
  EXPECT_NEAR(r.vo, r.v_pgcapase, 0.02 * r.vo);
  EXPECT_NEAR(r.v_pgcapase, r.v_goaox, 0.02 * r.vo);
  // GDC releases one CO2 per two glycines: v_gdc = vo / 2.
  EXPECT_NEAR(r.v_gdc, 0.5 * r.vo, 0.05 * r.vo);
}

TEST(C3ModelTest, UptakeAccountsForPhotorespiration) {
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Model& m = present_low();
  const C3Rates r = m.rates(m.natural_state().state, ones);
  const double expected = m.config().uptake_area_scale * (r.vc - r.v_gdc);
  EXPECT_NEAR(m.co2_uptake(m.natural_state().state, ones), expected, 1e-9);
}

TEST(C3ModelTest, HigherExportCapacityRaisesUptake) {
  EXPECT_GT(present_high().natural_state().co2_uptake,
            present_low().natural_state().co2_uptake);
}

TEST(C3ModelTest, UptakeRespondsToCi) {
  // Fronts should order past < present in natural uptake at high export.
  C3Config past;
  past.ci_ppm = kCiPast;
  past.triose_export_vmax = kExportHigh;
  const C3Model past_model(past);
  ASSERT_TRUE(past_model.natural_state().converged);
  EXPECT_LT(past_model.natural_state().co2_uptake,
            present_high().natural_state().co2_uptake);
}

TEST(C3ModelTest, AllSixScenariosHaveLivingNaturalState) {
  for (const Scenario& s : all_scenarios()) {
    const auto model = make_model(s);
    EXPECT_TRUE(model->natural_state().converged) << s.label;
    EXPECT_GT(model->natural_state().co2_uptake, 5.0) << s.label;
  }
}

TEST(C3ModelTest, UpRegulatedPartitionFixesMore) {
  const num::Vec boosted(kNumEnzymes, 5.0);
  const SteadyState ss = present_high().steady_state(boosted);
  ASSERT_TRUE(ss.converged);
  EXPECT_GT(ss.co2_uptake, present_high().natural_state().co2_uptake * 1.5);
}

TEST(C3ModelTest, DownRegulatedPartitionNearDeath) {
  const num::Vec starved(kNumEnzymes, 0.02);
  const SteadyState ss = present_low().steady_state(starved);
  // Either converged with negligible uptake or declared unconverged.
  if (ss.converged) {
    EXPECT_LT(ss.co2_uptake, 1.0);
  }
}

TEST(C3ModelTest, PerturbedPartitionsEvaluateQuickly) {
  // The warm-start path must handle +-10% perturbations (the robustness
  // ensembles) without falling back to integration.
  num::Rng rng(4);
  const C3Model& m = present_high();
  for (int t = 0; t < 25; ++t) {
    num::Vec mult(kNumEnzymes);
    for (double& v : mult) v = 1.0 + rng.uniform(-0.1, 0.1);
    const SteadyState ss = m.steady_state(mult);
    EXPECT_TRUE(ss.converged);
    EXPECT_GT(ss.co2_uptake, 5.0);
  }
}

TEST(C3ModelTest, AnalyticJacobianMatchesFiniteDifferences) {
  // The differential guard of the closed-form Jacobian: every entry must
  // agree with a central finite difference of derivatives() on randomized
  // states and enzyme partitions (clamped free-Pi/ADP branches included —
  // the random box regularly activates both).
  const C3Model& m = present_low();
  num::Rng rng(1234);
  num::Vec y(kNumMetabolites), mult(kNumEnzymes), dydt(kNumMetabolites);
  num::Vec fplus(kNumMetabolites), fminus(kNumMetabolites);
  num::Matrix jac;
  for (int trial = 0; trial < 25; ++trial) {
    for (double& v : mult) v = rng.uniform(0.05, 4.0);
    for (double& v : y) v = rng.uniform(0.01, 3.0);
    m.derivatives_and_jacobian(y, mult, dydt, jac);
    // derivatives_and_jacobian's dydt must be the plain derivatives().
    num::Vec check(kNumMetabolites);
    m.derivatives(y, mult, check);
    for (std::size_t r = 0; r < kNumMetabolites; ++r) {
      ASSERT_EQ(dydt[r], check[r]);
    }
    for (std::size_t col = 0; col < kNumMetabolites; ++col) {
      const double h = 1e-6 * std::max(1.0, std::fabs(y[col]));
      num::Vec yp(y), ym(y);
      yp[col] += h;
      ym[col] -= h;
      m.derivatives(yp, mult, fplus);
      m.derivatives(ym, mult, fminus);
      for (std::size_t r = 0; r < kNumMetabolites; ++r) {
        const double fd = (fplus[r] - fminus[r]) / (2.0 * h);
        const double tol =
            2e-4 * std::max({1.0, std::fabs(fd), std::fabs(jac(r, col))});
        EXPECT_NEAR(jac(r, col), fd, tol)
            << "entry (" << r << ", " << col << "), trial " << trial;
      }
    }
  }
}

TEST(C3ModelTest, RatesAndJacobianBitsArePinned) {
  // Bit pin of every kinetic and reporting constant: an FNV-1a hash of
  // derivatives_and_jacobian, co2_uptake and nitrogen over a fixed seeded
  // set of states and partitions in all six scenarios.  The random box
  // reaches rate-law branches (clamped free Pi, starved ADP) that no golden
  // run visits, so a constant whose bits move fails here even when every
  // fingerprint holds.
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  num::Vec y(kNumMetabolites), mult(kNumEnzymes), dydt(kNumMetabolites);
  num::Matrix jac;
  for (const Scenario& s : all_scenarios()) {
    const auto model = make_model(s);
    num::Rng rng(2024);
    for (int trial = 0; trial < 16; ++trial) {
      for (double& v : mult) v = rng.uniform(0.02, 5.0);
      for (double& v : y) v = rng.uniform(0.0, 4.0);
      model->derivatives_and_jacobian(y, mult, dydt, jac);
      for (const double v : dydt) mix(v);
      for (std::size_t r = 0; r < kNumMetabolites; ++r) {
        for (std::size_t c = 0; c < kNumMetabolites; ++c) mix(jac(r, c));
      }
      mix(model->co2_uptake(y, mult));
      mix(model->nitrogen(mult));
    }
  }
  EXPECT_EQ(h, 0x8af2bb00494b2219ULL) << std::hex << "0x" << h;
}

TEST(C3ModelTest, RatesAreFiniteEverywhereInBox) {
  num::Rng rng(9);
  const C3Model& m = present_low();
  num::Vec y = C3Model::default_initial_state();
  for (int t = 0; t < 100; ++t) {
    num::Vec mult(kNumEnzymes);
    for (double& v : mult) v = rng.uniform(0.02, 5.0);
    for (double& v : y) v = rng.uniform(0.0, 5.0);
    num::Vec dydt(kNumMetabolites);
    m.derivatives(y, mult, dydt);
    EXPECT_TRUE(num::all_finite(dydt));
  }
}

TEST(C3ModelTest, EngineAgreesWithFdNewtonOracle) {
  // The production engine (analytic Jacobian, chord reuse, warm pool, anchor
  // ladder) against an oracle built from the public derivatives alone:
  // finite-difference classic Newton from the natural state, then
  // pseudo-transient continuation if Newton fails.  Where the oracle
  // settles, both must find the same root — same uptake within solver
  // tolerance — while the engine spends several times fewer RHS evaluations.
  const C3Model engine{C3Config{}};
  ASSERT_TRUE(engine.natural_state().converged);
  const num::Vec& natural = engine.natural_state().state;

  num::Rng rng(21);
  std::size_t rhs_engine = 0, rhs_oracle = 0;
  int settled = 0;
  for (int t = 0; t < 8; ++t) {
    num::Vec mult(kNumEnzymes);
    for (double& v : mult) v = std::clamp(rng.normal(1.0, 0.15), 0.02, 5.0);

    const auto system_fn = [&engine, &mult](std::span<const double> y,
                                            num::Vec& out) {
      engine.derivatives(y, mult, out);
    };
    const num::NonlinearSystem system = system_fn;
    num::reference::FdJacobian fd(system);
    num::NewtonOptions nopts;
    nopts.max_iterations = 60;
    nopts.tolerance = 2e-3;
    nopts.state_floor = 1e-12;
    nopts.jacobian = fd;
    num::NewtonResult oracle = num::solve_newton(system, natural, nopts);
    std::size_t oracle_rhs = oracle.rhs_evaluations;
    if (!oracle.converged) {
      num::PtcOptions popts;
      popts.max_iterations = 150;
      popts.tolerance = nopts.tolerance;
      popts.state_floor = nopts.state_floor;
      popts.initial_timestep = 0.5;
      popts.jacobian = fd;
      oracle = num::solve_pseudo_transient(system, natural, popts);
      oracle_rhs += oracle.rhs_evaluations;
    }
    oracle_rhs += fd.probes();  // the oracle's Jacobian builds

    const SteadyState o = engine.steady_state(mult);
    if (!oracle.converged) continue;
    ASSERT_TRUE(o.converged) << "candidate " << t;
    // Candidates near the Hopf boundary legitimately resolve differently
    // (a cycle AVERAGE vs a root the oracle reaches); same-root agreement
    // is asserted where the engine truly settled.
    if (o.residual > 1e-2) continue;
    ++settled;
    rhs_engine += o.rhs_evaluations;
    rhs_oracle += oracle_rhs;
    const double oracle_uptake = engine.co2_uptake(oracle.x, mult);
    EXPECT_NEAR(o.co2_uptake, oracle_uptake,
                0.02 * std::max(1.0, std::fabs(oracle_uptake)))
        << "candidate " << t;
  }
  ASSERT_GT(settled, 3);
  // The headline saving: >= 3x fewer RHS evaluations over the sample.
  EXPECT_LT(3 * rhs_engine, rhs_oracle)
      << "engine " << rhs_engine << " vs oracle " << rhs_oracle;
}

TEST(C3ModelTest, SequentialSolvesWarmStartFromThePool) {
  const C3Model m{C3Config{}};
  ASSERT_TRUE(m.natural_state().converged);
  const num::Vec first(kNumEnzymes, 1.08);
  const SteadyState s1 = m.steady_state(first);
  ASSERT_TRUE(s1.converged);
  // Serial context: the living solution commits immediately.
  EXPECT_GT(m.warm_pool().snapshot_size(), 0u);
  const num::Vec second(kNumEnzymes, 1.10);
  const SteadyState s2 = m.steady_state(second);
  ASSERT_TRUE(s2.converged);
  EXPECT_TRUE(s2.warm_started);
}

/// Every SteadyState field of `a` and `b` has the same bits.
void expect_same_bits(const SteadyState& a, const SteadyState& b) {
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  EXPECT_TRUE(num::bitwise_equal(a.state, b.state));
  EXPECT_EQ(bits(a.co2_uptake), bits(b.co2_uptake));
  EXPECT_EQ(bits(a.residual), bits(b.residual));
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
  EXPECT_EQ(a.rhs_evaluations, b.rhs_evaluations);
  EXPECT_EQ(a.jacobian_factorizations, b.jacobian_factorizations);
  EXPECT_EQ(a.warm_started, b.warm_started);
  EXPECT_EQ(a.pool_exact_hit, b.pool_exact_hit);
  EXPECT_EQ(a.used_integration_fallback, b.used_integration_fallback);
  EXPECT_EQ(a.oscillatory, b.oscillatory);
  EXPECT_EQ(a.used_shooting, b.used_shooting);
  EXPECT_EQ(bits(a.cycle_period), bits(b.cycle_period));
}

TEST(C3ModelTest, SteadyStateAndSteadyStateIntoAgreeBitForBit) {
  // Two models walk the same candidates, one through steady_state and one
  // through steady_state_into, so their pools stay in step: a pool miss, a
  // root's exact repeat, a living cycle's miss and its exact repeat.
  const C3Model by_value{C3Config{}};
  const C3Model into{C3Config{}};
  const num::Vec settled(kNumEnzymes, 1.08);
  num::Rng rng(20260808);
  num::Vec cycling(kNumEnzymes);
  for (double& m : cycling) m = std::clamp(1.0 + rng.normal(0.0, 0.05), 0.02, 5.0);

  // A stale result from another candidate: every field must be overwritten.
  SteadyState out = present_high().natural_state();
  out.pool_exact_hit = true;
  out.cycle_period = 7.0;
  const auto step = [&](const num::Vec& mult, bool exact_hit, bool oscillatory) {
    const SteadyState expected = by_value.steady_state(mult);
    into.steady_state_into(mult, out);
    expect_same_bits(expected, out);
    EXPECT_EQ(out.pool_exact_hit, exact_hit);
    EXPECT_EQ(out.oscillatory, oscillatory);
    if (exact_hit) {
      EXPECT_EQ(out.newton_iterations, 0u);
      EXPECT_EQ(out.rhs_evaluations, 1u);
      EXPECT_EQ(out.jacobian_factorizations, 0u);
    }
  };
  {
    SCOPED_TRACE("root: miss, then exact hit");
    step(settled, false, false);
    step(settled, true, false);
  }
  {
    SCOPED_TRACE("living cycle: miss, then exact hit");
    step(cycling, false, true);
    step(cycling, true, true);
  }
}

TEST(C3ModelTest, DisabledPoolNeverWarmStarts) {
  C3Config cfg;
  cfg.warm_pool_capacity = 0;
  const C3Model m(cfg);
  ASSERT_TRUE(m.natural_state().converged);
  const num::Vec a(kNumEnzymes, 1.05);
  ASSERT_TRUE(m.steady_state(a).converged);
  EXPECT_EQ(m.warm_pool().snapshot_size(), 0u);
  const SteadyState s2 = m.steady_state(a);
  ASSERT_TRUE(s2.converged);
  EXPECT_FALSE(s2.warm_started);
}

TEST(C3ModelTest, EpochCommittedPoolIsThreadCountInvariant) {
  // The tentpole's determinism contract at unit level: generational batches
  // through core::evaluate_batch, with the problem's epoch commit between
  // them (exactly what the engines do), must produce bit-identical
  // objectives and violations for any thread count.  A fresh model per
  // width — the pool is model state.
  const auto run_with_threads = [](std::size_t threads) {
    auto model = std::make_shared<const C3Model>(C3Config{});
    PhotosynthesisProblem problem(model);
    num::Rng rng(77);
    std::vector<num::Vec> scores;
    for (int gen = 0; gen < 3; ++gen) {
      std::vector<moo::Individual> batch(16);
      for (moo::Individual& ind : batch) {
        ind.x.resize(kNumEnzymes);
        for (double& v : ind.x) v = std::clamp(rng.normal(1.0, 0.25), 0.02, 5.0);
      }
      core::evaluate_batch(problem, batch, threads);
      problem.commit_epoch();
      for (moo::Individual& ind : batch) {
        num::Vec row = ind.f;
        row.push_back(ind.violation);
        scores.push_back(std::move(row));
      }
    }
    return scores;
  };
  const auto serial = run_with_threads(1);
  const auto wide = run_with_threads(8);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], wide[i]) << "candidate " << i;  // bitwise
  }
}

}  // namespace
}  // namespace rmp::kinetics
