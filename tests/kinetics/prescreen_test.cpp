// Tangent-model prescreen soundness and accounting.
//
// The safety property under test: a prescreen SKIP may only ever stand in
// for a candidate the full kinetic solve would have rejected from the
// archive too.  The implementation guarantees this by construction — a skip
// reports the candidate infeasible (violation > 0), and infeasible
// candidates are never admitted to the archive — but the randomized suite
// below checks the stronger empirical claim that the skip decisions are
// CORRECT, not just safe: every skipped candidate, solved in full, really is
// infeasible (dead or unconverged), so prescreening never discards a design
// the archive would have accepted.
#include <gtest/gtest.h>

#include <cmath>

#include "kinetics/photosynthesis_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/archive.hpp"
#include "numeric/vec.hpp"

namespace rmp::kinetics {
namespace {

/// One shared model: construction solves the natural state and anchors, so
/// tests reuse it (the warm pool accumulates across tests — each test seeds
/// what it needs and never assumes an empty pool).
std::shared_ptr<const C3Model> shared_model() {
  static std::shared_ptr<const C3Model> model = make_model(figure2_scenario());
  return model;
}

PhotosynthesisBounds prescreen_bounds() {
  PhotosynthesisBounds b;
  b.prescreen = true;
  return b;
}

/// Seeds the warm pool with the natural partition and seeded jitters of it,
/// committing so the tangent models are available to predict_uptake().
void seed_pool(const PhotosynthesisProblem& p, std::uint64_t seed,
               std::size_t count) {
  num::Rng rng(seed);
  num::Vec f(2);
  num::Vec x(kNumEnzymes, 1.0);
  (void)p.evaluate(x, f);
  for (std::size_t i = 0; i < count; ++i) {
    for (double& m : x) {
      m = std::clamp(rng.normal(1.0, 0.2), p.lower_bounds()[0],
                     p.upper_bounds()[0]);
    }
    (void)p.evaluate(x, f);
  }
  p.commit_epoch();
}

TEST(PrescreenTest, SkipsAreSoundAgainstTheFullSolve) {
  const auto model = shared_model();
  // The prescreen's honest habitat: a HIGH feasibility threshold carving a
  // smooth boundary through well-pooled territory.  min_uptake = 12 sits on
  // the gentle mid-flank of the uptake manifold (natural uptake ~15.5,
  // collapse only below uniform scale ~0.03), so candidates on the
  // uniform-scaling ray well below the threshold have accurate tangent
  // predictions from nearby pooled anchors and are skipped with the
  // DEFAULT margin/radius — no tuned-down safety knobs.
  PhotosynthesisBounds bounds = prescreen_bounds();
  bounds.min_uptake = 12.0;
  PhotosynthesisProblem p(model, bounds);
  ASSERT_TRUE(p.prescreen_enabled());

  // Seed a ladder of anchors along the uniform-scaling ray.  Every rung is
  // alive in the model's sense (uptake > ~4 down at scale 0.25, far above
  // the pool's 0.5 staging threshold), so the pool covers the INFEASIBLE
  // band below min_uptake — the coverage the prescreen relies on.
  {
    num::Vec f(2);
    for (double s = 0.75; s >= 0.20; s -= 0.05) {
      num::Vec x(kNumEnzymes, s);
      (void)p.evaluate(x, f);
    }
    p.commit_epoch();
  }

  // Randomized candidates: jittered scales in [0.25, 0.55], whose true
  // uptake (~4 to ~9) sits several margins below the threshold.
  num::Rng rng(23);
  moo::EvalStats before = p.eval_stats();
  std::size_t skips_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const double scale = 0.25 + 0.30 * rng.uniform();
    num::Vec x(kNumEnzymes);
    for (double& m : x) {
      m = scale * std::clamp(rng.normal(1.0, 0.03), 0.8, 1.2);
    }

    num::Vec f(2);
    const double violation = p.evaluate(x, f);
    const moo::EvalStats after = p.eval_stats();
    const bool skipped = after.prescreen_skips > before.prescreen_skips;
    before = after;
    if (!skipped) continue;
    ++skips_seen;

    // A skip must be reported infeasible — the archive never admits those.
    EXPECT_GT(violation, 0.0);
    moo::Individual ind;
    ind.x = x;
    ind.f.assign(f.begin(), f.end());
    ind.violation = violation;
    moo::Archive archive;
    archive.offer(ind);
    EXPECT_EQ(archive.size(), 0u);

    // Soundness proper: the full solve agrees the candidate is not
    // archive-admissible (dead, below the alive threshold, or unconverged).
    const SteadyState full = model->steady_state(x);
    EXPECT_FALSE(full.converged && full.co2_uptake >= bounds.min_uptake)
        << "prescreen dropped an admissible candidate: uptake="
        << full.co2_uptake;
    p.commit_epoch();  // fold the verification solve into the pool
  }
  // The suite must actually exercise the skip path to mean anything — in
  // this habitat nearly every candidate is confidently below threshold.
  EXPECT_GE(skips_seen, 10u);
}

TEST(PrescreenTest, ExactPoolRepeatsAreNeverSkipped) {
  const auto model = shared_model();
  PhotosynthesisProblem p(model, prescreen_bounds());
  // A feasible candidate, evaluated and committed...
  num::Vec x(kNumEnzymes, 1.0);
  num::Vec f1(2), f2(2);
  const double v1 = p.evaluate(x, f1);
  ASSERT_EQ(v1, 0.0);
  p.commit_epoch();
  const moo::EvalStats before = p.eval_stats();
  // ... is answered by the pool's exact-key short circuit on repeat, never
  // prescreen-skipped, and reproduces the objectives bitwise.
  const double v2 = p.evaluate(x, f2);
  const moo::EvalStats after = p.eval_stats();
  EXPECT_EQ(after.prescreen_skips, before.prescreen_skips);
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(v2, v1);
  EXPECT_TRUE(num::bitwise_equal(f1, f2));
}

TEST(PrescreenTest, PredictionIsPureAndExactOnPooledKeys) {
  const auto model = shared_model();
  PhotosynthesisProblem p(model, prescreen_bounds());
  num::Vec x(kNumEnzymes, 1.0);
  num::Vec f(2);
  (void)p.evaluate(x, f);
  p.commit_epoch();

  // Exact on a pooled key: the prediction IS the full answer.
  const TangentPrediction exact = model->predict_uptake(x);
  ASSERT_TRUE(exact.valid);
  EXPECT_TRUE(exact.exact);
  EXPECT_EQ(exact.dist2, 0.0);
  EXPECT_EQ(exact.step2, 0.0);
  EXPECT_EQ(exact.uptake, -f[0]);

  // Pure between commits: identical twice for a non-pooled candidate.
  num::Vec y(x);
  y[0] = 0.8;
  const TangentPrediction a = model->predict_uptake(y);
  const TangentPrediction b = model->predict_uptake(y);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.uptake, b.uptake);
  EXPECT_EQ(a.dist2, b.dist2);
  EXPECT_EQ(a.step2, b.step2);
  if (a.valid) {
    EXPECT_FALSE(a.exact);
  }
}

TEST(PrescreenTest, CountersPartitionTheEvaluationBudget) {
  const auto model = shared_model();
  PhotosynthesisProblem p(model, prescreen_bounds());
  seed_pool(p, 31, 4);
  num::Rng rng(37);
  num::Vec f(2);
  num::Vec repeat(kNumEnzymes, 1.0);
  for (int trial = 0; trial < 25; ++trial) {
    num::Vec x(kNumEnzymes);
    for (double& m : x) m = std::clamp(rng.normal(1.0, 0.3), 0.02, 5.0);
    if (trial % 4 == 0) x = repeat;  // force pool exact hits
    if (trial % 5 == 0) x[trial % kNumEnzymes] = 0.02;  // invite skips
    (void)p.evaluate(x, f);
    if (trial % 3 == 0) p.commit_epoch();
  }
  const moo::EvalStats s = p.eval_stats();
  // Every evaluation is exactly one of: prescreen skip, pool exact hit, or
  // full solve.
  EXPECT_EQ(s.evaluations,
            s.prescreen_skips + s.pool_hits + s.full_evaluations);
  EXPECT_GT(s.pool_hits, 0u);
}

TEST(PrescreenTest, DisabledByDefaultAndTogglable) {
  const auto model = shared_model();
  PhotosynthesisProblem p(model);  // default bounds: prescreen off
  EXPECT_FALSE(p.prescreen_enabled());
  EXPECT_TRUE(p.set_prescreen(true));
  EXPECT_TRUE(p.prescreen_enabled());
  EXPECT_TRUE(p.set_prescreen(false));
  EXPECT_FALSE(p.prescreen_enabled());
}

}  // namespace
}  // namespace rmp::kinetics
