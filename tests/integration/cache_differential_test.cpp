// Differential harness for the repeat paths of a run — the warm pool's
// exact-key hit (the one memo) and the tangent prescreen: the same RunSpec
// executed plain and prescreened, at island thread counts {1, 2, 8}.
//
// Contracts under test (the determinism section of ARCHITECTURE.md):
//   * every configuration: bit-identical results across thread counts, and
//     evaluation accounting (prescreen skips, pool hits, full solves) that
//     is itself thread-count invariant;
//   * prescreen on: deterministic and thread-count invariant (it may change
//     which violation values infeasible candidates report, so it is only
//     required to agree with itself, not with the unscreened run — see the
//     spec.hpp knob comment);
//   * the counters partition the evaluation budget exactly.
//
// The kinetic workload is migration-heavy PMO2 over the photosynthesis
// problem with a robustness stage — a repeat-rich profile, so the pool's
// exact hit fires.  The pool= knob is sized so the warm pool never evicts.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "api/run.hpp"
#include "numeric/vec.hpp"

namespace rmp::api {
namespace {

RunSpec kinetic_spec(std::size_t threads, bool prescreen) {
  RunSpec spec;
  spec.problem = "photosynthesis?scenario=present-low&pool=4096";
  spec.optimizer =
      "pmo2?islands=2&population=8&migration_interval=2&migrants=2";
  spec.generations = 6;
  spec.seed = 7;
  spec.threads = threads;
  spec.prescreen = prescreen;
  spec.robustness.enabled = true;
  spec.robustness.trials = 6;
  spec.robustness.surface_samples = 0;
  return spec;
}

void expect_same_answers(const RunResult& a, const RunResult& b,
                         const char* what) {
  EXPECT_EQ(a.fingerprint, b.fingerprint) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  ASSERT_EQ(a.front.size(), b.front.size()) << what;
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_TRUE(num::bitwise_equal(a.front[i].f, b.front[i].f)) << what;
  }
  ASSERT_EQ(a.mined.size(), b.mined.size()) << what;
  for (std::size_t i = 0; i < a.mined.size(); ++i) {
    EXPECT_EQ(a.mined[i].selection, b.mined[i].selection) << what;
    EXPECT_EQ(a.mined[i].front_index, b.mined[i].front_index) << what;
    EXPECT_TRUE(num::bitwise_equal(a.mined[i].x, b.mined[i].x)) << what;
    EXPECT_TRUE(num::bitwise_equal(a.mined[i].objectives, b.mined[i].objectives))
        << what;
    ASSERT_EQ(a.mined[i].yield.has_value(), b.mined[i].yield.has_value()) << what;
    if (a.mined[i].yield) {
      EXPECT_EQ(a.mined[i].yield->gamma, b.mined[i].yield->gamma) << what;
      EXPECT_EQ(a.mined[i].yield->nominal_value, b.mined[i].yield->nominal_value)
          << what;
    }
  }
}

void expect_same_accounting(const moo::EvalStats& a, const moo::EvalStats& b,
                            const char* what) {
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  EXPECT_EQ(a.prescreen_skips, b.prescreen_skips) << what;
  EXPECT_EQ(a.pool_hits, b.pool_hits) << what;
  EXPECT_EQ(a.full_evaluations, b.full_evaluations) << what;
}

void expect_counters_partition_budget(const RunResult& r, const char* what) {
  EXPECT_EQ(r.eval_stats.evaluations,
            r.eval_stats.prescreen_skips + r.eval_stats.pool_hits +
                r.eval_stats.full_evaluations)
      << what;
  // The optimize stage's budget is part of the total (robustness adds more).
  EXPECT_GE(r.eval_stats.evaluations, r.evaluations) << what;
}

const std::vector<std::size_t>& thread_counts() {
  static const std::vector<std::size_t> counts = {1, 2, 8};
  return counts;
}

TEST(CacheDifferentialTest, KineticRunIsThreadCountInvariant) {
  std::vector<RunResult> runs;
  for (const std::size_t t : thread_counts()) {
    runs.push_back(run(kinetic_spec(t, false)));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_answers(runs[0], runs[i], "plain across threads");
    expect_same_accounting(runs[0].eval_stats, runs[i].eval_stats,
                           "plain accounting across threads");
  }
  for (const RunResult& r : runs) {
    expect_counters_partition_budget(r, "plain");
  }
  // The workload genuinely repeats candidates, and the pool's exact hit
  // answers them without a solve.
  EXPECT_GT(runs[0].eval_stats.pool_hits, 0u);
}

TEST(CacheDifferentialTest, PrescreenIsThreadCountInvariant) {
  std::vector<RunResult> screened;
  for (const std::size_t t : thread_counts()) {
    screened.push_back(run(kinetic_spec(t, true)));
  }
  for (std::size_t i = 1; i < screened.size(); ++i) {
    expect_same_answers(screened[0], screened[i], "prescreen across threads");
    expect_same_accounting(screened[0].eval_stats, screened[i].eval_stats,
                           "prescreen accounting across threads");
  }
  for (const RunResult& r : screened) {
    expect_counters_partition_budget(r, "prescreen");
  }
}

TEST(CacheDifferentialTest, AnalyticRunIsThreadCountInvariant) {
  // A pure analytic problem carries no accelerator state and no counters:
  // its answers must not depend on the thread count either, and its
  // accounting reads all zero at every thread count.
  RunSpec spec;
  spec.problem = "zdt1?n=8";
  spec.optimizer = "pmo2?islands=2&population=12&migration_interval=3";
  spec.generations = 12;
  spec.seed = 5;
  spec.robustness.enabled = false;
  std::vector<RunResult> runs;
  for (const std::size_t t : thread_counts()) {
    spec.threads = t;
    runs.push_back(run(spec));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_answers(runs[0], runs[i], "zdt1 across threads");
    expect_same_accounting(runs[0].eval_stats, runs[i].eval_stats,
                           "zdt1 accounting across threads");
  }
  for (const RunResult& r : runs) {
    EXPECT_EQ(r.eval_stats.evaluations, 0u) << "zdt1 is uninstrumented";
    EXPECT_EQ(r.eval_stats.pool_hits + r.eval_stats.prescreen_skips +
                  r.eval_stats.full_evaluations,
              0u);
  }
}

TEST(CacheDifferentialTest, PrescreenOnProblemWithoutOneIsRejected) {
  RunSpec spec;
  spec.problem = "zdt1?n=8";
  spec.generations = 1;
  spec.prescreen = true;
  EXPECT_THROW((void)run(spec), SpecError);
}

}  // namespace
}  // namespace rmp::api
