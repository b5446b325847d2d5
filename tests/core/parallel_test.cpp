#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "kinetics/scenarios.hpp"
#include "moo/nsga2.hpp"
#include "moo/testproblems.hpp"
#include "numeric/rng.hpp"
#include "robustness/yield.hpp"

namespace rmp::core {
namespace {

std::vector<moo::Individual> random_batch(const moo::Problem& problem,
                                          std::size_t n, std::uint64_t seed) {
  num::Rng rng(seed);
  const auto lo = problem.lower_bounds();
  const auto hi = problem.upper_bounds();
  std::vector<moo::Individual> batch(n);
  for (auto& ind : batch) {
    ind.x.resize(problem.num_variables());
    for (std::size_t i = 0; i < ind.x.size(); ++i)
      ind.x[i] = rng.uniform(lo[i], hi[i]);
  }
  return batch;
}

TEST(ParallelTest, EmptyBatchIsANoOp) {
  const moo::Zdt1 problem(6);
  std::vector<moo::Individual> batch;
  EXPECT_EQ(evaluate_batch(problem, batch, 0), 0u);
  EXPECT_EQ(evaluate_batch(problem, batch, 4), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(ParallelTest, BatchMatchesDirectEvaluation) {
  const moo::Zdt1 problem(8);
  auto batch = random_batch(problem, 33, 17);
  EXPECT_EQ(evaluate_batch(problem, batch, 4), batch.size());
  for (const auto& ind : batch) {
    num::Vec f(problem.num_objectives(), 0.0);
    const double violation = problem.evaluate(ind.x, f);
    ASSERT_EQ(ind.f.size(), f.size());
    for (std::size_t j = 0; j < f.size(); ++j) EXPECT_EQ(ind.f[j], f[j]);
    EXPECT_EQ(ind.violation, violation);
  }
}

TEST(ParallelTest, ThreadCountDoesNotChangeResults) {
  const moo::Zdt1 problem(10);
  const auto reference = [&] {
    auto batch = random_batch(problem, 64, 3);
    evaluate_batch(problem, batch, 1);
    return batch;
  }();
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{4}, std::size_t{9}}) {
    auto batch = random_batch(problem, 64, 3);
    evaluate_batch(problem, batch, threads);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (std::size_t j = 0; j < batch[i].f.size(); ++j) {
        EXPECT_EQ(batch[i].f[j], reference[i].f[j])
            << "threads=" << threads << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(ParallelTest, EngineRunIsDeterministicAcrossThreadCounts) {
  const moo::Zdt1 problem(8);
  auto run = [&](std::size_t threads) {
    moo::Nsga2Options o;
    o.population_size = 24;
    o.seed = 11;
    o.eval_threads = threads;
    moo::Nsga2 alg(problem, o);
    alg.run(10);
    return std::vector<moo::Individual>(alg.population().begin(),
                                        alg.population().end());
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].x.size(), parallel[i].x.size());
    for (std::size_t v = 0; v < serial[i].x.size(); ++v)
      EXPECT_EQ(serial[i].x[v], parallel[i].x[v]);
    for (std::size_t j = 0; j < serial[i].f.size(); ++j)
      EXPECT_EQ(serial[i].f[j], parallel[i].f[j]);
  }
}

TEST(ParallelTest, YieldGammaInvariantUnderThreads) {
  const num::Vec x(5, 1.0);
  const robustness::PropertyFn f = [](std::span<const double> v) {
    double s = 0.0;
    for (const double e : v) s += e * e;
    return s;
  };
  robustness::YieldConfig cfg;
  cfg.perturbation.global_trials = 500;
  cfg.seed = 42;
  cfg.threads = 1;
  const auto serial = robustness::global_yield(x, f, cfg);
  cfg.threads = 4;
  const auto parallel = robustness::global_yield(x, f, cfg);
  EXPECT_EQ(serial.gamma, parallel.gamma);
  EXPECT_EQ(serial.robust_trials, parallel.robust_trials);
  EXPECT_EQ(serial.max_deviation, parallel.max_deviation);
}

TEST(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::atomic<int> total{0};
  // Two sequential nested regions per outer index: regression for the
  // re-entrancy guard being *restored* (not cleared) when a nested batch
  // ends — with a clear, the second nested call below would re-enter the
  // pool and deadlock on any multi-core host.
  parallel_for(kOuter, 0, [&](std::size_t) {
    parallel_for(kInner, 0, [&](std::size_t) { total.fetch_add(1); });
    parallel_for(kInner, 0, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), static_cast<int>(2 * kOuter * kInner));
}

TEST(ParallelTest, ExplicitPoolSurvivesRepeatedNestedBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::function<void(std::size_t)> fn = [&](std::size_t) {
    parallel_for(4, 2, [&](std::size_t) { total.fetch_add(1); });
    parallel_for(4, 2, [&](std::size_t) { total.fetch_add(1); });
  };
  pool.for_each_index(16, fn);
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(ParallelTest, DeterministicRegionFlagCoversEveryExecutionPath) {
  EXPECT_FALSE(in_deterministic_region());
  std::atomic<int> flagged{0};
  const auto count_flag = [&](std::size_t) {
    if (in_deterministic_region()) flagged.fetch_add(1);
  };
  parallel_for(4, 1, count_flag);  // serial path
  parallel_for(4, 4, count_flag);  // pooled (or inline on 1-core hosts)
  parallel_for(1, 4, count_flag);  // n < 2 fallback
  EXPECT_EQ(flagged.load(), 9);
  EXPECT_FALSE(in_deterministic_region());
}

TEST(ParallelTest, KineticSteadyStateIsSnapshotPureInsideRegions) {
  // The PR-1 contract (results a pure function of the candidate for any
  // thread count) is now carried by the epoch-committed warm-start pool:
  // inside a parallel region every solve reads ONE immutable snapshot, and
  // work staged by other in-region evaluations cannot leak into later
  // solves of the same epoch — commits happen only at the engines' serial
  // barriers.  Here the model has an empty snapshot throughout, so the
  // probe's result must be bit-identical no matter what other candidates
  // the region solved (and staged) before it.
  const auto model = kinetics::make_model(kinetics::table1_scenario());
  const num::Vec probe(kinetics::kNumEnzymes, 1.05);
  const auto solve_in_region = [&](double pollute_level) {
    const num::Vec pollute(kinetics::kNumEnzymes, pollute_level);
    double uptake = 0.0;
    parallel_for(1, 1, [&](std::size_t) {
      // Stages a warm-start entry; must NOT become visible this epoch.
      (void)model->steady_state(pollute);
      uptake = model->steady_state(probe).co2_uptake;
    });
    return uptake;
  };
  const double first = solve_in_region(0.9);
  const double second = solve_in_region(1.3);
  EXPECT_EQ(first, second);  // bit-exact: staged history must not leak in
}

TEST(ParallelTest, EvaluateBatchInsidePoolTaskRunsInlineAndMatchesSerial) {
  // Two-tier composition (the archipelago pattern): coarse tasks on an
  // explicit pool, each calling evaluate_batch.  The nested batch must run
  // inline on the task's thread — no deadlock, full coverage — and produce
  // results bit-identical to the serial path.
  const moo::Zdt1 problem(8);
  auto expected = random_batch(problem, 16, 5);
  evaluate_batch(problem, expected, 1);

  EXPECT_FALSE(in_pool_batch());
  constexpr std::size_t kTasks = 4;
  std::vector<std::vector<moo::Individual>> results(kTasks);
  std::vector<int> saw_pool_batch(kTasks, 0);
  ThreadPool pool(2);  // real workers even on a 1-core host
  pool.for_each_index(kTasks, [&](std::size_t t) {
    saw_pool_batch[t] = in_pool_batch() ? 1 : 0;
    results[t] = random_batch(problem, 16, 5);
    evaluate_batch(problem, results[t], 0);  // nested: must run inline
  });
  EXPECT_FALSE(in_pool_batch());

  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(saw_pool_batch[t], 1) << "task " << t;
    ASSERT_EQ(results[t].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      for (std::size_t j = 0; j < expected[i].f.size(); ++j)
        EXPECT_EQ(results[t][i].f[j], expected[i].f[j]);
    }
  }
}

TEST(ParallelTest, MultiSpanBatchMatchesOneFlatBatch) {
  // The several-span overload is one flat region: the same answers as one
  // batch holding every span's items end to end, empty spans included, and
  // with threads = 1 the items are scored span after span, in order.
  const moo::Zdt1 problem(8);
  const std::vector<std::size_t> sizes = {5, 0, 17, 9};
  auto expected = random_batch(problem, 31, 23);
  evaluate_batch(problem, expected, 1);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    auto flat = random_batch(problem, 31, 23);
    std::vector<std::vector<moo::Individual>> parts;
    std::size_t begin = 0;
    for (const std::size_t n : sizes) {
      parts.emplace_back(flat.begin() + static_cast<long>(begin),
                         flat.begin() + static_cast<long>(begin + n));
      begin += n;
    }
    std::vector<std::span<moo::Individual>> spans(parts.begin(), parts.end());
    EXPECT_EQ(evaluate_batch(problem, spans, threads), 31u);
    std::size_t i = 0;
    for (const auto& part : parts) {
      for (const moo::Individual& ind : part) {
        EXPECT_EQ(ind.f, expected[i].f) << "threads=" << threads << " i=" << i;
        EXPECT_EQ(ind.violation, expected[i].violation);
        ++i;
      }
    }
  }

  // Serial order: a problem that logs its first coordinate.
  struct LoggingProblem final : moo::BoxProblem {
    LoggingProblem() : moo::BoxProblem(2, 2, 0.0, 1.0, "logging") {}
    double evaluate(std::span<const double> x,
                    std::span<double> objectives) const override {
      log.push_back(x[0]);
      objectives[0] = x[0];
      objectives[1] = x[1];
      return 0.0;
    }
    mutable std::vector<double> log;
  } logging;
  std::vector<moo::Individual> a(2), b(3);
  double next = 0.0;
  for (auto* part : {&a, &b}) {
    for (moo::Individual& ind : *part) ind.x = {next++ / 10.0, 0.5};
  }
  std::vector<std::span<moo::Individual>> spans = {a, b};
  evaluate_batch(logging, spans, 1);
  EXPECT_EQ(logging.log, (std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4}));
}

TEST(ParallelTest, ExceptionsPropagateToTheCaller) {
  EXPECT_THROW(
      parallel_for(64, 4,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

}  // namespace
}  // namespace rmp::core
