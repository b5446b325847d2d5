// Ablation A3 — google-benchmark micro-kernels of the hot paths:
// non-dominated sorting, hypervolume, ODE stepping, kinetic steady-state
// solves (Newton vs integration), the LP solve, and the null-space repair.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/parallel.hpp"
#include "fba/fba.hpp"
#include "fba/geobacter_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/dominance.hpp"
#include "moo/testproblems.hpp"
#include "numeric/matrix.hpp"
#include "numeric/ode.hpp"
#include "numeric/rng.hpp"
#include "pareto/hypervolume.hpp"

namespace {

using namespace rmp;

std::vector<moo::Individual> random_population(std::size_t n, std::size_t m,
                                               std::uint64_t seed) {
  num::Rng rng(seed);
  std::vector<moo::Individual> pop(n);
  for (auto& ind : pop) {
    ind.f.resize(m);
    for (double& v : ind.f) v = rng.uniform();
  }
  return pop;
}

void BM_FastNondominatedSort(benchmark::State& state) {
  auto pop = random_population(static_cast<std::size_t>(state.range(0)), 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::fast_nondominated_sort(pop));
  }
}
BENCHMARK(BM_FastNondominatedSort)->Arg(100)->Arg(200)->Arg(400);

void BM_Hypervolume2d(benchmark::State& state) {
  num::Rng rng(7);
  std::vector<num::Vec> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) p = {rng.uniform(), rng.uniform()};
  const num::Vec ref{1.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::hypervolume(pts, ref));
  }
}
BENCHMARK(BM_Hypervolume2d)->Arg(100)->Arg(1000);

void BM_Hypervolume3dWfg(benchmark::State& state) {
  num::Rng rng(8);
  std::vector<num::Vec> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  const num::Vec ref{1.0, 1.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::hypervolume(pts, ref));
  }
}
BENCHMARK(BM_Hypervolume3dWfg)->Arg(20)->Arg(60);

void BM_OdeStepRosenbrock(benchmark::State& state) {
  const num::OdeRhs decay = [](double, std::span<const double> y, num::Vec& d) {
    for (std::size_t i = 0; i < y.size(); ++i) d[i] = -y[i] * (1.0 + 100.0 * i);
  };
  const num::OdeJacobian decay_jac = [](double, std::span<const double> y,
                                        num::Matrix& j) {
    for (std::size_t i = 0; i < y.size(); ++i) j(i, i) = -(1.0 + 100.0 * i);
  };
  const num::Vec y0(24, 1.0);
  num::OdeOptions o;
  o.method = num::OdeMethod::kRosenbrockW;
  o.jacobian = decay_jac;
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::integrate(decay, 0.0, y0, 1.0, o));
  }
  // Deterministic work per integration, next to the wall time.
  const num::OdeResult r = num::integrate(decay, 0.0, y0, 1.0, o);
  state.counters["steps"] = static_cast<double>(r.steps + r.rejected);
  state.counters["rhs_evals"] = static_cast<double>(r.rhs_evals);
}
BENCHMARK(BM_OdeStepRosenbrock);

void BM_SteadyStateWarm(benchmark::State& state) {
  static const auto model = kinetics::make_model(kinetics::table1_scenario());
  num::Rng rng(4);
  num::Vec mult(kinetics::kNumEnzymes, 1.0);
  for (auto _ : state) {
    for (double& v : mult) v = 1.0 + rng.uniform(-0.05, 0.05);
    benchmark::DoNotOptimize(model->steady_state(mult));
  }
}
BENCHMARK(BM_SteadyStateWarm);

void BM_SteadyStateFar(benchmark::State& state) {
  static const auto model = kinetics::make_model(kinetics::table1_scenario());
  num::Rng rng(5);
  num::Vec mult(kinetics::kNumEnzymes, 1.0);
  for (auto _ : state) {
    for (double& v : mult) v = rng.uniform(0.3, 3.0);
    benchmark::DoNotOptimize(model->steady_state(mult));
  }
}
BENCHMARK(BM_SteadyStateFar);

void BM_GeobacterLp(benchmark::State& state) {
  static const fba::MetabolicNetwork net = fba::build_geobacter();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fba::run_fba(net, fba::geobacter_ids::kElectronProduction));
  }
}
BENCHMARK(BM_GeobacterLp)->Unit(benchmark::kMillisecond);

void BM_NullspaceRepair(benchmark::State& state) {
  static const auto net =
      std::make_shared<const fba::MetabolicNetwork>(fba::build_geobacter());
  static const fba::GeobacterProblem problem(net);
  num::Rng rng(6);
  const num::Vec lo = net->lower_bounds();
  const num::Vec hi = net->upper_bounds();
  num::Vec x(net->num_reactions());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform(lo[i], std::min(hi[i], lo[i] + 10.0));
    }
    problem.repair(x);
    benchmark::DoNotOptimize(x);
  }
  // Deterministic work next to the time: multiply-adds per call over the
  // row profiles of Q and Q^T (the problem builds Q from these same calls),
  // against the dense 2 * 608 * dim(null S) per round.
  const num::Matrix q = num::orthonormalize_columns(
      num::nullspace_basis(net->stoichiometric_matrix().to_dense()));
  const auto rounds = static_cast<double>(fba::kRepairRounds);
  const num::ProfileMatrix qp(q), qtp(q.transposed());
  state.counters["madds"] =
      rounds * static_cast<double>(qp.profile_size() + qtp.profile_size());
  state.counters["dense_madds"] = rounds * 2.0 * static_cast<double>(q.rows() * q.cols());
}
BENCHMARK(BM_NullspaceRepair)->Unit(benchmark::kMicrosecond);

// Serial-vs-parallel batch evaluation (core::evaluate_batch).  The problem
// wraps ZDT1 in a fixed amount of deterministic per-evaluation arithmetic so
// each call costs roughly what a small kinetic solve does; the speedup of
// threads=0 (auto) over threads=1 (serial) is the pool's scaling factor on
// the host.  Identical results are guaranteed for every thread count.
class CostlyZdt1 final : public moo::Problem {
 public:
  explicit CostlyZdt1(std::size_t n, std::size_t work) : inner_(n), work_(work) {}
  std::size_t num_variables() const override { return inner_.num_variables(); }
  std::size_t num_objectives() const override { return inner_.num_objectives(); }
  std::span<const double> lower_bounds() const override {
    return inner_.lower_bounds();
  }
  std::span<const double> upper_bounds() const override {
    return inner_.upper_bounds();
  }
  double evaluate(std::span<const double> x,
                  std::span<double> objectives) const override {
    double burn = 0.0;
    for (std::size_t i = 0; i < work_; ++i) {
      burn += std::sin(static_cast<double>(i) + x[0]);
    }
    benchmark::DoNotOptimize(burn);
    return inner_.evaluate(x, objectives);
  }

 private:
  moo::Zdt1 inner_;
  std::size_t work_;
};

void BM_EvaluateBatch(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const CostlyZdt1 problem(12, 2000);
  num::Rng rng(9);
  std::vector<moo::Individual> batch(batch_size);
  for (auto& ind : batch) {
    ind.x.resize(problem.num_variables());
    for (double& v : ind.x) v = rng.uniform();
  }
  for (auto _ : state) {
    core::evaluate_batch(problem, batch, threads);
    benchmark::DoNotOptimize(batch.data());
  }
  state.counters["threads"] =
      static_cast<double>(threads == 0 ? core::resolve_threads(0) : threads);
  state.counters["evals/s"] = benchmark::Counter(
      static_cast<double>(batch_size), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EvaluateBatch)
    ->ArgsProduct({{256, 1024}, {1, 0}})
    ->Unit(benchmark::kMicrosecond)
    ->ArgNames({"batch", "threads"});

void BM_ViolationNorm(benchmark::State& state) {
  static const fba::MetabolicNetwork net = fba::build_geobacter();
  num::Vec x(net.num_reactions(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.steady_state_violation(x));
  }
}
BENCHMARK(BM_ViolationNorm);

}  // namespace

BENCHMARK_MAIN();
