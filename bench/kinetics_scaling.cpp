// Kinetic steady-state engine benchmark — the evaluation hot path in
// isolation, plus the determinism contract under PMO2.
//
// Part 1 (throughput): streams G "generations" of B drifting enzyme
// partitions — the shape of an optimizer population — through
// C3Model::steady_state inside core::parallel_for batches with an epoch
// commit between generations (exactly the engines' cadence), once per
// solver configuration:
//   engine v1 — analytic Jacobians, chord-Newton reuse, epoch-committed
//               warm-start pool, windowed cycle averages (the PR-5 engine);
//   engine v2 — v1's Newton path plus the shooting limit-cycle solver with
//               pool-able cycle anchors for the oscillatory tail (the
//               defaults).
// Reported per configuration: wall seconds, solves/sec, mean Newton
// iterations, RHS evaluations and Jacobian factorizations (per solve and
// totalled over the stream), integration-fallback, warm-start and shooting
// rates — work counters, not just wall time.  The oscillatory candidates
// both engines resolve as limit cycles are split out as the cycle path,
// where v1 integrates a 400-unit window and v2 shoots the cycle.  Three
// gates, each off at 0:
//   RMP_KINETICS_MAX_RHS       — ceiling on v2's total ladder RHS
//     evaluations over the stream;
//   RMP_KINETICS_MAX_LU        — ceiling on v2's total Jacobian
//     factorizations over the stream.  Both counters are deterministic
//     (seeded stream, epoch-committed pool), so run_benchmarks.sh sets them
//     at both scales to the values the engine measures today: any extra
//     solver work fails the gate exactly, with no wall-clock noise;
//   RMP_KINETICS_MIN_V2_MIXED  — v2-over-v1 mixed-workload wall floor
//     (run_benchmarks.sh sets 2 at full scale — v1 and v2 share the Newton
//     path, so the whole difference is the shooting cycle path vs the
//     400-unit window).
//
// Part 2 (determinism cross-check): a fixed PMO2 spec on the photosynthesis
// problem is run with island_threads in {1, 2, 8} for each of four solver
// configurations (v1 and v2, each with the pool disabled and enabled), each
// run on a FRESH model — the pool is model state.  Within every
// configuration the archive fingerprint must be bit-identical across
// thread counts; any divergence exits non-zero.
//
// Environment knobs: RMP_KINETICS_GENERATIONS (30), RMP_KINETICS_BATCH
// (64), RMP_KINETICS_THREADS (1 — serial measurement under the
// deterministic-region cadence; 0 = hardware), RMP_KINETICS_MAX_RHS (0),
// RMP_KINETICS_MAX_LU (0), RMP_KINETICS_MIN_V2_MIXED (0),
// RMP_KINETICS_PMO2_GENERATIONS (6), RMP_KINETICS_PMO2_POPULATION (8).
// Usage: kinetics_scaling [output.json]   (default BENCH_kinetics.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/parallel.hpp"
#include "kinetics/c3model.hpp"
#include "kinetics/photosynthesis_problem.hpp"
#include "moo/pmo2.hpp"
#include "numeric/rng.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;

namespace {

using rmp::kinetics::C3Config;
using rmp::kinetics::C3Model;
using rmp::kinetics::kNumEnzymes;
using rmp::kinetics::SteadyState;

/// The PR-5 engine: every Newton-path optimization, oscillatory candidates
/// resolved by the windowed long integration (shooting off).
C3Config v1_config() {
  C3Config cfg;
  cfg.cycle_shooting = false;
  return cfg;
}

/// The candidate stream both configurations consume: generated once,
/// replayed identically.  Each generation drifts a center partition by a
/// small random walk and scatters candidates around it — successive
/// generations stay correlated, which is exactly the structure the
/// warm-start pool exploits (and what NSGA-II offspring look like).
std::vector<std::vector<rmp::num::Vec>> make_stream(std::size_t generations,
                                                    std::size_t batch) {
  rmp::num::Rng rng(20260730);
  std::vector<std::vector<rmp::num::Vec>> stream(generations);
  // An optimization-run trajectory: the population's center of mass tracks
  // from the natural partition toward an up-regulated Calvin-cycle mix (the
  // front region NSGA-II selection drives it to), with SBX/mutation-sized
  // scatter around it.  Successive generations stay correlated — the
  // structure the warm-start pool exploits — and a realistic minority of
  // candidates sits in the model's Hopf (oscillatory) shell.
  rmp::num::Vec target(kNumEnzymes, 1.0);
  for (std::size_t e = 0; e < kNumEnzymes; ++e) {
    target[e] = 1.2 + 0.08 * static_cast<double>(e % 5);
  }
  target[rmp::kinetics::kRubisco] = 2.6;
  target[rmp::kinetics::kSbpase] = 2.8;
  target[rmp::kinetics::kPrk] = 2.0;
  target[rmp::kinetics::kFbpase] = 2.2;
  for (std::size_t g = 0; g < generations; ++g) {
    const double a = generations > 1
                         ? static_cast<double>(g) / static_cast<double>(generations - 1)
                         : 1.0;
    auto& gen = stream[g];
    gen.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      rmp::num::Vec mult(kNumEnzymes);
      for (std::size_t e = 0; e < kNumEnzymes; ++e) {
        const double center = 1.0 + a * (target[e] - 1.0);
        mult[e] = std::clamp(center * (1.0 + rng.normal(0.0, 0.05)), 0.02, 5.0);
      }
      gen.push_back(std::move(mult));
    }
  }
  return stream;
}

struct EngineResult {
  double wall_seconds = 0.0;
  double solves_per_sec = 0.0;
  std::size_t solves = 0;
  double mean_newton_iterations = 0.0;
  std::size_t rhs_evaluations = 0;          ///< summed over the stream
  std::size_t jacobian_factorizations = 0;  ///< summed over the stream
  double rhs_per_solve = 0.0;
  double factorizations_per_solve = 0.0;
  double fallback_rate = 0.0;
  double warm_start_rate = 0.0;
  double converged_rate = 0.0;
  double shooting_rate = 0.0;  ///< used_shooting / solves (v2 cycle path)
  /// Per-candidate wall seconds and class, index-aligned with the flattened
  /// stream — lets the harness split out the cycle path.
  std::vector<double> per_solve_seconds;
  std::vector<bool> oscillatory;
};

EngineResult run_engine(const C3Config& cfg,
                        const std::vector<std::vector<rmp::num::Vec>>& stream,
                        std::size_t threads) {
  using clock = std::chrono::steady_clock;
  const C3Model model(cfg);
  EngineResult r;
  std::size_t iterations = 0;
  std::size_t fallbacks = 0, warm = 0, converged = 0, shooting = 0;

  const auto t0 = clock::now();
  for (const auto& generation : stream) {
    std::vector<SteadyState> results(generation.size());
    std::vector<double> seconds(generation.size());
    // Same cadence as the engines: a deterministic parallel batch, then the
    // serial epoch commit that publishes this generation's roots to the next.
    rmp::core::parallel_for(generation.size(), threads, [&](std::size_t i) {
      const auto s0 = clock::now();
      results[i] = model.steady_state(generation[i]);
      seconds[i] = std::chrono::duration<double>(clock::now() - s0).count();
    });
    model.commit_warm_starts();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SteadyState& ss = results[i];
      ++r.solves;
      iterations += ss.newton_iterations;
      r.rhs_evaluations += ss.rhs_evaluations;
      r.jacobian_factorizations += ss.jacobian_factorizations;
      fallbacks += ss.used_integration_fallback;
      warm += ss.warm_started;
      converged += ss.converged;
      shooting += ss.used_shooting;
      r.per_solve_seconds.push_back(seconds[i]);
      r.oscillatory.push_back(ss.oscillatory);
    }
  }
  const std::chrono::duration<double> dt = clock::now() - t0;
  r.wall_seconds = dt.count();
  const auto n = static_cast<double>(r.solves);
  r.solves_per_sec = n / dt.count();
  r.mean_newton_iterations = static_cast<double>(iterations) / n;
  r.rhs_per_solve = static_cast<double>(r.rhs_evaluations) / n;
  r.factorizations_per_solve = static_cast<double>(r.jacobian_factorizations) / n;
  r.fallback_rate = static_cast<double>(fallbacks) / n;
  r.warm_start_rate = static_cast<double>(warm) / n;
  r.converged_rate = static_cast<double>(converged) / n;
  r.shooting_rate = static_cast<double>(shooting) / n;
  return r;
}

/// One PMO2 run of the fixed determinism spec on a fresh model; returns the
/// archive fingerprint.
std::uint64_t pmo2_fingerprint(const C3Config& cfg, std::size_t island_threads,
                               std::size_t generations, std::size_t population) {
  const auto model = std::make_shared<const C3Model>(cfg);
  const rmp::kinetics::PhotosynthesisProblem problem(model);
  rmp::moo::Pmo2Options opts;
  opts.islands = 2;
  opts.migration_interval = 2;
  opts.archive_capacity = 64;
  opts.seed = 7;
  opts.island_threads = island_threads;
  rmp::moo::Pmo2 pmo2(problem, opts,
                      rmp::moo::Pmo2::default_nsga2_factory(population));
  pmo2.run(generations);
  return pmo2.archive().fingerprint();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmp;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kinetics.json";
  const std::size_t generations = env_or("RMP_KINETICS_GENERATIONS", 30);
  const std::size_t batch = env_or("RMP_KINETICS_BATCH", 64);
  // Engine comparison runs serially by default (RMP_KINETICS_THREADS=1):
  // per-solve wall times then measure the engines, not pool-mutex contention
  // or scheduling noise; parallel scaling has its own bench (pmo2_scaling).
  // The batch still executes under the deterministic-region cadence
  // (parallel_for + epoch commits), exactly like the engines drive it.
  const std::size_t threads = env_or("RMP_KINETICS_THREADS", 1);
  const std::size_t max_rhs = env_or("RMP_KINETICS_MAX_RHS", 0);
  const std::size_t max_lu = env_or("RMP_KINETICS_MAX_LU", 0);
  const double min_v2_mixed =
      rmp::bench::env_or_double("RMP_KINETICS_MIN_V2_MIXED", 0.0);
  const std::size_t pmo2_gens = env_or("RMP_KINETICS_PMO2_GENERATIONS", 6);
  const std::size_t pmo2_pop = env_or("RMP_KINETICS_PMO2_POPULATION", 8);

  std::printf("== Kinetic steady-state engine: %zu generations x %zu candidates ==\n",
              generations, batch);
  const auto stream = make_stream(generations, batch);

  const EngineResult v1 = run_engine(v1_config(), stream, threads);
  std::printf(
      "engine v1: %.3f s (%.0f solves/s), %.1f iters, %.1f rhs, %.2f lu "
      "per solve, fallback %.1f%%, warm %.1f%%\n",
      v1.wall_seconds, v1.solves_per_sec, v1.mean_newton_iterations,
      v1.rhs_per_solve, v1.factorizations_per_solve, 100.0 * v1.fallback_rate,
      100.0 * v1.warm_start_rate);
  const EngineResult optimized = run_engine(C3Config{}, stream, threads);
  std::printf(
      "engine v2: %.3f s (%.0f solves/s), %.1f iters, %.1f rhs, %.2f lu "
      "per solve, fallback %.1f%%, warm %.1f%%, shooting %.1f%%\n",
      optimized.wall_seconds, optimized.solves_per_sec,
      optimized.mean_newton_iterations, optimized.rhs_per_solve,
      optimized.factorizations_per_solve, 100.0 * optimized.fallback_rate,
      100.0 * optimized.warm_start_rate, 100.0 * optimized.shooting_rate);
  std::printf("engine v2 work over the stream: %zu rhs, %zu lu\n",
              optimized.rhs_evaluations, optimized.jacobian_factorizations);

  // The cycle path: candidates both engines resolve as limit cycles (the
  // model's genuine photosynthetic-oscillation regime) — where v1 and v2
  // differ: v1 integrates a 400-unit window, v2 shoots the cycle.
  std::size_t n_cycle = 0;
  double v1_cycle_s = 0.0, v2_cycle_s = 0.0;
  for (std::size_t i = 0; i < optimized.oscillatory.size(); ++i) {
    if (v1.oscillatory[i] && optimized.oscillatory[i]) {
      ++n_cycle;
      v1_cycle_s += v1.per_solve_seconds[i];
      v2_cycle_s += optimized.per_solve_seconds[i];
    }
  }
  // The v2 wall gate: mixed-workload wall against the PR-5 engine (identical
  // Newton path, so the whole difference is the oscillatory tail), plus the
  // cycle-path split for the record.
  const double speedup_v2_mixed =
      optimized.wall_seconds > 0.0 ? v1.wall_seconds / optimized.wall_seconds
                                   : 0.0;
  const double speedup_v2_cycle =
      v2_cycle_s > 0.0 ? v1_cycle_s / v2_cycle_s : 0.0;
  std::printf("v2 vs v1 mixed workload: %.2fx  (cycle path %zu cands: %.2fx)\n",
              speedup_v2_mixed, n_cycle, speedup_v2_cycle);

  // Determinism cross-check: every solver configuration must produce one
  // archive fingerprint regardless of island_threads.
  const std::size_t widths[] = {1, 2, 8};
  struct DetRow {
    const char* name;
    C3Config cfg;
  };
  C3Config v1_pool_off = v1_config();
  v1_pool_off.warm_pool_capacity = 0;
  C3Config v2_pool_off;  // shooting engine, pool disabled
  v2_pool_off.warm_pool_capacity = 0;
  // v1/v2 x pool off/on: the shooting path and its cycle anchors must keep
  // the archive bit-identical for any thread count, with and without the
  // pool that feeds warm restarts and exact-hit replays.
  const DetRow rows[] = {{"v1_pool_off", v1_pool_off},
                         {"v1_pool_on", v1_config()},
                         {"v2_pool_off", v2_pool_off},
                         {"v2_pool_on", C3Config{}}};
  bool thread_invariant = true;
  core::Json determinism = core::Json::object();
  for (const DetRow& row : rows) {
    core::Json fps = core::Json::array();
    std::uint64_t first = 0;
    bool row_ok = true;
    for (std::size_t w = 0; w < 3; ++w) {
      const std::uint64_t fp =
          pmo2_fingerprint(row.cfg, widths[w], pmo2_gens, pmo2_pop);
      fps.push_back(core::Json::hex(fp));
      if (w == 0) {
        first = fp;
      } else if (fp != first) {
        row_ok = false;
      }
    }
    std::printf("determinism %-18s: %s\n", row.name,
                row_ok ? "bit-identical across island_threads {1,2,8}"
                       : "DIVERGED");
    determinism.set(row.name, std::move(fps));
    thread_invariant = thread_invariant && row_ok;
  }

  const auto engine_json = [](const EngineResult& r) {
    return core::Json::object()
        .set("wall_seconds", r.wall_seconds)
        .set("solves_per_sec", r.solves_per_sec)
        .set("solves", r.solves)
        .set("mean_newton_iterations", r.mean_newton_iterations)
        .set("rhs_evaluations", r.rhs_evaluations)
        .set("jacobian_factorizations", r.jacobian_factorizations)
        .set("rhs_per_solve", r.rhs_per_solve)
        .set("factorizations_per_solve", r.factorizations_per_solve)
        .set("fallback_rate", r.fallback_rate)
        .set("warm_start_rate", r.warm_start_rate)
        .set("converged_rate", r.converged_rate)
        .set("shooting_rate", r.shooting_rate);
  };
  const core::Json doc =
      core::Json::object()
          .set("benchmark", "kinetics_scaling")
          .set("schema_version", 3)
          .set("config", core::Json::object()
                             .set("generations", generations)
                             .set("batch", batch)
                             .set("threads", threads)
                             .set("seed", std::size_t{20260730})
                             .set("pmo2_generations", pmo2_gens)
                             .set("pmo2_population", pmo2_pop))
          .set("engine_v1", engine_json(v1))
          .set("optimized", engine_json(optimized))
          .set("cycle_path", core::Json::object()
                                 .set("candidates", n_cycle)
                                 .set("v1_seconds", v1_cycle_s)
                                 .set("v2_seconds", v2_cycle_s)
                                 .set("v2_shooting_rate",
                                      optimized.shooting_rate))
          .set("speedup_v2_mixed", speedup_v2_mixed)
          .set("speedup_v2_cycle", speedup_v2_cycle)
          .set("determinism_island_threads",
               core::Json::array().push_back(std::size_t{1}).push_back(
                   std::size_t{2}).push_back(std::size_t{8}))
          .set("determinism", std::move(determinism))
          .set("thread_invariant", thread_invariant);
  if (!core::write_json_file(out_path, doc)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!thread_invariant) {
    std::fprintf(stderr,
                 "error: archive fingerprint depends on island_threads — the "
                 "steady-state engine broke the determinism contract\n");
    return 1;
  }
  if (max_rhs > 0 && optimized.rhs_evaluations > max_rhs) {
    std::fprintf(stderr,
                 "error: engine v2 spent %zu RHS evaluations, above the %zu "
                 "ceiling\n",
                 optimized.rhs_evaluations, max_rhs);
    return 1;
  }
  if (max_lu > 0 && optimized.jacobian_factorizations > max_lu) {
    std::fprintf(stderr,
                 "error: engine v2 spent %zu Jacobian factorizations, above the "
                 "%zu ceiling\n",
                 optimized.jacobian_factorizations, max_lu);
    return 1;
  }
  if (min_v2_mixed > 0.0 && speedup_v2_mixed < min_v2_mixed) {
    std::fprintf(stderr,
                 "error: v2 mixed-workload speedup %.2fx below the %.2fx bar\n",
                 speedup_v2_mixed, min_v2_mixed);
    return 1;
  }
  return 0;
}
