// The parallel-scaling bench: PMO2 island scaling.
//
// Runs the same seeded archipelago at island_threads in {1, 2, 8}, measures
// wall time, verifies the bit-identical-archive contract via the archive
// fingerprint, and emits BENCH_pmo2.json (schema in docs/BENCHMARKS.md):
// wall seconds per width, speedup vs the 1-thread run, and the hypervolume
// reached at the evaluation budget.  Exits non-zero when any width's archive
// fingerprint deviates — the determinism contract is part of the benchmark.
//
// The objective function is ZDT1 plus a deterministic spin loop
// (RMP_EVAL_SPIN iterations) standing in for a kinetic-model solve: bare
// ZDT1 is far too cheap for a pooled evaluation batch to amortize, real
// workloads (C3 steady states, FBA solves) are milliseconds per candidate.
//
// Environment knobs: RMP_GENERATIONS (60), RMP_POPULATION (32), RMP_ISLANDS
// (2), RMP_EVAL_SPIN (400), RMP_BENCH_REPEATS (3; wall time is best-of).
// Usage: pmo2_scaling [output.json]   (default BENCH_pmo2.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "moo/pmo2.hpp"
#include "moo/testproblems.hpp"
#include "pareto/front.hpp"
#include "pareto/hypervolume.hpp"

#include "bench_util.hpp"

using rmp::bench::env_or;

namespace {

/// ZDT1 with a deterministic per-evaluation spin emulating an expensive
/// kinetic/FBA objective.  The spin result feeds an opaque register so the
/// optimizer cannot delete the loop, and the objectives are untouched — the
/// fronts stay comparable with every other ZDT1 run in the repo.
class SpinZdt1 final : public rmp::moo::Problem {
 public:
  SpinZdt1(std::size_t n, std::size_t spin) : inner_(n), spin_(spin) {}

  [[nodiscard]] std::size_t num_variables() const override {
    return inner_.num_variables();
  }
  [[nodiscard]] std::size_t num_objectives() const override {
    return inner_.num_objectives();
  }
  [[nodiscard]] std::span<const double> lower_bounds() const override {
    return inner_.lower_bounds();
  }
  [[nodiscard]] std::span<const double> upper_bounds() const override {
    return inner_.upper_bounds();
  }
  [[nodiscard]] std::string name() const override { return "spin-zdt1"; }

  double evaluate(std::span<const double> x,
                  std::span<double> objectives) const override {
    double s = x.empty() ? 0.0 : x[0];
    for (std::size_t i = 0; i < spin_; ++i) s = std::sin(s) + std::cos(s * 0.5);
    asm volatile("" : : "r"(&s) : "memory");
    return inner_.evaluate(x, objectives);
  }

 private:
  rmp::moo::Zdt1 inner_;
  std::size_t spin_;
};

struct RunResult {
  std::size_t island_threads = 0;
  double best_wall_seconds = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t archive_size = 0;
  std::size_t evaluations = 0;
  double hypervolume = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rmp;
  using clock = std::chrono::steady_clock;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pmo2.json";
  const std::size_t generations = env_or("RMP_GENERATIONS", 60);
  const std::size_t population = env_or("RMP_POPULATION", 32);
  const std::size_t islands = env_or("RMP_ISLANDS", 2);
  const std::size_t spin = env_or("RMP_EVAL_SPIN", 400);
  const std::size_t repeats = std::max<std::size_t>(1, env_or("RMP_BENCH_REPEATS", 3));
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

  const SpinZdt1 problem(12, spin);
  const std::vector<std::size_t> widths = {1, 2, 8};

  std::printf("== PMO2 island scaling: %zu islands x %zu pop, %zu generations, "
              "spin %zu, best of %zu, %u hardware threads ==\n",
              islands, population, generations, spin, repeats, hardware);

  std::vector<RunResult> results;
  for (const std::size_t width : widths) {
    RunResult r;
    r.island_threads = width;
    r.best_wall_seconds = std::numeric_limits<double>::infinity();
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      moo::Pmo2Options o;
      o.islands = islands;
      o.migration_interval = std::max<std::size_t>(1, generations / 4);
      o.migration_probability = 0.5;
      o.seed = 41;
      o.island_threads = width;
      moo::Pmo2 pmo2(problem, o, moo::Pmo2::default_nsga2_factory(population));
      const auto t0 = clock::now();
      pmo2.run(generations);
      const std::chrono::duration<double> dt = clock::now() - t0;
      r.best_wall_seconds = std::min(r.best_wall_seconds, dt.count());
      if (rep + 1 == repeats) {
        // Repeat-invariant outputs (the run is deterministic): collect once.
        r.fingerprint = pmo2.archive().fingerprint();
        r.archive_size = pmo2.archive().size();
        r.evaluations = pmo2.evaluations();
        const auto front =
            pareto::Front::from_population(pmo2.archive().solutions());
        // Fixed ZDT reference point, comparable across PRs (see ablation_islands).
        r.hypervolume = pareto::hypervolume(front, num::Vec{1.1, 10.0});
      }
    }
    std::printf("island_threads=%zu: %.3f s, archive %zu, HV %.4f, fp %016llx\n",
                r.island_threads, r.best_wall_seconds, r.archive_size,
                r.hypervolume, static_cast<unsigned long long>(r.fingerprint));
    results.push_back(r);
  }

  const bool bit_identical = std::all_of(
      results.begin(), results.end(),
      [&](const RunResult& r) { return r.fingerprint == results[0].fingerprint; });
  const double serial_wall = results[0].best_wall_seconds;

  core::Json runs = core::Json::array();
  for (const RunResult& r : results) {
    runs.push_back(core::Json::object()
                       .set("island_threads", r.island_threads)
                       .set("wall_seconds", r.best_wall_seconds)
                       .set("speedup_vs_serial", serial_wall / r.best_wall_seconds)
                       .set("archive_size", r.archive_size)
                       .set("archive_fingerprint", core::Json::hex(r.fingerprint))
                       .set("hypervolume_at_budget", r.hypervolume)
                       .set("evaluations", r.evaluations));
  }
  core::Json doc = core::Json::object()
                        .set("benchmark", "pmo2_scaling")
                        .set("schema_version", 1)
                        .set("hardware_threads", static_cast<std::size_t>(hardware))
                        .set("config", core::Json::object()
                                           .set("problem", problem.name())
                                           .set("islands", islands)
                                           .set("population_per_island", population)
                                           .set("generations", generations)
                                           .set("eval_spin", spin)
                                           .set("repeats", repeats)
                                           .set("seed", std::size_t{41}))
                        .set("bit_identical_archives", bit_identical)
                        .set("runs", std::move(runs));
  if (!core::write_json_file(out_path, doc)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!bit_identical) {
    std::fprintf(stderr,
                 "error: archive fingerprints diverged across island_threads — "
                 "the determinism contract is broken\n");
    return 1;
  }
  return 0;
}
