// SPEA2 (Zitzler, Laumanns & Thiele, 2001) — strength-Pareto evolutionary
// algorithm with an internal archive, fitness = raw dominated-strength +
// k-nearest-neighbor density, and truncation that preserves boundary
// solutions.  A third engine for heterogeneous PMO2 archipelagos.
#pragma once

#include <span>

#include "moo/algorithm.hpp"
#include "moo/operators.hpp"
#include "numeric/rng.hpp"

namespace rmp::moo {

struct Spea2Options {
  std::size_t population_size = 100;
  std::size_t archive_size = 100;
  VariationParams variation;
  std::uint64_t seed = 1;
  /// Threads used to evaluate each generation's offspring batch
  /// (0 = hardware concurrency, 1 = serial).  Results are identical for any
  /// value; see core/parallel.hpp.  Unused when the engine runs as a Pmo2
  /// island: the archipelago scores every island's offspring in one batch
  /// at Pmo2Options::island_threads.
  std::size_t eval_threads = 0;
};

class Spea2 final : public Optimizer {
 public:
  Spea2(const Problem& problem, Spea2Options options);

  void initialize() override;
  void step() override;
  std::span<Individual> begin_initialize() override;
  void end_initialize(std::size_t evaluated) override;
  std::span<Individual> begin_step() override;
  void end_step(std::size_t evaluated) override;
  /// The environmental archive (SPEA2's result set).
  [[nodiscard]] std::span<const Individual> population() const override {
    return archive_;
  }
  void inject(std::span<const Individual> immigrants) override;
  [[nodiscard]] std::size_t evaluations() const override { return evaluations_; }
  [[nodiscard]] std::string name() const override { return "SPEA2"; }

  /// Serializes rng + working population + environmental archive +
  /// evaluations (the archive carries the rank/crowding scratch the mating
  /// tournaments read between steps).
  void save_state(core::Json& out) const override;
  void load_state(const core::Json& doc) override;

 private:
  /// SPEA2 fitness over pop+archive; lower is better; < 1 means non-dominated.
  [[nodiscard]] std::vector<double> fitness(std::span<const Individual> all) const;
  void environmental_selection(std::vector<Individual>& all);

  const Problem& problem_;
  Spea2Options opts_;
  num::Rng rng_;
  std::vector<Individual> pop_;
  std::vector<Individual> archive_;
  /// begin_*'s output: the next working population, unevaluated.
  std::vector<Individual> staged_;
  std::size_t evaluations_ = 0;
};

}  // namespace rmp::moo
