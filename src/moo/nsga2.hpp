// NSGA-II (Deb, Pratap, Agarwal, Meyarivan, IEEE TEC 2002) with Deb's
// constrained-domination rule — the engine the paper runs on every PMO2
// island.
#pragma once

#include <span>

#include "moo/algorithm.hpp"
#include "moo/operators.hpp"
#include "numeric/rng.hpp"

namespace rmp::moo {

struct Nsga2Options {
  /// Must be even and >= 4 (the mating loop pairs parents); the constructor
  /// throws std::invalid_argument otherwise — no silent rounding.
  std::size_t population_size = 100;
  VariationParams variation;
  std::uint64_t seed = 1;
  /// Fraction of the initial population taken from Problem::suggest_initial.
  double seeded_fraction = 0.1;
  /// Threads used to evaluate each generation's offspring batch
  /// (0 = hardware concurrency, 1 = serial).  Results are identical for any
  /// value; see core/parallel.hpp.  Unused when the engine runs as a Pmo2
  /// island: the archipelago scores every island's offspring in one batch
  /// at Pmo2Options::island_threads.
  std::size_t eval_threads = 0;
};

class Nsga2 final : public Optimizer {
 public:
  Nsga2(const Problem& problem, Nsga2Options options);

  void initialize() override;
  void step() override;
  std::span<Individual> begin_initialize() override;
  void end_initialize(std::size_t evaluated) override;
  std::span<Individual> begin_step() override;
  void end_step(std::size_t evaluated) override;
  [[nodiscard]] std::span<const Individual> population() const override {
    return pop_;
  }
  void inject(std::span<const Individual> immigrants) override;
  [[nodiscard]] std::size_t evaluations() const override { return evaluations_; }
  [[nodiscard]] std::string name() const override { return "NSGA-II"; }

  /// Serializes rng + population + evaluations.  The population keeps its
  /// rank/crowding fields: binary tournaments read them between steps and
  /// crowding was computed over the merged 2N pool of the previous
  /// generation, so it is NOT re-derivable from the survivors.
  void save_state(core::Json& out) const override;
  void load_state(const core::Json& doc) override;

  [[nodiscard]] const Nsga2Options& options() const { return opts_; }

 private:
  /// Environmental selection: sorts `merged` and keeps the best
  /// population_size individuals into pop_.
  void select_survivors(std::vector<Individual>& merged);

  const Problem& problem_;
  Nsga2Options opts_;
  num::Rng rng_;
  std::vector<Individual> pop_;
  /// begin_*'s output: the initial population, or parents + offspring
  /// (the merged 2N pool select_survivors() reads).
  std::vector<Individual> staged_;
  std::size_t evaluations_ = 0;
};

}  // namespace rmp::moo
