// MOEA/D (Zhang & Li, IEEE TEC 2007) — decomposition-based baseline used by
// the paper's Table 1 comparison.  Tchebycheff or weighted-sum scalarization
// over a uniform weight lattice, neighborhood mating and bounded replacement.
#pragma once

#include <span>

#include "moo/algorithm.hpp"
#include "moo/operators.hpp"
#include "numeric/rng.hpp"

namespace rmp::moo {

enum class Scalarization { kTchebycheff, kWeightedSum };

struct MoeadOptions {
  std::size_t population_size = 100;  ///< number of subproblems / weights
  /// Clamped to population_size by the constructor; the spec layer rejects
  /// a larger one.
  std::size_t neighborhood_size = 20;
  Scalarization scalarization = Scalarization::kTchebycheff;
  VariationParams variation;
  std::uint64_t seed = 1;
  /// Threads used to evaluate the initial population batch (0 = hardware
  /// concurrency, 1 = serial).  step() stays sequential by construction:
  /// each child's bounded replacement feeds the next child's mating pool.
  /// As a Pmo2 island the engine keeps the default three-phase hooks and
  /// runs whole in the epoch's commit phase; under island_threads > 1 its
  /// initial batch runs inline there.
  std::size_t eval_threads = 0;
};

class Moead final : public Optimizer {
 public:
  Moead(const Problem& problem, MoeadOptions options);

  void initialize() override;
  void step() override;
  [[nodiscard]] std::span<const Individual> population() const override {
    return pop_;
  }
  void inject(std::span<const Individual> immigrants) override;
  [[nodiscard]] std::size_t evaluations() const override { return evaluations_; }
  [[nodiscard]] std::string name() const override { return "MOEA/D"; }

  /// Serializes rng + population + weight lattice + ideal point +
  /// evaluations.  The weights are state, not configuration: build_weights()
  /// consumes RNG draws when the lattice underfills (m >= 3), so re-running
  /// it on load would double-consume the restored stream.  The neighborhood
  /// lists are NOT serialized — build_neighborhoods() is a pure function of
  /// the weights and is re-derived after they load.
  void save_state(core::Json& out) const override;
  void load_state(const core::Json& doc) override;

  /// Scalarized cost of objective vector f for subproblem i (exposed for
  /// tests).
  [[nodiscard]] double scalar_cost(std::span<const double> f, double violation,
                                   std::size_t subproblem) const;

 private:
  void evaluate(Individual& ind);
  void build_weights();
  void build_neighborhoods();
  void update_ideal(std::span<const double> f);

  const Problem& problem_;
  MoeadOptions opts_;
  num::Rng rng_;
  std::vector<Individual> pop_;
  std::vector<num::Vec> weights_;
  std::vector<std::vector<std::size_t>> neighbors_;
  num::Vec ideal_;
  std::size_t evaluations_ = 0;
};

}  // namespace rmp::moo
