#include "moo/moead.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/parallel.hpp"

namespace rmp::moo {

/// Cap on the neighbours one child may replace.
constexpr std::size_t kMaxReplacements = 2;
/// Chance a subproblem mates within its neighbourhood, not the population.
constexpr double kNeighborMatingProbability = 0.9;
/// Added to the scalarized cost per unit violation.
constexpr double kViolationPenalty = 1e6;

Moead::Moead(const Problem& problem, MoeadOptions options)
    : problem_(problem), opts_(options), rng_(options.seed) {
  assert(opts_.population_size >= 4);
  opts_.neighborhood_size =
      std::min(opts_.neighborhood_size, opts_.population_size);
}

void Moead::evaluate(Individual& ind) {
  ind.f.assign(problem_.num_objectives(), 0.0);
  ind.violation = problem_.evaluate(ind.x, ind.f);
  ++evaluations_;
}

void Moead::build_weights() {
  const std::size_t m = problem_.num_objectives();
  const std::size_t n = opts_.population_size;
  weights_.clear();
  weights_.reserve(n);

  if (m == 2) {
    for (std::size_t i = 0; i < n; ++i) {
      const double w = n == 1 ? 0.5 : static_cast<double>(i) / static_cast<double>(n - 1);
      weights_.push_back({w, 1.0 - w});
    }
    return;
  }

  // Simplex-lattice design for m >= 3: all compositions of H into m parts,
  // with H chosen as the largest value not exceeding the population size;
  // the remainder is filled with random simplex samples.
  std::size_t h = 1;
  auto lattice_size = [&](std::size_t hh) {
    // C(hh + m - 1, m - 1)
    double v = 1.0;
    for (std::size_t i = 1; i < m; ++i)
      v *= static_cast<double>(hh + i) / static_cast<double>(i);
    return static_cast<std::size_t>(v + 0.5);
  };
  while (lattice_size(h + 1) <= n) ++h;

  std::vector<std::size_t> counts(m, 0);
  // Recursive composition enumeration.
  auto emit = [&](auto&& self, std::size_t pos, std::size_t remaining) -> void {
    if (weights_.size() >= n) return;
    if (pos == m - 1) {
      counts[pos] = remaining;
      num::Vec w(m);
      for (std::size_t j = 0; j < m; ++j)
        w[j] = static_cast<double>(counts[j]) / static_cast<double>(h);
      weights_.push_back(std::move(w));
      return;
    }
    for (std::size_t k = 0; k <= remaining; ++k) {
      counts[pos] = k;
      self(self, pos + 1, remaining - k);
    }
  };
  emit(emit, 0, h);

  while (weights_.size() < n) {
    num::Vec w(m);
    double total = 0.0;
    for (double& v : w) {
      v = -std::log(std::max(rng_.uniform(), 1e-12));
      total += v;
    }
    for (double& v : w) v /= total;
    weights_.push_back(std::move(w));
  }
}

void Moead::build_neighborhoods() {
  const std::size_t n = weights_.size();
  neighbors_.assign(n, {});
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Squared distances: the neighborhood ranking only needs the ordering.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return num::dist2(weights_[i], weights_[a]) < num::dist2(weights_[i], weights_[b]);
    });
    neighbors_[i].assign(order.begin(),
                         order.begin() + static_cast<long>(opts_.neighborhood_size));
  }
}

void Moead::update_ideal(std::span<const double> f) {
  for (std::size_t j = 0; j < f.size(); ++j) ideal_[j] = std::min(ideal_[j], f[j]);
}

double Moead::scalar_cost(std::span<const double> f, double violation,
                          std::size_t subproblem) const {
  const num::Vec& w = weights_[subproblem];
  double g = 0.0;
  if (opts_.scalarization == Scalarization::kTchebycheff) {
    for (std::size_t j = 0; j < f.size(); ++j) {
      const double wj = std::max(w[j], 1e-6);
      g = std::max(g, wj * std::fabs(f[j] - ideal_[j]));
    }
  } else {
    for (std::size_t j = 0; j < f.size(); ++j) g += w[j] * f[j];
  }
  return g + kViolationPenalty * std::max(violation, 0.0);
}

void Moead::initialize() {
  evaluations_ = 0;
  build_weights();
  build_neighborhoods();

  const auto lo = problem_.lower_bounds();
  const auto hi = problem_.upper_bounds();
  const std::size_t n = problem_.num_variables();

  ideal_.assign(problem_.num_objectives(), std::numeric_limits<double>::infinity());
  pop_.clear();
  pop_.reserve(opts_.population_size);
  for (std::size_t i = 0; i < opts_.population_size; ++i) {
    Individual ind;
    ind.x.resize(n);
    for (std::size_t v = 0; v < n; ++v) ind.x[v] = rng_.uniform(lo[v], hi[v]);
    problem_.repair(ind.x);
    num::clamp_inplace(ind.x, lo, hi);
    pop_.push_back(std::move(ind));
  }
  evaluations_ += core::evaluate_batch(problem_, pop_, opts_.eval_threads);
  problem_.commit_epoch();
  for (const Individual& ind : pop_) update_ideal(ind.f);
}

void Moead::step() {
  const auto lo = problem_.lower_bounds();
  const auto hi = problem_.upper_bounds();
  num::Vec c1, c2;

  for (std::size_t i = 0; i < pop_.size(); ++i) {
    // Mating pool: neighborhood with high probability, whole population else.
    const bool local = rng_.bernoulli(kNeighborMatingProbability);
    const auto& pool = neighbors_[i];
    const std::size_t a =
        local ? pool[rng_.uniform_index(pool.size())] : rng_.uniform_index(pop_.size());
    const std::size_t b =
        local ? pool[rng_.uniform_index(pool.size())] : rng_.uniform_index(pop_.size());

    sbx_crossover(pop_[a].x, pop_[b].x, lo, hi, kCrossoverProbability,
                  opts_.variation.crossover_eta, rng_, c1, c2);
    num::Vec& child = rng_.bernoulli(0.5) ? c1 : c2;
    polynomial_mutation(child, lo, hi, kMutationProbability,
                        opts_.variation.mutation_eta, rng_);
    problem_.repair(child);
    num::clamp_inplace(child, lo, hi);

    Individual ind;
    ind.x = child;
    evaluate(ind);
    update_ideal(ind.f);

    // Replace up to kMaxReplacements neighbors the child improves.
    std::vector<std::size_t> candidates =
        local ? pool : rng_.permutation(pop_.size());
    rng_.shuffle(candidates);
    std::size_t replaced = 0;
    for (std::size_t j : candidates) {
      if (replaced >= kMaxReplacements) break;
      const double g_new = scalar_cost(ind.f, ind.violation, j);
      const double g_old = scalar_cost(pop_[j].f, pop_[j].violation, j);
      if (g_new < g_old) {
        pop_[j] = ind;
        ++replaced;
      }
    }
  }
  problem_.commit_epoch();
}

void Moead::inject(std::span<const Individual> immigrants) {
  for (const Individual& imm : immigrants) {
    // Give each immigrant a chance at a random subproblem's slot.
    const std::size_t j = rng_.uniform_index(pop_.size());
    update_ideal(imm.f);
    if (scalar_cost(imm.f, imm.violation, j) <
        scalar_cost(pop_[j].f, pop_[j].violation, j)) {
      pop_[j] = imm;
    }
  }
}

void Moead::save_state(core::Json& out) const {
  out.set("engine", "moead");
  out.set("rng", state::rng_to_json(rng_));
  out.set("population", state::population_to_json(pop_));
  core::Json weights = core::Json::array();
  for (const num::Vec& w : weights_) {
    weights.push_back(state::doubles_to_json(w));
  }
  out.set("weights", std::move(weights));
  out.set("ideal", state::doubles_to_json(ideal_));
  out.set("evaluations", static_cast<std::uint64_t>(evaluations_));
}

void Moead::load_state(const core::Json& doc) {
  state::require_tag(doc, "engine", "moead");
  std::vector<Individual> pop =
      state::population_from_json(state::require(doc, "population"));
  if (pop.size() != opts_.population_size) {
    throw StateError("checkpoint: moead population size " +
                     std::to_string(pop.size()) + " != configured " +
                     std::to_string(opts_.population_size));
  }
  const core::Json& weights_doc = state::require(doc, "weights");
  if (!weights_doc.is_array() || weights_doc.size() != opts_.population_size) {
    throw StateError(
        "checkpoint: moead weight lattice does not match the configured "
        "subproblem count");
  }
  std::vector<num::Vec> weights;
  weights.reserve(weights_doc.size());
  for (const core::Json& w : weights_doc.items()) {
    weights.push_back(state::doubles_from_json(w));
  }
  num::Vec ideal = state::doubles_from_json(state::require(doc, "ideal"));
  for (const Individual& ind : pop) {
    if (ind.x.size() != problem_.num_variables() ||
        ind.f.size() != problem_.num_objectives()) {
      throw StateError("checkpoint: moead individual dimensions do not match "
                       "the constructed problem");
    }
  }
  state::rng_from_json(state::require(doc, "rng"), rng_);
  evaluations_ = state::require(doc, "evaluations").as_size();
  pop_ = std::move(pop);
  weights_ = std::move(weights);
  ideal_ = std::move(ideal);
  // Derived state: the neighborhood lists are a pure function of the weight
  // lattice, so they rebuild instead of round-tripping.
  build_neighborhoods();
}

}  // namespace rmp::moo
