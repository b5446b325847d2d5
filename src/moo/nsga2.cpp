#include "moo/nsga2.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "moo/dominance.hpp"

namespace rmp::moo {

Nsga2::Nsga2(const Problem& problem, Nsga2Options options)
    : problem_(problem), opts_(options), rng_(options.seed) {
  // The mating loop pairs parents, so the population must be even.  Odd
  // sizes used to be bumped up silently, which made every downstream count
  // (evaluations, fronts, budget math) off by one with no trace — reject
  // loudly instead.
  if (opts_.population_size < 4 || opts_.population_size % 2 != 0) {
    throw std::invalid_argument(
        "Nsga2: population_size must be even and >= 4 (pairwise mating), got " +
        std::to_string(opts_.population_size));
  }
  if (!(opts_.seeded_fraction >= 0.0 && opts_.seeded_fraction <= 1.0)) {
    throw std::invalid_argument("Nsga2: seeded_fraction must be in [0, 1], got " +
                                std::to_string(opts_.seeded_fraction));
  }
}

std::span<Individual> Nsga2::begin_initialize() {
  staged_.clear();
  staged_.reserve(opts_.population_size);

  const auto lo = problem_.lower_bounds();
  const auto hi = problem_.upper_bounds();
  const std::size_t n = problem_.num_variables();

  // Problem-suggested seeds (e.g. the natural leaf partition) first.
  const auto max_seeded = static_cast<std::size_t>(
      opts_.seeded_fraction * static_cast<double>(opts_.population_size));
  if (max_seeded > 0) {
    std::vector<num::Vec> seeds(max_seeded);
    const std::size_t got = problem_.suggest_initial(seeds, rng_);
    for (std::size_t s = 0; s < got; ++s) {
      Individual ind;
      ind.x = std::move(seeds[s]);
      ind.x.resize(n);
      num::clamp_inplace(ind.x, lo, hi);
      staged_.push_back(std::move(ind));
    }
  }

  while (staged_.size() < opts_.population_size) {
    Individual ind;
    ind.x.resize(n);
    for (std::size_t i = 0; i < n; ++i) ind.x[i] = rng_.uniform(lo[i], hi[i]);
    problem_.repair(ind.x);
    num::clamp_inplace(ind.x, lo, hi);
    staged_.push_back(std::move(ind));
  }
  return staged_;
}

void Nsga2::end_initialize(std::size_t evaluated) {
  evaluations_ = evaluated;
  problem_.commit_epoch();
  pop_ = std::move(staged_);
  staged_.clear();

  const auto fronts = fast_nondominated_sort(pop_);
  for (const auto& front : fronts) assign_crowding_distance(pop_, front);
}

void Nsga2::initialize() {
  end_initialize(core::evaluate_batch(problem_, begin_initialize(), opts_.eval_threads));
}

std::span<Individual> Nsga2::begin_step() {
  const auto lo = problem_.lower_bounds();
  const auto hi = problem_.upper_bounds();

  staged_.reserve(2 * opts_.population_size);
  staged_ = pop_;

  num::Vec c1, c2;
  for (std::size_t pair = 0; pair < opts_.population_size / 2; ++pair) {
    const Individual& p1 = pop_[binary_tournament(pop_, rng_)];
    const Individual& p2 = pop_[binary_tournament(pop_, rng_)];
    sbx_crossover(p1.x, p2.x, lo, hi, kCrossoverProbability,
                  opts_.variation.crossover_eta, rng_, c1, c2);
    for (num::Vec* child : {&c1, &c2}) {
      polynomial_mutation(*child, lo, hi, kMutationProbability,
                          opts_.variation.mutation_eta, rng_);
      problem_.repair(*child);
      num::clamp_inplace(*child, lo, hi);
      Individual ind;
      ind.x = *child;
      staged_.push_back(std::move(ind));
    }
  }

  // Parents carry their scores; only the freshly generated tail needs work.
  return std::span<Individual>(staged_).subspan(opts_.population_size);
}

void Nsga2::end_step(std::size_t evaluated) {
  evaluations_ += evaluated;
  problem_.commit_epoch();
  select_survivors(staged_);
  staged_.clear();  // frees the non-survivors' vectors between generations
}

void Nsga2::step() {
  end_step(core::evaluate_batch(problem_, begin_step(), opts_.eval_threads));
}

void Nsga2::select_survivors(std::vector<Individual>& merged) {
  const auto fronts = fast_nondominated_sort(merged);
  for (const auto& front : fronts) assign_crowding_distance(merged, front);

  std::vector<Individual> next;
  next.reserve(opts_.population_size);
  for (const auto& front : fronts) {
    if (next.size() + front.size() <= opts_.population_size) {
      for (std::size_t idx : front) next.push_back(std::move(merged[idx]));
    } else {
      std::vector<std::size_t> sorted(front.begin(), front.end());
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return merged[a].crowding > merged[b].crowding;
      });
      for (std::size_t idx : sorted) {
        if (next.size() == opts_.population_size) break;
        next.push_back(std::move(merged[idx]));
      }
    }
    if (next.size() == opts_.population_size) break;
  }
  pop_ = std::move(next);
}

void Nsga2::inject(std::span<const Individual> immigrants) {
  if (immigrants.empty() || pop_.empty()) return;

  // Replace the crowded-comparison-worst residents with the immigrants.
  std::vector<std::size_t> order(pop_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return crowded_less(pop_[a], pop_[b]);  // best first
  });

  const std::size_t count = std::min(immigrants.size(), pop_.size());
  for (std::size_t k = 0; k < count; ++k) {
    pop_[order[order.size() - 1 - k]] = immigrants[k];
  }

  const auto fronts = fast_nondominated_sort(pop_);
  for (const auto& front : fronts) assign_crowding_distance(pop_, front);
}

void Nsga2::save_state(core::Json& out) const {
  out.set("engine", "nsga2");
  out.set("rng", state::rng_to_json(rng_));
  out.set("population", state::population_to_json(pop_));
  out.set("evaluations", static_cast<std::uint64_t>(evaluations_));
}

void Nsga2::load_state(const core::Json& doc) {
  state::require_tag(doc, "engine", "nsga2");
  std::vector<Individual> pop =
      state::population_from_json(state::require(doc, "population"));
  if (pop.size() != opts_.population_size) {
    throw StateError("checkpoint: nsga2 population size " +
                     std::to_string(pop.size()) + " != configured " +
                     std::to_string(opts_.population_size));
  }
  for (const Individual& ind : pop) {
    if (ind.x.size() != problem_.num_variables() ||
        ind.f.size() != problem_.num_objectives()) {
      throw StateError("checkpoint: nsga2 individual dimensions do not match "
                       "the constructed problem");
    }
  }
  state::rng_from_json(state::require(doc, "rng"), rng_);
  evaluations_ = state::require(doc, "evaluations").as_size();
  pop_ = std::move(pop);
}

}  // namespace rmp::moo
