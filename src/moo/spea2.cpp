#include "moo/spea2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/parallel.hpp"
#include "moo/dominance.hpp"

namespace rmp::moo {

/// Added to an individual's fitness per unit violation (scaled by 1e-6).
constexpr double kViolationPenalty = 1e6;

Spea2::Spea2(const Problem& problem, Spea2Options options)
    : problem_(problem), opts_(options), rng_(options.seed) {}

std::vector<double> Spea2::fitness(std::span<const Individual> all) const {
  const std::size_t n = all.size();

  // Strength: how many individuals each one dominates.
  std::vector<double> strength(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && constrained_dominates(all[i], all[j])) strength[i] += 1.0;
    }
  }
  // Raw fitness: sum of the strengths of everyone dominating me.
  std::vector<double> raw(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && constrained_dominates(all[j], all[i])) raw[i] += strength[j];
    }
  }
  // Density: inverse distance to the k-th nearest neighbor, k = sqrt(N).  A
  // lone individual (a population of one, before its first archive) has no
  // neighbor and so no density term.
  const auto k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  std::vector<double> fit(n, 0.0);
  std::vector<double> dists;
  for (std::size_t i = 0; i < n; ++i) {
    dists.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) dists.push_back(num::dist(all[i].f, all[j].f));
    }
    double density = 0.0;
    if (!dists.empty()) {
      const std::size_t kth = std::min(k, dists.size() - 1);
      std::nth_element(dists.begin(), dists.begin() + static_cast<long>(kth),
                       dists.end());
      density = 1.0 / (dists[kth] + 2.0);
    }
    fit[i] = raw[i] + density + kViolationPenalty * std::max(all[i].violation, 0.0) * 1e-6;
  }
  return fit;
}

void Spea2::environmental_selection(std::vector<Individual>& all) {
  const std::vector<double> fit = fitness(all);

  // Non-dominated members (fitness < 1) enter the archive first.
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return fit[a] < fit[b]; });

  std::vector<Individual> next;
  next.reserve(opts_.archive_size);
  std::vector<std::size_t> chosen;
  for (std::size_t idx : order) {
    if (fit[idx] < 1.0 && chosen.size() < 4 * opts_.archive_size) chosen.push_back(idx);
  }

  if (chosen.size() <= opts_.archive_size) {
    // All non-dominated members fit; pad with the best dominated ones.
    for (std::size_t idx : chosen) next.push_back(all[idx]);
    for (std::size_t idx : order) {
      if (next.size() == opts_.archive_size) break;
      if (fit[idx] >= 1.0) next.push_back(all[idx]);
    }
  } else {
    // Truncation: repeatedly drop the member with the smallest distance to
    // its nearest neighbor (preserves spread); simple O(m^2) variant.
    std::vector<Individual> cand;
    cand.reserve(chosen.size());
    for (std::size_t idx : chosen) cand.push_back(all[idx]);
    while (cand.size() > opts_.archive_size) {
      std::size_t victim = 0;
      double min_d = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < cand.size(); ++i) {
        double nearest = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < cand.size(); ++j) {
          if (i != j) nearest = std::min(nearest, num::dist(cand[i].f, cand[j].f));
        }
        if (nearest < min_d) {
          min_d = nearest;
          victim = i;
        }
      }
      cand.erase(cand.begin() + static_cast<long>(victim));
    }
    next = std::move(cand);
  }
  archive_ = std::move(next);

  // Ranks/crowding for the tournament (reuse NSGA-II machinery).
  const auto fronts = fast_nondominated_sort(archive_);
  for (const auto& front : fronts) assign_crowding_distance(archive_, front);
}

std::span<Individual> Spea2::begin_initialize() {
  const auto lo = problem_.lower_bounds();
  const auto hi = problem_.upper_bounds();
  const std::size_t n = problem_.num_variables();

  staged_.clear();
  for (std::size_t i = 0; i < opts_.population_size; ++i) {
    Individual ind;
    ind.x.resize(n);
    for (std::size_t v = 0; v < n; ++v) ind.x[v] = rng_.uniform(lo[v], hi[v]);
    problem_.repair(ind.x);
    num::clamp_inplace(ind.x, lo, hi);
    staged_.push_back(std::move(ind));
  }
  return staged_;
}

void Spea2::end_initialize(std::size_t evaluated) {
  evaluations_ = evaluated;
  problem_.commit_epoch();
  pop_ = std::move(staged_);
  staged_.clear();
  archive_.clear();
  std::vector<Individual> all = pop_;
  environmental_selection(all);
}

void Spea2::initialize() {
  end_initialize(core::evaluate_batch(problem_, begin_initialize(), opts_.eval_threads));
}

std::span<Individual> Spea2::begin_step() {
  const auto lo = problem_.lower_bounds();
  const auto hi = problem_.upper_bounds();

  // Mating selection from the archive; offspring form the next population.
  staged_.clear();
  staged_.reserve(opts_.population_size);
  num::Vec c1, c2;
  while (staged_.size() < opts_.population_size) {
    const Individual& p1 = archive_[binary_tournament(archive_, rng_)];
    const Individual& p2 = archive_[binary_tournament(archive_, rng_)];
    sbx_crossover(p1.x, p2.x, lo, hi, kCrossoverProbability,
                  opts_.variation.crossover_eta, rng_, c1, c2);
    for (num::Vec* child : {&c1, &c2}) {
      if (staged_.size() == opts_.population_size) break;
      polynomial_mutation(*child, lo, hi, kMutationProbability,
                          opts_.variation.mutation_eta, rng_);
      problem_.repair(*child);
      num::clamp_inplace(*child, lo, hi);
      Individual ind;
      ind.x = *child;
      staged_.push_back(std::move(ind));
    }
  }
  return staged_;
}

void Spea2::end_step(std::size_t evaluated) {
  evaluations_ += evaluated;
  problem_.commit_epoch();
  pop_ = std::move(staged_);
  staged_.clear();

  std::vector<Individual> all = pop_;
  all.insert(all.end(), archive_.begin(), archive_.end());
  environmental_selection(all);
}

void Spea2::step() {
  end_step(core::evaluate_batch(problem_, begin_step(), opts_.eval_threads));
}

void Spea2::inject(std::span<const Individual> immigrants) {
  if (immigrants.empty()) return;
  std::vector<Individual> all = archive_;
  all.insert(all.end(), immigrants.begin(), immigrants.end());
  environmental_selection(all);
}

void Spea2::save_state(core::Json& out) const {
  out.set("engine", "spea2");
  out.set("rng", state::rng_to_json(rng_));
  out.set("population", state::population_to_json(pop_));
  out.set("archive", state::population_to_json(archive_));
  out.set("evaluations", static_cast<std::uint64_t>(evaluations_));
}

void Spea2::load_state(const core::Json& doc) {
  state::require_tag(doc, "engine", "spea2");
  std::vector<Individual> pop =
      state::population_from_json(state::require(doc, "population"));
  std::vector<Individual> archive =
      state::population_from_json(state::require(doc, "archive"));
  if (pop.size() != opts_.population_size) {
    throw StateError("checkpoint: spea2 population size " +
                     std::to_string(pop.size()) + " != configured " +
                     std::to_string(opts_.population_size));
  }
  for (const std::vector<Individual>* group : {&pop, &archive}) {
    for (const Individual& ind : *group) {
      if (ind.x.size() != problem_.num_variables() ||
          ind.f.size() != problem_.num_objectives()) {
        throw StateError("checkpoint: spea2 individual dimensions do not "
                         "match the constructed problem");
      }
    }
  }
  state::rng_from_json(state::require(doc, "rng"), rng_);
  evaluations_ = state::require(doc, "evaluations").as_size();
  pop_ = std::move(pop);
  archive_ = std::move(archive);
}

}  // namespace rmp::moo
