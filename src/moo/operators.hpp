// Real-coded variation operators (Deb & Agrawal): simulated binary crossover
// (SBX), polynomial mutation, and binary tournament selection under the
// crowded-comparison / constrained-domination order.
#pragma once

#include <span>

#include "moo/individual.hpp"
#include "numeric/rng.hpp"
#include "numeric/vec.hpp"

namespace rmp::moo {

/// The engines' SBX crossover probability per mating pair, and their
/// polynomial-mutation probability per variable (< 0 means 1/num_variables).
inline constexpr double kCrossoverProbability = 0.9;
inline constexpr double kMutationProbability = -1.0;

struct VariationParams {
  double crossover_eta = 15.0;   ///< SBX distribution index
  double mutation_eta = 20.0;    ///< polynomial mutation distribution index
};

/// SBX on parents (p1, p2) producing children (c1, c2), bounded per variable.
void sbx_crossover(std::span<const double> p1, std::span<const double> p2,
                   std::span<const double> lower, std::span<const double> upper,
                   double probability, double eta, num::Rng& rng, num::Vec& c1,
                   num::Vec& c2);

/// Polynomial mutation in place.
void polynomial_mutation(num::Vec& x, std::span<const double> lower,
                         std::span<const double> upper, double probability, double eta,
                         num::Rng& rng);

/// Binary tournament over `pop` using crowded-comparison with constrained
/// domination as primary criterion; returns the winner's index.
[[nodiscard]] std::size_t binary_tournament(std::span<const Individual> pop,
                                            num::Rng& rng);

}  // namespace rmp::moo
