// The seven LPs that fba::GeobacterProblem solves for its seeds, built the
// way its constructor builds them: the two FBA vertices (max electron
// production, max biomass) and the five epsilon-constraint blends that pin
// electron production at 0.85, 0.9, 0.94, 0.97 and 0.99 of its maximum and
// maximize biomass.  Shared by the tests that pin the seeds' pivot counts
// and compare the simplex against its dense oracle.
#pragma once

#include <cstddef>
#include <vector>

#include "fba/geobacter.hpp"
#include "fba/network.hpp"
#include "numeric/simplex.hpp"

namespace rmp::testing {

inline std::vector<num::LpProblem> geobacter_seed_lps(const fba::MetabolicNetwork& net) {
  const std::size_t ep = net.reaction_index(fba::geobacter_ids::kElectronProduction).value();
  const std::size_t bp = net.reaction_index(fba::geobacter_ids::kBiomassExport).value();
  const num::SparseMatrix s = net.stoichiometric_matrix();
  const num::LpProblem base = num::LpProblem::from_sparse(
      s, num::Vec(s.rows(), 0.0), num::Vec(net.num_reactions(), 0.0), net.lower_bounds(),
      net.upper_bounds());

  std::vector<num::LpProblem> lps;
  for (const std::size_t target : {ep, bp}) {
    lps.push_back(base);
    lps.back().objective[target] = 1.0;
  }
  const double ep_max = num::solve_lp(lps.front()).x[ep];
  for (const double frac : {0.85, 0.9, 0.94, 0.97, 0.99}) {
    num::LpProblem lp = base;
    lp.objective[bp] = 1.0;
    lp.lower[ep] = frac * ep_max;
    lp.upper[ep] = frac * ep_max;
    lps.push_back(std::move(lp));
  }
  return lps;
}

}  // namespace rmp::testing
