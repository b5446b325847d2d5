// The Geobacter design problem of Section 3.2 as a moo::Problem:
//   variables   — all 608 reaction fluxes (bounds = the FBA bounds, which the
//                 paper says "define the search space boundaries");
//   objective 0 — maximize Electron Production (negated);
//   objective 1 — maximize Biomass Production (negated);
//   violation   — the steady-state residual ||S v||_1, so the constrained-
//                 domination ordering "rewards less violating solutions".
// Optional null-space repair projects candidates onto {v : S v = 0} (then
// clamps to bounds), the representation ablation of DESIGN.md.
#pragma once

#include <memory>

#include "fba/geobacter.hpp"
#include "fba/network.hpp"
#include "moo/problem.hpp"
#include "numeric/matrix.hpp"

namespace rmp::fba {

/// Project->clamp iterations of GeobacterProblem::repair.
inline constexpr std::size_t kRepairRounds = 3;

struct GeobacterProblemOptions {
  bool nullspace_repair = true;
  /// Seed the initial population with FBA vertices (max-EP, max-BP, blends).
  bool lp_seeding = true;
};

class GeobacterProblem final : public moo::Problem {
 public:
  explicit GeobacterProblem(std::shared_ptr<const MetabolicNetwork> network,
                            GeobacterProblemOptions options = {});

  [[nodiscard]] std::size_t num_variables() const override { return lower_.size(); }
  [[nodiscard]] std::size_t num_objectives() const override { return 2; }
  [[nodiscard]] std::span<const double> lower_bounds() const override { return lower_; }
  [[nodiscard]] std::span<const double> upper_bounds() const override { return upper_; }
  [[nodiscard]] std::string name() const override { return "geobacter-608"; }

  double evaluate(std::span<const double> x, std::span<double> f) const override;

  void repair(num::Vec& x) const override;

  std::size_t suggest_initial(std::span<num::Vec> out, num::Rng& rng) const override;

  [[nodiscard]] const MetabolicNetwork& network() const { return *network_; }
  [[nodiscard]] std::size_t electron_reaction() const { return ep_index_; }
  [[nodiscard]] std::size_t biomass_reaction() const { return bp_index_; }

  /// (EP, BP) in paper units from a stored objective vector.
  [[nodiscard]] static std::pair<double, double> to_paper_units(
      std::span<const double> f) {
    return {-f[0], -f[1]};
  }

 private:
  std::shared_ptr<const MetabolicNetwork> network_;
  GeobacterProblemOptions opts_;
  num::Vec lower_, upper_;
  std::size_t ep_index_ = 0, bp_index_ = 0;
  num::SparseMatrix s_;
  num::ProfileMatrix basis_;      ///< orthonormal null-space basis Q
  num::ProfileMatrix basis_t_;    ///< its transpose, for Q^T x as row dots
  num::Vec reference_flux_;       ///< a feasible steady-state point v0
  std::vector<num::Vec> seeds_;   ///< LP-derived starting points
};

}  // namespace rmp::fba
