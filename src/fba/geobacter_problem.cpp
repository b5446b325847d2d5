#include "fba/geobacter_problem.hpp"

#include <algorithm>
#include <cassert>

#include "fba/fba.hpp"
#include "numeric/simplex.hpp"

namespace rmp::fba {

/// ||S v||_1 at or below this counts as steady state (feasible).
constexpr double kViolationTolerance = 1e-3;

GeobacterProblem::GeobacterProblem(std::shared_ptr<const MetabolicNetwork> network,
                                   GeobacterProblemOptions options)
    : network_(std::move(network)), opts_(options) {
  lower_ = network_->lower_bounds();
  upper_ = network_->upper_bounds();
  const auto ep = network_->reaction_index(geobacter_ids::kElectronProduction);
  const auto bp = network_->reaction_index(geobacter_ids::kBiomassExport);
  assert(ep && bp);
  ep_index_ = *ep;
  bp_index_ = *bp;
  s_ = network_->stoichiometric_matrix();

  if (opts_.nullspace_repair) {
    const num::Matrix dense = s_.to_dense();
    const num::Matrix raw = num::nullspace_basis(dense);
    const num::Matrix q = num::orthonormalize_columns(raw);
    basis_t_ = num::ProfileMatrix(q.transposed());
    basis_ = num::ProfileMatrix(q);
  }

  // Repair takes its reference flux from the first seed, so the seed LPs run
  // for either option; only lp_seeding hands them out (suggest_initial).
  if (opts_.lp_seeding || opts_.nullspace_repair) {
    const std::size_t n = network_->num_reactions();
    // The two FBA vertices: max electron production and max biomass.
    for (const std::size_t target : {ep_index_, bp_index_}) {
      num::Vec obj(n, 0.0);
      obj[target] = 1.0;
      const FbaResult r = run_fba(*network_, obj);
      if (r.optimal()) seeds_.push_back(r.fluxes);
    }
    // Weighted blends of a linear bi-objective LP only ever return vertices;
    // the face between them is reached by epsilon-constraint: pin electron
    // production at intermediate fractions of its maximum and maximize
    // biomass.  These seeds populate the trade-off segment of Figure 4.
    if (seeds_.size() == 2) {
      const double ep_max = seeds_[0][ep_index_];
      num::LpProblem lp = num::LpProblem::from_sparse(
          s_, num::Vec(s_.rows(), 0.0), num::Vec(n, 0.0),
          network_->lower_bounds(), network_->upper_bounds());
      lp.objective[bp_index_] = 1.0;
      for (const double frac : {0.85, 0.9, 0.94, 0.97, 0.99}) {
        lp.lower[ep_index_] = frac * ep_max;
        lp.upper[ep_index_] = frac * ep_max;
        const num::LpSolution sol = num::solve_lp(lp);
        if (sol.status == num::LpStatus::kOptimal) seeds_.push_back(sol.x);
      }
    }
    if (!seeds_.empty()) reference_flux_ = seeds_.front();
  }
  if (reference_flux_.empty()) {
    reference_flux_.assign(network_->num_reactions(), 0.0);
  }
}

double GeobacterProblem::evaluate(std::span<const double> x,
                                  std::span<double> f) const {
  f[0] = -x[ep_index_];  // maximize electron production
  f[1] = -x[bp_index_];  // maximize biomass production
  const double violation = s_.residual_norm1(x);
  return violation <= kViolationTolerance ? 0.0 : violation;
}

void GeobacterProblem::repair(num::Vec& x) const {
  if (!opts_.nullspace_repair || basis_.cols() == 0) return;

  // Iterated projection: v <- v0 + Q Q^T (v - v0) keeps S v = 0 exactly;
  // clamping to the box afterwards re-introduces a small residual, so a few
  // rounds are performed.  Both products are row dots over each row's
  // nonzero range, bit-identical to the dense products (finite x).
  num::Vec delta, coords, projected;
  for (std::size_t round = 0; round < kRepairRounds; ++round) {
    delta = x;
    num::sub_inplace(delta, reference_flux_);
    basis_t_.multiply(delta, coords);    // Q^T (v - v0)
    basis_.multiply(coords, projected);  // Q Q^T (v - v0)
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = reference_flux_[i] + projected[i];
    }
    num::clamp_inplace(x, lower_, upper_);
  }
}

std::size_t GeobacterProblem::suggest_initial(std::span<num::Vec> out,
                                              num::Rng& rng) const {
  if (!opts_.lp_seeding || out.empty() || seeds_.empty()) return 0;
  std::size_t written = 0;
  for (const num::Vec& s : seeds_) {
    if (written == out.size()) break;
    out[written++] = s;
  }
  // Fill the remainder with perturbed copies of random seeds.
  while (written < out.size()) {
    num::Vec v = seeds_[rng.uniform_index(seeds_.size())];
    for (double& flux : v) flux += rng.normal(0.0, 0.5);
    num::clamp_inplace(v, lower_, upper_);
    out[written++] = std::move(v);
  }
  return written;
}

}  // namespace rmp::fba
