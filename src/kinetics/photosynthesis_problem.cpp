#include "kinetics/photosynthesis_problem.hpp"

#include <algorithm>
#include <cmath>

#include "moo/state.hpp"

namespace rmp::kinetics {

namespace {
/// Set by evaluate(), read by last_result_memoizable() on the same thread
/// immediately afterwards, so a plain thread-local is race-free even with
/// several problem instances sharing a thread.  Starts true: callers that
/// never evaluated have nothing to flag.
thread_local bool t_last_memoizable = true;
}  // namespace

PhotosynthesisProblem::PhotosynthesisProblem(std::shared_ptr<const C3Model> model,
                                             PhotosynthesisBounds bounds)
    : model_(std::move(model)),
      lower_(kNumEnzymes, bounds.lower),
      upper_(kNumEnzymes, bounds.upper),
      min_uptake_(bounds.min_uptake),
      prescreen_margin_(bounds.prescreen_margin),
      prescreen_radius2_(bounds.prescreen_radius2),
      prescreen_(bounds.prescreen) {}

std::string PhotosynthesisProblem::name() const {
  const C3Config& c = model_->config();
  return "photosynthesis(Ci=" + std::to_string(static_cast<int>(c.ci_ppm)) +
         ",export=" + std::to_string(c.triose_export_vmax) + ")";
}

double PhotosynthesisProblem::evaluate(std::span<const double> x,
                                       std::span<double> f) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  t_last_memoizable = true;
  const double nitrogen = model_->nitrogen(x);

  if (prescreen_.load(std::memory_order_relaxed)) {
    const TangentPrediction pred = model_->predict_uptake(x);
    // Exact pool repeats are never skipped (the stored root IS this
    // candidate's answer and costs almost nothing); extrapolated
    // predictions may skip the solve only when trustworthy (inside the
    // trust radius) AND confidently dead (margin below the alive-leaf
    // threshold).  The skip reports the candidate infeasible, and the
    // archive never admits infeasible candidates, so nothing the full
    // solve would have archived can be lost.
    // Cycle-anchor predictions carry no tangent correction, so their skip
    // radius is tighter; the margin and soundness argument are the same.
    const double radius2 =
        pred.cycle ? PhotosynthesisBounds::cycle_prescreen_radius2 : prescreen_radius2_;
    if (pred.valid && !pred.exact && pred.dist2 <= radius2 &&
        pred.uptake + prescreen_margin_ < min_uptake_) {
      prescreen_skips_.fetch_add(1, std::memory_order_relaxed);
      f[0] = -pred.uptake;
      f[1] = nitrogen;
      return min_uptake_ - pred.uptake;
    }
  }

  const SteadyState ss = model_->steady_state(x);
  // Limit-cycle averages are feasible-looking but not bitwise-repeatable
  // (no pooled root backs them).
  t_last_memoizable = !ss.oscillatory;
  if (ss.pool_exact_hit) {
    pool_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    full_evaluations_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!ss.converged) {
    // No steady state: worthless uptake plus a violation proportional to the
    // residual so the constrained-domination ordering can still rank it.
    f[0] = 0.0;
    f[1] = nitrogen;
    return 1.0 + std::min(ss.residual, 1e6);
  }
  f[0] = -ss.co2_uptake;  // maximize A
  f[1] = nitrogen;        // minimize N
  if (ss.co2_uptake < min_uptake_) {
    // Alive-leaf constraint: collapsed designs are ranked by how far below
    // the survival threshold they sit.
    return min_uptake_ - ss.co2_uptake;
  }
  return 0.0;
}

void PhotosynthesisProblem::commit_epoch() const { model_->commit_warm_starts(); }

bool PhotosynthesisProblem::last_result_memoizable() const {
  return t_last_memoizable;
}

moo::EvalStats PhotosynthesisProblem::eval_stats() const {
  moo::EvalStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.prescreen_skips = prescreen_skips_.load(std::memory_order_relaxed);
  s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  s.full_evaluations = full_evaluations_.load(std::memory_order_relaxed);
  return s;
}

void PhotosynthesisProblem::save_state(core::Json& out) const {
  out.set("kind", "photosynthesis");
  core::Json pool = core::Json::object();
  model_->save_pool_state(pool);
  out.set("pool", std::move(pool));
  out.set("evaluations", static_cast<std::uint64_t>(
                             evaluations_.load(std::memory_order_relaxed)));
  out.set("prescreen_skips",
          static_cast<std::uint64_t>(
              prescreen_skips_.load(std::memory_order_relaxed)));
  out.set("pool_hits", static_cast<std::uint64_t>(
                           pool_hits_.load(std::memory_order_relaxed)));
  out.set("full_evaluations",
          static_cast<std::uint64_t>(
              full_evaluations_.load(std::memory_order_relaxed)));
}

void PhotosynthesisProblem::load_state(const core::Json& doc) const {
  namespace state = moo::state;
  state::require_tag(doc, "kind", "photosynthesis");
  model_->load_pool_state(state::require(doc, "pool"));
  evaluations_.store(state::require(doc, "evaluations").as_size(),
                     std::memory_order_relaxed);
  prescreen_skips_.store(state::require(doc, "prescreen_skips").as_size(),
                         std::memory_order_relaxed);
  pool_hits_.store(state::require(doc, "pool_hits").as_size(),
                   std::memory_order_relaxed);
  full_evaluations_.store(state::require(doc, "full_evaluations").as_size(),
                          std::memory_order_relaxed);
}

std::size_t PhotosynthesisProblem::suggest_initial(std::span<num::Vec> out,
                                                   num::Rng& rng) const {
  if (out.empty()) return 0;
  std::size_t written = 0;

  // The natural leaf itself.
  out[written++] = num::Vec(kNumEnzymes, 1.0);

  // Jittered natural partitions spread the initial population around the
  // operating point without leaving its basin.
  while (written < out.size()) {
    num::Vec v(kNumEnzymes);
    for (double& m : v) m = std::clamp(rng.normal(1.0, 0.35), lower_[0], upper_[0]);
    out[written++] = std::move(v);
  }
  return written;
}

}  // namespace rmp::kinetics
