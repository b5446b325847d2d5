#include "traced_problem.hpp"

#include <mutex>

#include "api/registry.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr LayerNames kKinetics{"kinetics.evaluate", "kinetics.repair"};
constexpr LayerNames kFba{"fba.evaluate", "fba.repair"};
constexpr LayerNames kMoo{"moo.evaluate", "moo.repair"};

std::mutex g_last_mutex;
std::shared_ptr<const TracedProblem> g_last;  // guarded by g_last_mutex

void count(std::atomic<std::size_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

/// Rebuilds "name?k=v&..." from a parsed parameter map (sorted keys).
std::string inner_ref(const std::string& name, const rmp::api::ParamMap& params) {
  std::string ref = name;
  char sep = '?';
  for (const auto& [key, value] : params) {
    ref += sep + key + "=" + value;
    sep = '&';
  }
  return ref;
}

void add_traced(rmp::api::ProblemRegistry& registry, const std::string& inner,
                std::vector<std::string> keys, const LayerNames& names, bool classify) {
  registry.add(
      "traced-" + inner, "timing/classifying decorator over " + inner, std::move(keys),
      [inner, names, classify](const rmp::api::ParamMap& params) {
        ScopedSpan span("api.setup.build");
        auto traced = std::make_shared<TracedProblem>(
            rmp::api::ProblemRegistry::global().make(inner_ref(inner, params)), names,
            classify);
        const std::lock_guard<std::mutex> lock(g_last_mutex);
        g_last = traced;
        return traced;
      });
}

}  // namespace

TracedProblem::TracedProblem(std::shared_ptr<rmp::moo::Problem> inner, LayerNames names,
                             bool classify)
    : inner_(std::move(inner)), names_(names), classify_(classify) {}

std::size_t TracedProblem::num_variables() const { return inner_->num_variables(); }
std::size_t TracedProblem::num_objectives() const { return inner_->num_objectives(); }
std::span<const double> TracedProblem::lower_bounds() const {
  return inner_->lower_bounds();
}
std::span<const double> TracedProblem::upper_bounds() const {
  return inner_->upper_bounds();
}
std::string TracedProblem::name() const { return inner_->name(); }

double TracedProblem::evaluate(std::span<const double> x,
                               std::span<double> objectives) const {
  ScopedSpan span(names_.evaluate);
  const double violation = inner_->evaluate(x, objectives);
  if (!classify_) {
    count(plain_);
  } else if (!inner_->last_result_memoizable()) {
    count(cycle_);
    span.rename("kinetics.cycle");
  } else if (objectives[0] == 0.0 && violation >= 1.0) {
    count(unconverged_);
    span.rename("kinetics.unconverged");
  } else {
    count(settled_);
    span.rename("kinetics.settled");
  }
  return violation;
}

void TracedProblem::repair(rmp::num::Vec& x) const {
  ScopedSpan span(names_.repair);
  count(repair_);
  inner_->repair(x);
}

std::size_t TracedProblem::suggest_initial(std::span<rmp::num::Vec> out,
                                           rmp::num::Rng& rng) const {
  return inner_->suggest_initial(out, rng);
}

void TracedProblem::commit_epoch() const {
  ScopedSpan span("moo.commit");
  count(commit_);
  inner_->commit_epoch();
}

rmp::moo::EvalStats TracedProblem::eval_stats() const { return inner_->eval_stats(); }
bool TracedProblem::set_prescreen(bool enabled) const {
  return inner_->set_prescreen(enabled);
}
void TracedProblem::save_state(rmp::core::Json& out) const { inner_->save_state(out); }
void TracedProblem::load_state(const rmp::core::Json& doc) const {
  inner_->load_state(doc);
}
bool TracedProblem::last_result_memoizable() const {
  return inner_->last_result_memoizable();
}

CallCounts TracedProblem::counts() const {
  const auto load = [](const std::atomic<std::size_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  return CallCounts{load(settled_), load(cycle_), load(unconverged_),
                    load(plain_),   load(repair_), load(commit_)};
}

void register_traced_problems() {
  auto& registry = rmp::api::ProblemRegistry::global();
  if (registry.contains("traced-photosynthesis")) return;
  add_traced(registry, "photosynthesis", {"scenario"}, kKinetics, true);
  add_traced(registry, "geobacter", {}, kFba, false);
  add_traced(registry, "zdt1", {"n"}, kMoo, false);
}

std::shared_ptr<const TracedProblem> last_traced_problem() {
  const std::lock_guard<std::mutex> lock(g_last_mutex);
  return g_last;
}

}  // namespace perfbench
