#include "api/session.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "core/fault.hpp"
#include "moo/state.hpp"
#include "pareto/mining.hpp"
#include "robustness/yield.hpp"

namespace rmp::api {

namespace {

// Elapsed-seconds is operator-facing progress data only; no optimizer or
// solver decision reads it.
// lint: allow(wall-clock) timing-only, feeds RunResult stage timings
using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point start) {
  return std::chrono::duration<double>(clock::now() - start).count();
}

/// The generic screened property: objective 0 of the problem (for the
/// paper's problems that is the negated CO2 uptake / electron production —
/// exactly the quantity whose persistence Section 2.3 assesses).
robustness::PropertyFn objective0_property(std::shared_ptr<moo::Problem> problem) {
  return [problem = std::move(problem)](std::span<const double> x) {
    num::Vec f(problem->num_objectives());
    (void)problem->evaluate(x, f);
    return f[0];
  };
}

robustness::YieldConfig yield_config(const RunSpec& spec, const moo::Problem& problem) {
  robustness::YieldConfig cfg;
  cfg.perturbation.global_trials = spec.robustness.trials;
  cfg.perturbation.max_relative = spec.robustness.max_relative;
  const auto lower = problem.lower_bounds();
  const auto upper = problem.upper_bounds();
  cfg.perturbation.lower.assign(lower.begin(), lower.end());
  cfg.perturbation.upper.assign(upper.begin(), upper.end());
  cfg.epsilon_fraction = spec.robustness.epsilon_fraction;
  cfg.seed = spec.robustness.seed;
  cfg.threads = spec.threads;
  // The serial barrier after the robustness batch folds its solved steady
  // states into the problem's evaluation accelerators (the kinetic
  // warm-start pool).
  cfg.epoch_commit = [p = &problem] { p->commit_epoch(); };
  return cfg;
}

[[noreturn]] void reject(const std::string& why) {
  throw SpecError("checkpoint rejected: " + why);
}

/// Envelope field access that reports rejection, not a bare JsonError.
const core::Json& envelope_field(const core::Json& doc, std::string_view key) {
  if (!doc.is_object()) reject("envelope is not a JSON object");
  const core::Json* found = doc.find(key);
  if (found == nullptr) reject("envelope is missing \"" + std::string(key) + "\"");
  return *found;
}

}  // namespace

core::Json progress_to_json(const SessionProgress& progress) {
  using core::Json;
  return Json::object()
      .set("epoch", progress.epoch)
      .set("total_epochs", progress.total_epochs)
      .set("evaluations", progress.evaluations)
      .set("eval_stats",
           Json::object()
               .set("evaluations", progress.eval_stats.evaluations)
               .set("prescreen_skips", progress.eval_stats.prescreen_skips)
               .set("pool_hits", progress.eval_stats.pool_hits)
               .set("full_evaluations", progress.eval_stats.full_evaluations))
      .set("fingerprint", Json::hex(progress.fingerprint));
}

std::uint64_t spec_state_hash(const RunSpec& spec) {
  RunSpec normalized = spec;
  normalized.checkpoint_every = 0;
  normalized.checkpoint_path.clear();
  const std::string dump = spec_to_json(normalized).dump(0);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : dump) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

void Session::construct_stack() {
  problem_ = ProblemRegistry::global().make(spec_.problem);
  if (spec_.prescreen && !problem_->set_prescreen(true)) {
    throw SpecError("spec \"prescreen\": problem \"" + spec_.problem +
                    "\" has no tangent-model prescreen");
  }
  optimizer_ = OptimizerRegistry::global().make(
      spec_.optimizer, *problem_, OptimizerContext{spec_.seed, spec_.threads});
  cumulative_ = optimizer_->population_is_archive();
}

Session::Session(RunSpec spec) : spec_(std::move(spec)) {
  construct_stack();
  const auto start = clock::now();
  optimizer_->initialize();
  if (!cumulative_) archive_.offer_all(optimizer_->population());
  optimize_seconds_ += seconds_since(start);
}

Session::Session(RunSpec spec, ResumeTag) : spec_(std::move(spec)) {
  construct_stack();
}

void Session::step_epoch() {
  assert(!done());
  // Chaos-layer hook: an armed `solve.transient` site models a transient
  // solver failure (kind=fail) or a worker dying mid-epoch (kind=crash).
  core::fault_point("solve.transient");
  const auto start = clock::now();
  optimizer_->step();
  if (!cumulative_) archive_.offer_all(optimizer_->population());
  optimize_seconds_ += seconds_since(start);
  ++epoch_;
  if (observer_) observer_(progress());
}

SessionProgress Session::progress() const {
  SessionProgress p;
  p.epoch = epoch_;
  p.total_epochs = spec_.generations;
  p.evaluations = optimizer_->evaluations();
  p.eval_stats = problem_->eval_stats();
  p.fingerprint = cumulative_ ? moo::fingerprint(optimizer_->population())
                              : archive_.fingerprint();
  return p;
}

core::Json Session::checkpoint() const {
  core::Json envelope = core::Json::object();
  envelope.set("state_version", kStateVersion);
  envelope.set("kind", "rmp-checkpoint");
  envelope.set("spec", spec_to_json(spec_));
  envelope.set("spec_hash", core::Json::hex(spec_state_hash(spec_)));
  envelope.set("epoch", static_cast<std::uint64_t>(epoch_));
  core::Json optimizer = core::Json::object();
  optimizer_->save_state(optimizer);
  envelope.set("optimizer", std::move(optimizer));
  core::Json archive = core::Json::object();
  archive_.save_state(archive);
  envelope.set("archive", std::move(archive));
  core::Json problem = core::Json::object();
  problem_->save_state(problem);
  envelope.set("problem", std::move(problem));
  envelope.set("fingerprint", core::Json::hex(progress().fingerprint));
  return envelope;
}

core::Json load_checkpoint_file(const std::string& path) {
  try {
    return core::load_json_file(path);
  } catch (const core::JsonError& e) {
    // A torn or truncated checkpoint surfaces as a parse error; name the
    // file and keep the parser's byte offset so the damage is locatable.
    throw SpecError("checkpoint \"" + path + "\" is unreadable or corrupt: " +
                    e.what());
  }
}

Session Session::resume(const core::Json& checkpoint) {
  const core::Json& kind = envelope_field(checkpoint, "kind");
  if (!kind.is_string() || kind.as_string() != "rmp-checkpoint") {
    reject("document is not an rmp checkpoint");
  }
  const core::Json& version = envelope_field(checkpoint, "state_version");
  if (!version.is_int() || version.as_int() != kStateVersion) {
    reject("state_version " + version.dump(0) + " is not the supported " +
           std::to_string(kStateVersion));
  }
  // The spec echo re-validates through the registries like any user spec.
  RunSpec spec = spec_from_json(envelope_field(checkpoint, "spec"));
  const std::uint64_t saved_hash = [&] {
    try {
      return envelope_field(checkpoint, "spec_hash").as_u64();
    } catch (const core::JsonError& e) {
      reject(std::string("malformed spec_hash: ") + e.what());
    }
  }();
  if (saved_hash != spec_state_hash(spec)) {
    reject(
        "spec_hash does not match the spec echo — the checkpoint was "
        "written for a different spec/seed");
  }
  const std::size_t epoch = [&] {
    try {
      return envelope_field(checkpoint, "epoch").as_size();
    } catch (const core::JsonError& e) {
      reject(std::string("malformed epoch: ") + e.what());
    }
  }();
  if (epoch > spec.generations) {
    reject("epoch " + std::to_string(epoch) + " exceeds the spec's " +
           std::to_string(spec.generations) + " generations");
  }

  Session session(std::move(spec), ResumeTag{});
  try {
    session.problem_->load_state(envelope_field(checkpoint, "problem"));
    session.optimizer_->load_state(envelope_field(checkpoint, "optimizer"));
    session.archive_.load_state(envelope_field(checkpoint, "archive"));
  } catch (const moo::StateError& e) {
    reject(e.what());
  }
  session.epoch_ = epoch;

  const std::uint64_t saved_fp = [&] {
    try {
      return envelope_field(checkpoint, "fingerprint").as_u64();
    } catch (const core::JsonError& e) {
      reject(std::string("malformed fingerprint: ") + e.what());
    }
  }();
  const std::uint64_t derived_fp = session.progress().fingerprint;
  if (derived_fp != saved_fp) {
    reject("restored state re-derives fingerprint " +
           core::Json::hex(derived_fp).as_string() + " but the envelope "
           "records " + core::Json::hex(saved_fp).as_string());
  }
  return session;
}

RunResult Session::finish() {
  while (!done()) step_epoch();

  RunResult result;
  result.spec = spec_;
  result.problem_name = problem_->name();
  result.optimizer_name = optimizer_->name();

  // Fold the cumulative archive view in once (idempotent: the members are
  // mutually non-dominated and duplicate objective vectors are rejected, so
  // a second finish() merge changes nothing).
  const auto fold_start = clock::now();
  if (cumulative_) archive_.offer_all(optimizer_->population());
  optimize_seconds_ += seconds_since(fold_start);
  result.optimize_seconds = optimize_seconds_;
  result.evaluations = optimizer_->evaluations();
  result.fingerprint = archive_.fingerprint();
  result.front = pareto::Front::from_population(archive_.solutions());
  if (result.front.empty()) {
    result.eval_stats = problem_->eval_stats();
    return result;
  }

  const bool robust = spec_.robustness.enabled && spec_.robustness.trials > 0;
  const robustness::PropertyFn property =
      robust ? objective0_property(problem_) : robustness::PropertyFn{};
  const robustness::YieldConfig ycfg =
      robust ? yield_config(spec_, *problem_) : robustness::YieldConfig{};

  const auto mine = [&](std::string selection, std::size_t idx) -> MinedCandidate& {
    MinedCandidate c;
    c.selection = std::move(selection);
    c.front_index = idx;
    c.x = result.front[idx].x;
    c.objectives = result.front[idx].f;
    return result.mined.emplace_back(std::move(c));
  };

  // Mine trade-off candidates (Section 2.2), then estimate each one's
  // robustness (Section 2.3) when enabled.
  if (spec_.mining.enabled) {
    const auto mining_start = clock::now();
    mine("closest-to-ideal",
         pareto::closest_to_ideal(result.front, spec_.mining.metric));
    const auto shadows = pareto::shadow_minima(result.front);
    for (std::size_t j = 0; j < shadows.size(); ++j) {
      mine("shadow-min f" + std::to_string(j), shadows[j]);
    }
    result.mining_seconds = seconds_since(mining_start);
  }

  if (robust) {
    const auto robustness_start = clock::now();
    // Every front member mining or the surface (Figure 3) picks is scored
    // once, in first-appearance order: one global ensemble per member,
    // measured against its archived objective 0 (bitwise what evaluate()
    // reported, so no nominal is solved again), all in one scorer call that
    // reads the snapshot committed at the end of optimisation.
    const std::vector<std::size_t> picks =
        pareto::equally_spaced(result.front, spec_.robustness.surface_samples);
    std::vector<std::size_t> screened;
    const auto slot_of = [&screened](std::size_t idx) {
      return static_cast<std::size_t>(
          std::find(screened.begin(), screened.end(), idx) - screened.begin());
    };
    for (const MinedCandidate& c : result.mined) {
      if (slot_of(c.front_index) == screened.size()) screened.push_back(c.front_index);
    }
    for (const std::size_t idx : picks) {
      if (slot_of(idx) == screened.size()) screened.push_back(idx);
    }
    std::vector<robustness::EnsembleRequest> requests;
    requests.reserve(screened.size());
    for (const std::size_t idx : screened) {
      requests.push_back({result.front[idx].x, result.front[idx].f[0], ycfg.seed,
                          robustness::kAllVariables});
    }
    const std::vector<robustness::YieldResult> yields =
        requests.empty() ? std::vector<robustness::YieldResult>{}
                         : robustness::score_ensembles(requests, property, ycfg);

    for (MinedCandidate& c : result.mined) c.yield = yields[slot_of(c.front_index)];
    result.surface.resize(picks.size());
    for (std::size_t k = 0; k < picks.size(); ++k) {
      SurfacePoint& p = result.surface[k];
      static_cast<robustness::YieldResult&>(p) = yields[slot_of(picks[k])];
      p.front_index = picks[k];
      p.objectives = result.front[picks[k]].f;
    }
    // The max-yield selection (Table 2): the first surface point of highest
    // gamma, with the yield it was measured at.
    if (!result.surface.empty()) {
      const auto best = std::max_element(
          result.surface.begin(), result.surface.end(),
          [](const auto& a, const auto& b) { return a.gamma < b.gamma; });
      mine("max-yield", best->front_index).yield =
          static_cast<const robustness::YieldResult&>(*best);
    }
    result.robustness_seconds = seconds_since(robustness_start);
  }
  result.eval_stats = problem_->eval_stats();
  return result;
}

}  // namespace rmp::api
