#include "api/spec.hpp"

namespace rmp::api {

namespace {

using core::Json;
using core::JsonError;

/// Wraps the typed Json accessors so a wrong-typed field reports its spec
/// path instead of a bare "wanted int, value is string".
template <typename Fn>
auto field(const char* path, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const JsonError& e) {
    throw SpecError("spec field \"" + std::string(path) + "\": " + e.what());
  }
}

void require_keys(const Json& obj, std::initializer_list<const char*> known,
                  const char* context) {
  for (const auto& [key, value] : obj.entries()) {
    bool found = false;
    for (const char* k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw SpecError("unknown key \"" + key + "\" in " + context);
    }
  }
}

MiningSpec mining_from_json(const Json& doc) {
  if (!doc.is_object()) throw SpecError("spec field \"mining\" must be an object");
  require_keys(doc, {"enabled", "metric"}, "\"mining\"");
  MiningSpec spec;
  if (const Json* v = doc.find("enabled")) {
    spec.enabled = field("mining.enabled", [&] { return v->as_bool(); });
  }
  if (const Json* v = doc.find("metric")) {
    spec.metric = distance_metric_from_string(
        field("mining.metric", [&] { return v->as_string(); }));
  }
  return spec;
}

RobustnessSpec robustness_from_json(const Json& doc) {
  if (!doc.is_object()) throw SpecError("spec field \"robustness\" must be an object");
  require_keys(doc,
               {"enabled", "trials", "max_relative", "epsilon_fraction",
                "surface_samples", "seed"},
               "\"robustness\"");
  RobustnessSpec spec;
  if (const Json* v = doc.find("enabled")) {
    spec.enabled = field("robustness.enabled", [&] { return v->as_bool(); });
  }
  if (const Json* v = doc.find("trials")) {
    spec.trials = field("robustness.trials", [&] { return v->as_size(); });
  }
  if (const Json* v = doc.find("max_relative")) {
    spec.max_relative = field("robustness.max_relative", [&] { return v->as_double(); });
  }
  if (const Json* v = doc.find("epsilon_fraction")) {
    spec.epsilon_fraction =
        field("robustness.epsilon_fraction", [&] { return v->as_double(); });
  }
  if (const Json* v = doc.find("surface_samples")) {
    spec.surface_samples =
        field("robustness.surface_samples", [&] { return v->as_size(); });
  }
  if (const Json* v = doc.find("seed")) {
    spec.seed = field("robustness.seed", [&] { return v->as_u64(); });
  }
  return spec;
}

}  // namespace

std::string to_string(pareto::DistanceMetric metric) {
  switch (metric) {
    case pareto::DistanceMetric::kEuclidean: return "euclidean";
    case pareto::DistanceMetric::kManhattan: return "manhattan";
    case pareto::DistanceMetric::kChebyshev: return "chebyshev";
  }
  return "unknown";
}

pareto::DistanceMetric distance_metric_from_string(const std::string& name) {
  if (name == "euclidean") return pareto::DistanceMetric::kEuclidean;
  if (name == "manhattan") return pareto::DistanceMetric::kManhattan;
  if (name == "chebyshev") return pareto::DistanceMetric::kChebyshev;
  throw SpecError("unknown mining metric \"" + name +
                  "\" (known: euclidean, manhattan, chebyshev)");
}

RunSpec spec_from_json(const Json& doc) {
  if (!doc.is_object()) throw SpecError("a run spec must be a JSON object");
  require_keys(doc,
               {"problem", "optimizer", "generations", "seed", "threads",
                "include_decision_vectors", "prescreen",
                "checkpoint_every", "checkpoint_path", "mining",
                "robustness"},
               "the run spec");
  RunSpec spec;
  const Json* problem = doc.find("problem");
  if (problem == nullptr) {
    throw SpecError("the run spec is missing \"problem\" (e.g. \"zdt1?n=30\")");
  }
  spec.problem = field("problem", [&] { return problem->as_string(); });
  if (const Json* v = doc.find("optimizer")) {
    spec.optimizer = field("optimizer", [&] { return v->as_string(); });
  }
  if (const Json* v = doc.find("generations")) {
    spec.generations = field("generations", [&] { return v->as_size(); });
  }
  if (const Json* v = doc.find("seed")) {
    spec.seed = field("seed", [&] { return v->as_u64(); });
  }
  if (const Json* v = doc.find("threads")) {
    spec.threads = field("threads", [&] { return v->as_size(); });
  }
  if (const Json* v = doc.find("include_decision_vectors")) {
    spec.include_decision_vectors =
        field("include_decision_vectors", [&] { return v->as_bool(); });
  }
  if (const Json* v = doc.find("prescreen")) {
    spec.prescreen = field("prescreen", [&] { return v->as_bool(); });
  }
  if (const Json* v = doc.find("checkpoint_every")) {
    spec.checkpoint_every = field("checkpoint_every", [&] { return v->as_size(); });
  }
  if (const Json* v = doc.find("checkpoint_path")) {
    spec.checkpoint_path = field("checkpoint_path", [&] { return v->as_string(); });
  }
  if (const Json* v = doc.find("mining")) spec.mining = mining_from_json(*v);
  if (const Json* v = doc.find("robustness")) {
    spec.robustness = robustness_from_json(*v);
  }
  // Fail at parse time, not after the optimize stage: check both references
  // (grammar, names, parameter keys) before any compute is spent.  Parameter
  // values are still validated by the factories at construction.
  ProblemRegistry::global().validate(spec.problem);
  OptimizerRegistry::global().validate(spec.optimizer);
  return spec;
}

RunSpec spec_from_string(std::string_view text) {
  return spec_from_json(Json::parse(text));
}

Json spec_to_json(const RunSpec& spec) {
  return Json::object()
      .set("problem", spec.problem)
      .set("optimizer", spec.optimizer)
      .set("generations", spec.generations)
      .set("seed", spec.seed)
      .set("threads", spec.threads)
      .set("include_decision_vectors", spec.include_decision_vectors)
      .set("prescreen", spec.prescreen)
      .set("checkpoint_every", spec.checkpoint_every)
      .set("checkpoint_path", spec.checkpoint_path)
      .set("mining", Json::object()
                         .set("enabled", spec.mining.enabled)
                         .set("metric", to_string(spec.mining.metric)))
      .set("robustness", Json::object()
                             .set("enabled", spec.robustness.enabled)
                             .set("trials", spec.robustness.trials)
                             .set("max_relative", spec.robustness.max_relative)
                             .set("epsilon_fraction", spec.robustness.epsilon_fraction)
                             .set("surface_samples", spec.robustness.surface_samples)
                             .set("seed", spec.robustness.seed));
}

}  // namespace rmp::api
