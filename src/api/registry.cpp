#include "api/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "fba/geobacter.hpp"
#include "fba/geobacter_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/moead.hpp"
#include "moo/nsga2.hpp"
#include "moo/pmo2.hpp"
#include "moo/spea2.hpp"
#include "moo/testproblems.hpp"
#include "moo/topology.hpp"

namespace rmp::api {

namespace {

/// Splits on `sep`, keeping empty tokens (a trailing "a,b," yields an empty
/// third entry the caller can reject — silent dropping would turn a typo'd
/// engine list into a differently-shaped archipelago).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = s.find(sep, start);
    out.push_back(s.substr(start, end - start));
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

std::string join(std::span<const std::string> parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += ", ";
    out += part;
  }
  return out;
}

/// "a, b, c" of a registry's entry names, for unknown-name errors.
template <typename EntryMap>
std::string known_names(const EntryMap& entries) {
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const auto& [name, entry] : entries) names.push_back(name);
  return join(names);
}

}  // namespace

ParsedRef parse_ref(const std::string& ref) {
  ParsedRef parsed;
  const std::size_t qmark = ref.find('?');
  parsed.name = ref.substr(0, qmark);
  if (parsed.name.empty()) throw SpecError("empty name in reference \"" + ref + "\"");
  if (qmark == std::string::npos) return parsed;
  const std::string tail = ref.substr(qmark + 1);
  if (tail.empty()) return parsed;
  for (const std::string& pair : split(tail, '&')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      throw SpecError("malformed parameter \"" + pair + "\" in reference \"" + ref +
                      "\" (expected key=value)");
    }
    const std::string key = pair.substr(0, eq);
    if (!parsed.params.emplace(key, pair.substr(eq + 1)).second) {
      throw SpecError("duplicate parameter \"" + key + "\" in reference \"" + ref + "\"");
    }
  }
  return parsed;
}

std::size_t param_size(const ParamMap& params, const std::string& key,
                       std::size_t fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  std::size_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc() || ptr != v.data() + v.size()) {
    throw SpecError("parameter " + key + "=" + v + " is not a non-negative integer");
  }
  return parsed;
}

double param_double(const ParamMap& params, const std::string& key, double fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  // from_chars, not strtod: locale-independent, and no hex-float spellings.
  // from_chars does accept "inf"/"nan" — reject those explicitly; every
  // numeric knob in the tree wants a finite value.
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc() || ptr != v.data() + v.size() || !std::isfinite(parsed)) {
    throw SpecError("parameter " + key + "=" + v + " is not a finite number");
  }
  return parsed;
}

bool param_bool(const ParamMap& params, const std::string& key, bool fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw SpecError("parameter " + key + "=" + v + " is not a boolean (use 0/1)");
}

std::string param_string(const ParamMap& params, const std::string& key,
                         std::string fallback) {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void require_known_keys(const ParamMap& params, std::span<const std::string> known,
                        const std::string& context) {
  for (const auto& [key, value] : params) {
    bool found = false;
    for (const std::string& k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw SpecError("unknown parameter \"" + key + "\" for " + context +
                      (known.empty() ? " (takes no parameters)"
                                     : " (known: " + join(known) + ")"));
    }
  }
}

// -- Built-in problems --------------------------------------------------------

namespace {

/// NSGA-II population: the engine rejects odd sizes (pairwise mating), so
/// fail at spec level with the parameter name instead of surfacing a bare
/// std::invalid_argument from deep inside construction.
std::size_t nsga2_population(const ParamMap& params, const char* optimizer,
                             std::size_t fallback) {
  const std::size_t population = param_size(params, "population", fallback);
  if (population < 4 || population % 2 != 0) {
    throw SpecError(std::string(optimizer) +
                    " population must be even and >= 4 (NSGA-II pairwise "
                    "mating), got " +
                    std::to_string(population));
  }
  return population;
}

/// A size parameter with a floor: SPEA2 and MOEA/D draw mating indices
/// from their archive, population or neighbourhood, so an empty one divides
/// by zero and a population below the floor runs no search at all.
std::size_t param_size_at_least(const ParamMap& params, const char* optimizer,
                                const std::string& key, std::size_t fallback,
                                std::size_t floor) {
  const std::size_t value = param_size(params, key, fallback);
  if (value < floor) {
    throw SpecError(std::string(optimizer) + " " + key + " must be >= " +
                    std::to_string(floor) + ", got " + std::to_string(value));
  }
  return value;
}

/// A fraction or probability parameter: a finite number in [0, 1].
double param_fraction(const ParamMap& params, const std::string& key, double fallback) {
  const double value = param_double(params, key, fallback);
  if (value < 0.0 || value > 1.0) {
    throw SpecError("parameter " + key + "=" + params.at(key) + " is not in [0, 1]");
  }
  return value;
}

/// ZDT variable count with the family's minimum of 2 (g(x) averages over the
/// n-1 tail variables).
std::size_t zdt_n(const ParamMap& params, std::size_t fallback) {
  const std::size_t n = param_size(params, "n", fallback);
  if (n < 2) throw SpecError("ZDT problems need n >= 2 variables");
  return n;
}

void register_builtins(ProblemRegistry& reg) {
  reg.add("zdt1", "ZDT1, convex front (n=30)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt1>(zdt_n(p, 30));
  });
  reg.add("zdt2", "ZDT2, non-convex front (n=30)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt2>(zdt_n(p, 30));
  });
  reg.add("zdt3", "ZDT3, disconnected front (n=30)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt3>(zdt_n(p, 30));
  });
  reg.add("zdt4", "ZDT4, multi-modal g (n=10)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt4>(zdt_n(p, 10));
  });
  reg.add("zdt6", "ZDT6, non-uniform density (n=10)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt6>(zdt_n(p, 10));
  });
  reg.add("dtlz2", "DTLZ2, spherical m-objective front (n=12, m=3)", {"n", "m"},
          [](const ParamMap& p) {
            const std::size_t m = param_size(p, "m", 3);
            const std::size_t n = param_size(p, "n", 12);
            if (m < 2) throw SpecError("dtlz2 needs m >= 2 objectives");
            if (n < m) throw SpecError("dtlz2 needs n >= m variables");
            return std::make_shared<moo::Dtlz2>(n, m);
          });
  reg.add("schaffer", "Schaffer's single-variable problem", {},
          [](const ParamMap&) { return std::make_shared<moo::Schaffer>(); });
  reg.add("kursawe", "Kursawe, disconnected non-convex front", {},
          [](const ParamMap&) { return std::make_shared<moo::Kursawe>(); });
  reg.add("binh-korn", "Binh-Korn constrained problem", {},
          [](const ParamMap&) { return std::make_shared<moo::BinhKorn>(); });
  reg.add("photosynthesis",
          "C3 enzyme partition design; scenario in {past,present,future}-{low,high}",
          {"scenario", "pool", "min_uptake", "prescreen_margin",
           "prescreen_radius2"},
          [](const ParamMap& p) {
            const std::string label = param_string(p, "scenario", "present-high");
            const kinetics::Scenario* s = kinetics::scenario_by_label(label);
            if (s == nullptr) {
              std::vector<std::string> labels;
              for (const auto& known : kinetics::all_scenarios()) {
                labels.push_back(known.label);
              }
              throw SpecError("unknown photosynthesis scenario \"" + label +
                              "\" (known: " + join(labels) + ")");
            }
            kinetics::C3Config cfg = kinetics::scenario_config(*s);
            cfg.warm_pool_capacity = param_size(p, "pool", cfg.warm_pool_capacity);
            // Prescreen aggressiveness (the on/off switch itself is the
            // spec-level "prescreen" knob, not a problem parameter) and the
            // alive-leaf feasibility threshold.  Raising min_uptake toward
            // the scenario's natural uptake carves a smooth feasibility
            // boundary through well-pooled territory — the habitat where
            // the tangent prescreen pays off.
            kinetics::PhotosynthesisBounds bounds;
            bounds.min_uptake = param_double(p, "min_uptake", bounds.min_uptake);
            bounds.prescreen_margin =
                param_double(p, "prescreen_margin", bounds.prescreen_margin);
            bounds.prescreen_radius2 =
                param_double(p, "prescreen_radius2", bounds.prescreen_radius2);
            return std::make_shared<kinetics::PhotosynthesisProblem>(
                std::make_shared<const kinetics::C3Model>(cfg), bounds);
          });
  reg.add("geobacter",
          "Geobacter 608-reaction flux design (EP vs BP, steady-state violation)",
          {"repair", "lp_seeding"}, [](const ParamMap& p) {
            auto network =
                std::make_shared<const fba::MetabolicNetwork>(fba::build_geobacter());
            fba::GeobacterProblemOptions opts;
            opts.nullspace_repair = param_bool(p, "repair", opts.nullspace_repair);
            opts.lp_seeding = param_bool(p, "lp_seeding", opts.lp_seeding);
            return std::make_shared<fba::GeobacterProblem>(std::move(network), opts);
          });
}

}  // namespace

// -- Built-in optimizers ------------------------------------------------------

namespace {

moo::TopologyKind parse_topology(const std::string& name) {
  if (name == "all-to-all") return moo::TopologyKind::kAllToAll;
  if (name == "ring") return moo::TopologyKind::kRing;
  if (name == "star") return moo::TopologyKind::kStar;
  if (name == "random") return moo::TopologyKind::kRandom;
  throw SpecError("unknown topology \"" + name +
                  "\" (known: all-to-all, ring, star, random)");
}

void register_builtins(OptimizerRegistry& reg) {
  reg.add("nsga2", "NSGA-II (population, seeded_fraction)",
          {"population", "seeded_fraction"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::Nsga2Options o;
            o.population_size = nsga2_population(p, "nsga2", o.population_size);
            o.seeded_fraction = param_fraction(p, "seeded_fraction", o.seeded_fraction);
            o.seed = ctx.seed;
            o.eval_threads = ctx.threads;
            return std::make_unique<moo::Nsga2>(problem, o);
          });
  reg.add("spea2", "SPEA2 (population, archive)", {"population", "archive"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::Spea2Options o;
            o.population_size =
                param_size_at_least(p, "spea2", "population", o.population_size, 1);
            o.archive_size = param_size_at_least(p, "spea2", "archive", o.archive_size, 1);
            o.seed = ctx.seed;
            o.eval_threads = ctx.threads;
            return std::make_unique<moo::Spea2>(problem, o);
          });
  reg.add("moead", "MOEA/D (population, neighborhood, scalarization)",
          {"population", "neighborhood", "scalarization"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::MoeadOptions o;
            o.population_size =
                param_size_at_least(p, "moead", "population", o.population_size, 4);
            o.neighborhood_size = param_size_at_least(
                p, "moead", "neighborhood",
                std::min(o.neighborhood_size, o.population_size), 1);
            if (o.neighborhood_size > o.population_size) {
              throw SpecError("moead neighborhood " +
                              std::to_string(o.neighborhood_size) +
                              " exceeds the population of " +
                              std::to_string(o.population_size));
            }
            const std::string s = param_string(p, "scalarization", "tchebycheff");
            if (s == "tchebycheff") {
              o.scalarization = moo::Scalarization::kTchebycheff;
            } else if (s == "weighted-sum") {
              o.scalarization = moo::Scalarization::kWeightedSum;
            } else {
              throw SpecError("unknown scalarization \"" + s +
                              "\" (known: tchebycheff, weighted-sum)");
            }
            o.seed = ctx.seed;
            o.eval_threads = ctx.threads;
            return std::make_unique<moo::Moead>(problem, o);
          });
  reg.add("pmo2",
          "PMO2 archipelago (islands, population, migration_interval, "
          "migration_probability, migrants, topology, archive_capacity, "
          "engines=a,b,...)",
          {"islands", "population", "migration_interval", "migration_probability",
           "migrants", "topology", "archive_capacity", "engines"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::Pmo2Options o;
            o.islands = param_size(p, "islands", o.islands);
            if (o.islands < 1) throw SpecError("pmo2 needs islands >= 1");
            o.migration_interval =
                param_size(p, "migration_interval", o.migration_interval);
            o.migration_probability =
                param_fraction(p, "migration_probability", o.migration_probability);
            o.migrants_per_edge = param_size(p, "migrants", o.migrants_per_edge);
            o.topology = parse_topology(param_string(p, "topology", "all-to-all"));
            o.archive_capacity = param_size(p, "archive_capacity", o.archive_capacity);
            o.seed = ctx.seed;
            o.island_threads = ctx.threads;

            moo::Pmo2::AlgorithmFactory factory;
            const std::string engines = param_string(p, "engines", "");
            // The default archipelago runs NSGA-II on every island, so the
            // per-island population inherits its even-size requirement; with
            // an explicit engines list the named engines validate their own
            // population at island construction.
            const std::size_t population =
                engines.empty() ? nsga2_population(p, "pmo2", 100)
                                : param_size(p, "population", 100);
            if (engines.empty()) {
              // The paper's heterogeneous default: NSGA-II everywhere, odd
              // islands explore (coarser variation), even islands exploit.
              factory = moo::Pmo2::default_nsga2_factory(population);
            } else {
              // Heterogeneous archipelago straight from the registry: island
              // i runs the (i mod k)-th named engine.  Engine seeds are the
              // island streams Pmo2 derives; engines that split their
              // generation are scored in the archipelago's flat batch, the
              // rest run whole in its commit phase.
              std::vector<std::string> names = split(engines, ',');
              for (const std::string& name : names) {
                if (!OptimizerRegistry::global().contains(name)) {
                  throw SpecError("pmo2 engines entry \"" + name +
                                  "\" is not a registered optimizer");
                }
              }
              const std::size_t eval_threads = ctx.threads;
              factory = [names, population, eval_threads](
                            const moo::Problem& island_problem, std::uint64_t seed,
                            std::size_t island) {
                ParamMap engine_params{{"population", std::to_string(population)}};
                return OptimizerRegistry::global().make_named(
                    names[island % names.size()], island_problem,
                    OptimizerContext{seed, eval_threads}, engine_params);
              };
            }
            return std::make_unique<moo::Pmo2>(problem, o, std::move(factory));
          });
}

}  // namespace

// -- Registry -----------------------------------------------------------------

namespace {

/// The noun of a registry's error messages and of its rmp_run listing flag.
const char* noun(const ProblemRegistry&) { return "problem"; }
const char* noun(const OptimizerRegistry&) { return "optimizer"; }

}  // namespace

template <typename Product, typename... Args>
Registry<Product, Args...>& Registry<Product, Args...>::global() {
  static Registry* instance = [] {
    auto* reg = new Registry();
    register_builtins(*reg);
    return reg;
  }();
  return *instance;
}

template <typename Product, typename... Args>
void Registry<Product, Args...>::add(std::string name, std::string summary,
                                     std::vector<std::string> keys, Factory factory) {
  entries_[std::move(name)] =
      Entry{std::move(summary), std::move(keys), std::move(factory)};
}

template <typename Product, typename... Args>
Product Registry<Product, Args...>::make(const std::string& ref, Args... args) const {
  const ParsedRef parsed = parse_ref(ref);
  return make_named(parsed.name, args..., parsed.params);
}

template <typename Product, typename... Args>
Product Registry<Product, Args...>::make_named(const std::string& name, Args... args,
                                               const ParamMap& params) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw SpecError("unknown " + std::string(noun(*this)) + " \"" + name +
                    "\" (known: " + known_names(entries_) + ")");
  }
  require_known_keys(params, it->second.keys, noun(*this) + (" " + name));
  return it->second.factory(args..., params);
}

template <typename Product, typename... Args>
void Registry<Product, Args...>::validate(const std::string& ref) const {
  const ParsedRef parsed = parse_ref(ref);
  const auto it = entries_.find(parsed.name);
  if (it == entries_.end()) {
    throw SpecError("unknown " + std::string(noun(*this)) + " \"" + parsed.name +
                    "\" (see rmp_run --list-" + noun(*this) + "s)");
  }
  require_known_keys(parsed.params, it->second.keys, noun(*this) + (" " + parsed.name));
}

template <typename Product, typename... Args>
bool Registry<Product, Args...>::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

template <typename Product, typename... Args>
std::vector<std::pair<std::string, std::string>> Registry<Product, Args...>::list()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.emplace_back(name, entry.summary);
  return out;
}

template class Registry<std::shared_ptr<moo::Problem>>;
template class Registry<std::unique_ptr<moo::Optimizer>, const moo::Problem&,
                        const OptimizerContext&>;

}  // namespace rmp::api
