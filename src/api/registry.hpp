// String-keyed factories for every problem and optimizer in the tree — the
// "what to run" half of the spec-driven run API (docs/ARCHITECTURE.md, "API
// layer").  A reference is a name plus an optional key/value parameter tail:
//
//   "zdt1?n=30"                          analytic suite, 30 variables
//   "photosynthesis?scenario=future-low" one of the six Figure-1 conditions
//   "geobacter?repair=0"                 608-reaction FBA problem, raw search
//   "pmo2?islands=4&engines=nsga2,spea2" heterogeneous archipelago
//
// Factories validate their parameter maps strictly: an unknown key, an
// unknown name or a malformed value throws SpecError with an explanatory
// message (the CLI surfaces it verbatim).  The global registries are
// populated with every built-in at first use and stay mutable so embedders
// can add their own problems/engines; all listings are sorted by name so
// registry-driven behavior is deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "moo/algorithm.hpp"
#include "moo/problem.hpp"

namespace rmp::api {

/// Malformed reference, unknown name, unknown/invalid parameter — every
/// user-input error of the API layer.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

/// Parsed "?k=v&k2=v2" tail.  std::map keeps iteration sorted, so error
/// messages and factory behavior never depend on the spelling order.
using ParamMap = std::map<std::string, std::string>;

struct ParsedRef {
  std::string name;
  ParamMap params;
};

/// Splits "name?k=v&..." into name + parameter map.  Throws SpecError on an
/// empty name, a missing '=', an empty key/value or a duplicate key.
[[nodiscard]] ParsedRef parse_ref(const std::string& ref);

// Typed parameter accessors with defaults; a present-but-malformed value
// throws SpecError naming the key.
[[nodiscard]] std::size_t param_size(const ParamMap& params, const std::string& key,
                                     std::size_t fallback);
[[nodiscard]] double param_double(const ParamMap& params, const std::string& key,
                                  double fallback);
[[nodiscard]] bool param_bool(const ParamMap& params, const std::string& key,
                              bool fallback);
[[nodiscard]] std::string param_string(const ParamMap& params, const std::string& key,
                                       std::string fallback);
/// Rejects any key outside `known` (typo protection; the registries apply it
/// to every entry's declared key set before invoking the factory).
void require_known_keys(const ParamMap& params, std::span<const std::string> known,
                        const std::string& context);

/// Seed/threading context a RunSpec hands every optimizer factory.
struct OptimizerContext {
  std::uint64_t seed = 7;
  /// Coarse parallelism budget: island_threads for pmo2, eval_threads for
  /// the single-population engines (0 = hardware concurrency, 1 = serial).
  std::size_t threads = 0;
};

/// A name -> factory table.  A factory builds a Product from its leading
/// Args and the reference's parameter map; ProblemRegistry and
/// OptimizerRegistry below are its two instantiations.
template <typename Product, typename... Args>
class Registry {
 public:
  using Factory = std::function<Product(Args..., const ParamMap&)>;

  /// The process-wide registry, pre-populated with every built-in (see the
  /// two aliases below).
  [[nodiscard]] static Registry& global();

  /// `keys` declares the parameters the factory understands — the registry
  /// rejects anything else before the factory runs, and validate() checks
  /// them without constructing.
  void add(std::string name, std::string summary, std::vector<std::string> keys,
           Factory factory);

  /// Instantiates from a reference ("zdt1?n=30").  Throws SpecError on an
  /// unknown name (listing the known ones) or bad parameters.
  [[nodiscard]] Product make(const std::string& ref, Args... args) const;

  /// Same, from an already-parsed (name, params) pair — what the pmo2
  /// factory calls to build island engines from its `engines=` list.
  [[nodiscard]] Product make_named(const std::string& name, Args... args,
                                   const ParamMap& params) const;

  /// Ref-grammar + name + parameter-key check without constructing anything
  /// (parameter *values* are validated by the factory at make() time).
  void validate(const std::string& ref) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// (name, summary) pairs, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> list() const;

 private:
  struct Entry {
    std::string summary;
    std::vector<std::string> keys;
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

/// Problems.  global() holds every built-in: zdt1..zdt4, zdt6, dtlz2,
/// schaffer, kursawe, binh-korn, photosynthesis (x6 scenarios) and
/// geobacter.
using ProblemRegistry = Registry<std::shared_ptr<moo::Problem>>;

/// Optimizers.  global() holds nsga2, spea2, moead and pmo2.  The pmo2
/// entry resolves its optional `engines=a,b,...` parameter through this
/// same registry — heterogeneous island factories are registry lookups.
using OptimizerRegistry =
    Registry<std::unique_ptr<moo::Optimizer>, const moo::Problem&,
             const OptimizerContext&>;

extern template class Registry<std::shared_ptr<moo::Problem>>;
extern template class Registry<std::unique_ptr<moo::Optimizer>,
                               const moo::Problem&, const OptimizerContext&>;

}  // namespace rmp::api
