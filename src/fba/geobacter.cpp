#include "fba/geobacter.hpp"

#include <cassert>
#include <string>

#include "numeric/rng.hpp"

namespace rmp::fba {

namespace {

/// Small helper to assemble reactions tersely.
class NetworkBuilder {
 public:
  explicit NetworkBuilder(MetabolicNetwork& net) : net_(net) {}

  std::size_t met(const std::string& id, bool external = false) {
    return net_.add_metabolite(id, id, external);
  }

  void rxn(const std::string& id, std::vector<std::pair<std::string, double>> stoich,
           double lb, double ub) {
    Reaction r;
    r.id = id;
    r.name = id;
    for (auto& [mid, coeff] : stoich) {
      r.stoichiometry.push_back({met(mid), coeff});
    }
    r.lower_bound = lb;
    r.upper_bound = ub;
    net_.add_reaction(std::move(r));
  }

 private:
  MetabolicNetwork& net_;
};

}  // namespace

MetabolicNetwork build_geobacter() {
  constexpr GeobacterSpec spec;
  MetabolicNetwork net;
  NetworkBuilder b(net);
  const double g = spec.generic_bound;

  // Boundary species (not balanced).
  b.met("ac_ext", true);
  b.met("el_ext", true);
  b.met("co2_ext", true);
  b.met("biomass_ext", true);
  b.met("export_ext", true);

  // --- substrate uptake and activation -----------------------------------
  b.rxn(geobacter_ids::kAcetateUptake, {{"ac_ext", -1}, {"ac", 1}}, 0.0,
        spec.acetate_uptake_max);
  b.rxn("ACS", {{"ac", -1}, {"atp", -1}, {"coa", -1}, {"accoa", 1}, {"adp", 1}, {"pi", 1}},
        0.0, g);

  // --- TCA cycle (3 NADH + 1 FADH2 + 1 ATP + 2 CO2 per acetyl-CoA) --------
  b.rxn("CS", {{"accoa", -1}, {"oaa", -1}, {"cit", 1}, {"coa", 1}}, 0.0, g);
  b.rxn("ACON", {{"cit", -1}, {"icit", 1}}, -g, g);
  b.rxn("ICDH", {{"icit", -1}, {"nad", -1}, {"akg", 1}, {"co2", 1}, {"nadh", 1}}, 0.0, g);
  b.rxn("AKGDH",
        {{"akg", -1}, {"nad", -1}, {"coa", -1}, {"succoa", 1}, {"co2", 1}, {"nadh", 1}},
        0.0, g);
  b.rxn("SUCOAS",
        {{"succoa", -1}, {"adp", -1}, {"pi", -1}, {"succ", 1}, {"atp", 1}, {"coa", 1}},
        -g, g);
  b.rxn("SDH", {{"succ", -1}, {"fad", -1}, {"fum", 1}, {"fadh2", 1}}, 0.0, g);
  b.rxn("FUM", {{"fum", -1}, {"mal", 1}}, -g, g);
  b.rxn("MDH", {{"mal", -1}, {"nad", -1}, {"oaa", 1}, {"nadh", 1}}, -g, g);

  // --- glyoxylate shunt & anaplerosis / gluconeogenesis --------------------
  b.rxn("ICL", {{"icit", -1}, {"succ", 1}, {"glx", 1}}, 0.0, g);
  b.rxn("MALS", {{"glx", -1}, {"accoa", -1}, {"mal", 1}, {"coa", 1}}, 0.0, g);
  b.rxn("PEPCK", {{"oaa", -1}, {"atp", -1}, {"pep", 1}, {"adp", 1}, {"co2", 1}}, 0.0, g);
  b.rxn("PYK", {{"pep", -1}, {"adp", -1}, {"pyr", 1}, {"atp", 1}}, 0.0, g);
  b.rxn("PPS", {{"pyr", -1}, {"atp", -1}, {"pep", 1}, {"adp", 1}, {"pi", 1}}, 0.0, g);
  b.rxn("PDH", {{"pyr", -1}, {"nad", -1}, {"coa", -1}, {"accoa", 1}, {"nadh", 1}, {"co2", 1}},
        0.0, g);
  b.rxn("PC", {{"pyr", -1}, {"co2", -1}, {"atp", -1}, {"oaa", 1}, {"adp", 1}, {"pi", 1}},
        0.0, g);

  // --- respiration: electrons leave on reduced carriers --------------------
  const double yn = spec.atp_per_nadh;
  const double yf = spec.atp_per_fadh2;
  b.rxn("ETC_NADH",
        {{"nadh", -1}, {"adp", -yn}, {"pi", -yn}, {"nad", 1}, {"atp", yn}, {"el", 2}},
        0.0, 250.0);
  b.rxn("ETC_FADH2",
        {{"fadh2", -1}, {"adp", -yf}, {"pi", -yf}, {"fad", 1}, {"atp", yf}, {"el", 2}},
        0.0, 250.0);
  // Electron Production: transfer to the electrode / Fe(III), capacity-capped.
  b.rxn(geobacter_ids::kElectronProduction, {{"el", -1}, {"el_ext", 1}}, 0.0,
        spec.electron_capacity);

  // --- energy bookkeeping ----------------------------------------------------
  b.rxn(geobacter_ids::kAtpMaintenance, {{"atp", -1}, {"adp", 1}, {"pi", 1}},
        spec.atp_maintenance, spec.atp_maintenance);
  b.rxn("ATP_DISS", {{"atp", -1}, {"adp", 1}, {"pi", 1}}, 0.0, 1000.0);

  // --- biomass ---------------------------------------------------------------
  // Precursor demand totals 42.4 mmol C per gDW, calibrated so that the
  // Pareto segment at EP in [158, 161] spans BP ~ [0.283, 0.300] (see
  // DESIGN.md and tests/fba/geobacter_test.cpp).  Redox-neutral by design.
  b.rxn(geobacter_ids::kBiomass,
        {{"accoa", -10.68},
         {"akg", -2.14},
         {"oaa", -1.91},
         {"pep", -1.24},
         {"pyr", -1.43},
         {"atp", -spec.biomass_atp},
         {"adp", spec.biomass_atp},
         {"pi", spec.biomass_atp},
         {"coa", 10.68},
         {"bio", 1}},
        0.0, 10.0);
  b.rxn(geobacter_ids::kBiomassExport, {{"bio", -1}, {"biomass_ext", 1}}, 0.0, 10.0);
  b.rxn("EX_co2", {{"co2", -1}, {"co2_ext", 1}}, 0.0, 1000.0);

  // --- peripheral biosynthesis pathways to genome scale ----------------------
  // Deterministic linear chains: precursor -> p<k>_1 -> ... -> p<k>_L -> export.
  const std::size_t core_count = net.num_reactions();
  assert(core_count < spec.total_reactions);
  const std::size_t remaining = spec.total_reactions - core_count;

  const char* precursors[] = {"pyr", "akg", "oaa", "accoa", "pep", "mal", "succ"};
  constexpr std::size_t kChainLength = 6;  // 5 internal conversions + 1 export
  const std::size_t chains = remaining / kChainLength;
  const std::size_t leftovers = remaining % kChainLength;
  num::Rng rng(spec.seed);

  // Explicit append instead of chained operator+: GCC 12's -Wrestrict
  // false-positive (PR 105651) otherwise fires on the inlined memcpy.
  const auto chain_label = [](const char* prefix, std::size_t k, std::size_t step) {
    std::string s(prefix);
    s += std::to_string(k);
    s += '_';
    s += std::to_string(step);
    return s;
  };

  for (std::size_t k = 0; k < chains; ++k) {
    const std::string precursor = precursors[k % std::size(precursors)];
    std::string prev = precursor;
    for (std::size_t step = 1; step < kChainLength; ++step) {
      const std::string next = chain_label("p", k, step);
      std::vector<std::pair<std::string, double>> stoich = {{prev, -1.0}, {next, 1.0}};
      // Roughly half the steps cost ATP or redox, as biosynthesis does.
      const double coin = rng.uniform();
      if (coin < 0.25) {
        stoich.emplace_back("atp", -1.0);
        stoich.emplace_back("adp", 1.0);
        stoich.emplace_back("pi", 1.0);
      } else if (coin < 0.5) {
        stoich.emplace_back("nadh", -1.0);
        stoich.emplace_back("nad", 1.0);
      }
      b.rxn(chain_label("P", k, step), std::move(stoich), 0.0,
            spec.peripheral_export_bound * 10.0);
      prev = next;
    }
    b.rxn("EX_p" + std::to_string(k), {{prev, -1.0}, {"export_ext", 1.0}}, 0.0,
          spec.peripheral_export_bound);
  }

  // Leftover budget: direct salvage exports from core intermediates.
  for (std::size_t k = 0; k < leftovers; ++k) {
    const std::string precursor = precursors[k % std::size(precursors)];
    b.rxn("EX_salvage" + std::to_string(k), {{precursor, -1.0}, {"export_ext", 1.0}},
          0.0, spec.peripheral_export_bound);
  }

  assert(net.num_reactions() == spec.total_reactions);
  assert(net.orphan_metabolites().empty());
  return net;
}

}  // namespace rmp::fba
