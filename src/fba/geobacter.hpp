// Synthetic Geobacter sulfurreducens genome-scale model with exactly 608
// reactions — the paper's substrate (Mahadevan et al. 2006, iRM588) is not
// redistributable here, so we build a network of the same dimensions whose
// calibrated core reproduces the paper's optimal flux region:
//   * acetate uptake -> activation -> TCA cycle (+ glyoxylate shunt and
//     anaplerosis/gluconeogenesis) with standard redox stoichiometry
//     (8 electrons per acetate fully oxidized);
//   * electron transport chain delivering electrons to an extracellular
//     acceptor (Fe(III)/electrode) with oxidative phosphorylation;
//   * EX_el, the Electron Production flux, capacity-capped by the
//     cytochrome chain (calibrated to the paper's ~161 mmol/gDW/h);
//   * biomass reaction calibrated so that the Pareto trade-off lies at
//     BP ~ 0.283-0.300 for EP ~ 158-161 mmol/gDW/h;
//   * ATP maintenance fixed at 0.45 (the bound the paper highlights);
//   * deterministic peripheral biosynthesis pathways (linear chains ending
//     in small exports) padding the network to genome scale — they carry no
//     flux at the Pareto optima, exactly like the silent majority of a real
//     genome-scale model under a single growth condition.
#pragma once

#include <cstdint>

#include "fba/network.hpp"

namespace rmp::fba {

/// The network's size and its calibrated model constants.
struct GeobacterSpec {
  static constexpr std::size_t total_reactions = 608;  ///< the paper's reaction count
  static constexpr double acetate_uptake_max = 26.1;   ///< mmol/gDW/h
  static constexpr double electron_capacity = 161.0;   ///< cytochrome-chain cap, mmol/gDW/h
  static constexpr double atp_maintenance = 0.45;      ///< fixed flux (paper Section 3.2)
  static constexpr double atp_per_nadh = 0.6;          ///< oxidative phosphorylation yield
  static constexpr double atp_per_fadh2 = 0.3;
  static constexpr double biomass_atp = 45.0;          ///< ATP per gDW
  static constexpr double generic_bound = 30.0;        ///< default |flux| cap on core reactions
  static constexpr double peripheral_export_bound = 0.05;
  static constexpr std::uint64_t seed = 608;           ///< seeds the peripheral generator
};

/// Well-known reaction ids of the calibrated core.
namespace geobacter_ids {
inline constexpr const char* kAcetateUptake = "EX_ac";
inline constexpr const char* kElectronProduction = "EX_el";
inline constexpr const char* kBiomass = "BIOMASS";
inline constexpr const char* kBiomassExport = "EX_biomass";
inline constexpr const char* kAtpMaintenance = "ATPM";
}  // namespace geobacter_ids

/// Builds the synthetic Geobacter network (exactly
/// GeobacterSpec::total_reactions reactions; asserts no orphan metabolites).
[[nodiscard]] MetabolicNetwork build_geobacter();

}  // namespace rmp::fba
