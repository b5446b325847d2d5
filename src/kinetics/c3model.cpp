#include "kinetics/c3model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <mutex>

#include "core/parallel.hpp"
#include "numeric/newton.hpp"
#include "numeric/shooting.hpp"
#include "numeric/workspace.hpp"

namespace rmp::kinetics {

namespace {

/// Simple saturating term x / (x + k).
double mm(double x, double k) { return x / (x + k); }

/// d/dx of mm(x, k).
double dmm(double x, double k) { return k / ((x + k) * (x + k)); }

}  // namespace

C3Model::C3Model(C3Config config)
    : config_(config), warm_pool_(config.warm_pool_capacity) {
  // Solve the wild-type steady state once.  A cold start can transiently
  // drain the autocatalytic cycle in the harsher conditions (low Ci, high
  // export pull), so the solve walks a continuation ladder: first the benign
  // present-day/low-export condition from the textbook initial state, then
  // Ci and the export capacity are moved to their targets one at a time,
  // each rung starting from the previous attractor.
  const num::Vec ones(kNumEnzymes, 1.0);
  const C3Config target = config_;
  thorough_fallback_ = true;  // the one-off natural solve can afford long legs

  // Direct solve at the target condition first.
  natural_ = solve_from(default_initial_state(), ones, /*allow_fallback=*/true);
  if (natural_.converged && natural_.co2_uptake > 0.1) {
    build_anchors();
    thorough_fallback_ = false;
    return;
  }

  config_.ci_ppm = 270.0;
  config_.triose_export_vmax = 1.0;
  natural_ = solve_from(default_initial_state(), ones, /*allow_fallback=*/true);

  // Adaptive continuation of one scenario knob: try the full remaining jump
  // with a Newton-only solve, halving the step whenever the new rung's
  // attractor is out of reach.
  const auto continue_knob = [&](double C3Config::* knob, double target_value) {
    double current = config_.*knob;
    double step = target_value - current;
    while (natural_.converged && current != target_value && std::fabs(step) > 1e-3) {
      config_.*knob = current + step;
      const SteadyState next =
          solve_from(natural_.state, ones, /*allow_fallback=*/false);
      if (next.converged && next.co2_uptake > 0.05) {
        natural_ = next;
        current += step;
        step = target_value - current;
      } else {
        step *= 0.5;
      }
    }
    config_.*knob = target_value;
    if (natural_.converged && current != target_value) {
      // Final (possibly tiny) jump with the fallback enabled.
      natural_ = solve_from(natural_.state, ones, /*allow_fallback=*/true);
    }
  };

  continue_knob(&C3Config::ci_ppm, target.ci_ppm);
  continue_knob(&C3Config::triose_export_vmax, target.triose_export_vmax);
  config_ = target;
  build_anchors();
  thorough_fallback_ = false;
}

void C3Model::build_anchors() {
  anchors_.clear();
  if (!natural_.converged) return;
  anchors_.push_back(natural_.state);
  // Representative partitions spanning the search box; their steady states
  // give Newton a nearby start for down- and up-regulated candidates.
  for (const double level : {0.4, 2.5}) {
    const num::Vec mult(kNumEnzymes, level);
    const SteadyState ss = solve_from(natural_.state, mult, /*allow_fallback=*/true);
    if (ss.converged) anchors_.push_back(ss.state);
  }
}

num::Vec C3Model::default_initial_state() {
  num::Vec y(kNumMetabolites, 0.0);
  y[kRuBP] = 3.0;
  y[kPga] = 2.0;
  y[kDpga] = 0.05;
  y[kT3p] = 1.0;
  y[kFbp] = 0.10;
  y[kE4p] = 0.10;
  y[kSbp] = 0.15;
  y[kS7p] = 0.30;
  y[kPeP] = 0.50;
  y[kHeP] = 2.0;
  y[kPgca] = 0.03;
  y[kGca] = 0.20;
  y[kGoa] = 0.05;
  y[kGly] = 1.0;
  y[kSer] = 0.5;
  y[kHpr] = 0.01;
  y[kGcea] = 0.10;
  y[kAtp] = 1.0;
  y[kT3pc] = 0.30;
  y[kFbpc] = 0.05;
  y[kHePc] = 1.0;
  y[kUdpg] = 0.20;
  y[kSucp] = 0.02;
  y[kF26bp] = 0.003;
  return y;
}

C3Rates C3Model::rates(std::span<const double> y, std::span<const double> mult) const {
  assert(y.size() == kNumMetabolites);
  assert(mult.size() == kNumEnzymes);
  const C3Config& c = config_;
  const auto enz = enzyme_table();
  auto vmax = [&](std::size_t e) { return mult[e] * enz[e].natural_vmax; };

  C3Rates r;

  // Free stromal phosphate from the conserved pool: total minus esterified.
  const double esterified = 2.0 * y[kRuBP] + y[kPga] + 2.0 * y[kDpga] + y[kT3p] +
                            2.0 * y[kFbp] + y[kE4p] + 2.0 * y[kSbp] + y[kS7p] +
                            y[kPeP] + y[kHeP] + y[kPgca] + y[kAtp];
  r.free_pi = std::max(c.stromal_phosphate_total - esterified, c.min_free_pi);

  const double adp = std::max(c.adenylate_total - y[kAtp], 0.0);

  // --- Rubisco: carboxylation and oxygenation compete for RuBP ------------
  const double f_rubp = mm(y[kRuBP], c.km_rubp);
  const double f_co2 = c.ci_ppm / (c.ci_ppm + c.kc_ppm * (1.0 + c.o2_ppm / c.ko_ppm));
  const double f_o2 = c.o2_ppm / (c.o2_ppm + c.ko_ppm * (1.0 + c.ci_ppm / c.kc_ppm));
  r.vc = vmax(kRubisco) * f_co2 * f_rubp;
  r.vo = vmax(kRubisco) * c.vo_vc_capacity_ratio * f_o2 * f_rubp;

  // --- PGA reduction: reversible, near-equilibrium ---------------------------
  // v = V (S1 S2 - P1 P2 / Keq) / ((S1 + K1)(S2 + K2)); the displacement
  // term vanishes at equilibrium so these large-capacity enzymes buffer the
  // sector instead of pumping it dry.
  r.v_pgak = vmax(kPgaKinase) *
             (y[kPga] * y[kAtp] - y[kDpga] * adp / c.keq_pgak) /
             ((y[kPga] + c.km_pga_pgak) * (y[kAtp] + c.km_atp_pgak));
  // NADPH saturating (light-saturated conditions); Pi appears as product.
  r.v_gapdh = vmax(kGapDh) *
              (y[kDpga] - y[kT3p] * r.free_pi / c.keq_gapdh) /
              (y[kDpga] + c.km_dpga_gapdh);

  // --- Calvin cycle regeneration -------------------------------------------
  // Rate laws act on the equilibrium pools directly; the GAP/DHAP (and
  // F6P/G6P/G1P, Ru5P/Xu5P/Ri5P) splits are folded into effective Kms.
  const double f6p = c.frac_f6p_hep * y[kHeP];
  const double g1p = c.frac_g1p_hep * y[kHeP];
  const double ru5p = c.frac_ru5p_pep * y[kPeP];

  // FBP aldolase: condensation with product inhibition by FBP.
  r.v_fbpald = vmax(kFbpAldolase) * mm(y[kT3p], c.km_t3p_ald) *
               mm(y[kT3p], c.km_t3p_ald) / (1.0 + y[kFbp] / c.km_fbp_ald_rev);
  r.v_fbpase = vmax(kFbpase) * mm(y[kFbp], c.km_fbp_fbpase);
  r.v_tk1 = vmax(kTransketolase) * mm(f6p, c.km_f6p_tk) * mm(y[kT3p], c.km_t3p_tk);
  r.v_tk2 =
      vmax(kTransketolase) * mm(y[kS7p], c.km_s7p_tk) * mm(y[kT3p], c.km_t3p_tk);
  r.v_sbpald =
      vmax(kSbpAldolase) * mm(y[kE4p], c.km_e4p_sald) * mm(y[kT3p], c.km_t3p_sald);
  r.v_sbpase = vmax(kSbpase) * mm(y[kSbp], c.km_sbp_sbpase);
  // PRK with competitive PGA inhibition.
  r.v_prk = vmax(kPrk) * ru5p /
            (ru5p + c.km_ru5p_prk * (1.0 + y[kPga] / c.ki_pga_prk)) *
            mm(y[kAtp], c.km_atp_prk);

  // --- starch synthesis: allosterically controlled by the PGA/Pi ratio -------
  // (the physiological overflow valve: carbon goes to starch when phosphate
  // is being sequestered in PGA).
  const double pga_pi_ratio = y[kPga] / std::max(r.free_pi, c.min_free_pi);
  const double ratio_sq = pga_pi_ratio * pga_pi_ratio;
  const double starch_act =
      ratio_sq / (ratio_sq + c.ka_pga_adpgpp * c.ka_pga_adpgpp);
  r.v_starch = vmax(kAdpgpp) * mm(g1p, c.km_g1p_adpgpp) * mm(y[kAtp], 0.3) *
               starch_act;

  // --- photorespiration -------------------------------------------------------
  r.v_pgcapase = vmax(kPgcaPase) * mm(y[kPgca], c.km_pgca);
  r.v_goaox = vmax(kGoaOxidase) * mm(y[kGca], c.km_gca);
  r.v_ggat = vmax(kGgat) * mm(y[kGoa], c.km_goa_ggat);
  r.v_gsat =
      vmax(kGsat) * mm(y[kGoa], c.km_goa_gsat) * mm(y[kSer], c.km_ser_gsat);
  r.v_gdc = vmax(kGdc) * mm(y[kGly], c.km_gly_gdc);
  r.v_hpr = vmax(kHprReductase) * mm(y[kHpr], c.km_hpr);
  r.v_gceak =
      vmax(kGceaKinase) * mm(y[kGcea], c.km_gcea) * mm(y[kAtp], c.km_atp_gceak);

  // --- export through the Pi translocator ------------------------------------
  // T3P and PGA compete for the same carrier capacity; the antiport runs on
  // free cytosolic Pi, so a congested cytosol (sucrose path saturated)
  // throttles export — the sink-limitation feedback.
  const double esterified_cyt = y[kT3pc] + 2.0 * y[kFbpc] + y[kHePc] +
                                2.0 * y[kUdpg] + y[kSucp] + 2.0 * y[kF26bp];
  r.free_pi_cyt =
      std::max(c.cytosolic_phosphate_total - esterified_cyt, c.min_free_pi);
  // Both carrier legs are cooperative (Hill-2): export vanishes quadratically
  // when the stromal pools are lean (the cycle keeps its carbon — no
  // collapse) and engages strongly when they are replete (no phosphate
  // swamp).  The antiport itself needs free cytosolic Pi (Hill-2 as well),
  // which is how a congested cytosol throttles export.
  const double t3p_leg = (y[kT3p] / c.km_t3p_export) * (y[kT3p] / c.km_t3p_export);
  const double pga_leg =
      (y[kPga] / c.km_pga_export) * (y[kPga] / c.km_pga_export);
  const double carrier_load = 1.0 + t3p_leg + pga_leg;
  const double pi_term = mm(r.free_pi_cyt, c.km_pi_cyt_export);
  const double antiport =
      c.triose_export_vmax * pi_term * pi_term / carrier_load;
  r.v_export = antiport * t3p_leg;
  r.v_export_pga = antiport * pga_leg;

  // --- cytosolic sucrose synthesis -------------------------------------------
  const double f6pc = c.frac_f6p_hep * y[kHePc];
  const double g1pc = c.frac_g1p_hep * y[kHePc];
  r.v_cfbpald =
      vmax(kCytFbpAldolase) * mm(y[kT3pc], c.km_t3pc_ald) * mm(y[kT3pc], c.km_t3pc_ald);
  // Cytosolic FBPase: strongly inhibited by the F26BP regulator.
  r.v_cfbpase = vmax(kCytFbpase) * y[kFbpc] /
                (y[kFbpc] + c.km_fbpc_fbpase * (1.0 + y[kF26bp] / c.ki_f26bp_fbpase));
  r.v_udpgp = vmax(kUdpgp) * mm(g1pc, c.km_hepc_udpgp);
  r.v_sps = vmax(kSps) * mm(y[kUdpg], c.km_udpg_sps) * mm(f6pc, c.km_hepc_sps);
  r.v_spp = vmax(kSpp) * mm(y[kSucp], c.km_sucp_spp);
  r.v_f26bpase = vmax(kF26bpase) * mm(y[kF26bp], c.km_f26bp_f26bpase);
  r.v_f26bp_syn = c.f26bp_synthesis_rate * mm(f6pc, c.km_hepc_f26bpsyn);

  // --- ATP regeneration by the (light-saturated) thylakoid reactions ---------
  r.v_atpsyn = c.atp_synthesis_vmax * mm(adp, c.km_adp_atpsyn) *
               mm(r.free_pi, c.km_pi_atpsyn);

  return r;
}

void C3Model::derivatives(std::span<const double> y, std::span<const double> mult,
                          num::Vec& dydt) const {
  const C3Rates r = rates(y, mult);
  dydt.assign(kNumMetabolites, 0.0);

  dydt[kRuBP] = r.v_prk - r.vc - r.vo;
  dydt[kPga] = 2.0 * r.vc + r.vo + r.v_gceak - r.v_pgak - r.v_export_pga;
  dydt[kDpga] = r.v_pgak - r.v_gapdh;
  dydt[kT3p] = r.v_gapdh - 2.0 * r.v_fbpald - r.v_tk1 - r.v_tk2 - r.v_sbpald -
               r.v_export;
  dydt[kFbp] = r.v_fbpald - r.v_fbpase;
  dydt[kE4p] = r.v_tk1 - r.v_sbpald;
  dydt[kSbp] = r.v_sbpald - r.v_sbpase;
  dydt[kS7p] = r.v_sbpase - r.v_tk2;
  dydt[kPeP] = r.v_tk1 + 2.0 * r.v_tk2 - r.v_prk;
  dydt[kHeP] = r.v_fbpase - r.v_tk1 - r.v_starch;
  dydt[kPgca] = r.vo - r.v_pgcapase;
  dydt[kGca] = r.v_pgcapase - r.v_goaox;
  dydt[kGoa] = r.v_goaox - r.v_ggat - r.v_gsat;
  dydt[kGly] = r.v_ggat + r.v_gsat - 2.0 * r.v_gdc;
  dydt[kSer] = r.v_gdc - r.v_gsat;
  dydt[kHpr] = r.v_gsat - r.v_hpr;
  dydt[kGcea] = r.v_hpr - r.v_gceak;
  dydt[kAtp] = r.v_atpsyn - r.v_pgak - r.v_prk - r.v_gceak - r.v_starch;
  // Exported PGA enters the cytosolic triose pool as a C3 equivalent (its
  // glycolytic conversion is not modeled separately).
  dydt[kT3pc] = r.v_export + r.v_export_pga - 2.0 * r.v_cfbpald;
  dydt[kFbpc] = r.v_cfbpald - r.v_cfbpase;
  dydt[kHePc] = r.v_cfbpase + r.v_f26bpase - r.v_udpgp - r.v_sps - r.v_f26bp_syn;
  dydt[kUdpg] = r.v_udpgp - r.v_sps;
  dydt[kSucp] = r.v_sps - r.v_spp;
  dydt[kF26bp] = r.v_f26bp_syn - r.v_f26bpase;
}

double C3Model::co2_uptake(std::span<const double> y,
                           std::span<const double> mult) const {
  const C3Rates r = rates(y, mult);
  return config_.uptake_area_scale * (r.vc - r.v_gdc);
}

namespace {

/// A metabolite's weight in a conserved-phosphate pool (phosphate groups per
/// molecule) — the chain-rule fan-out of the free-Pi terms.
struct PoolTerm {
  std::size_t idx;
  double w;
};

/// Esterified stromal phosphate, mirroring the sum in rates().
constexpr PoolTerm kStromalEster[] = {
    {kRuBP, 2.0}, {kPga, 1.0}, {kDpga, 2.0}, {kT3p, 1.0},
    {kFbp, 2.0},  {kE4p, 1.0}, {kSbp, 2.0},  {kS7p, 1.0},
    {kPeP, 1.0},  {kHeP, 1.0}, {kPgca, 1.0}, {kAtp, 1.0}};

/// Esterified cytosolic phosphate, mirroring the sum in rates().
constexpr PoolTerm kCytosolEster[] = {{kT3pc, 1.0}, {kFbpc, 2.0},
                                      {kHePc, 1.0}, {kUdpg, 2.0},
                                      {kSucp, 1.0}, {kF26bp, 2.0}};

}  // namespace

// The closed-form Jacobian.  Every rate law in rates() is a rational
// function of a few states plus (for the stromal sector) the free-phosphate
// pool, itself an affine function of twelve states — so each rate
// contributes a small dense gradient, scattered into the matrix through the
// same stoichiometry derivatives() uses.  The clamps (free Pi at
// min_free_pi, ADP at 0) contribute zero derivative on their clamped branch;
// the kinks are measure-zero and the solver's backtracking tolerates them.
// Any edit to rates()/derivatives() must be mirrored here — the randomized
// FD-vs-analytic differential test in tests/kinetics/c3model_test.cpp fails
// loudly on divergence of any entry.
void C3Model::jacobian_at(std::span<const double> y, std::span<const double> mult,
                          num::Matrix& jac) const {
  assert(y.size() == kNumMetabolites);
  assert(mult.size() == kNumEnzymes);
  const C3Config& c = config_;
  const auto enz = enzyme_table();
  auto vmax = [&](std::size_t e) { return mult[e] * enz[e].natural_vmax; };

  if (jac.rows() != kNumMetabolites || jac.cols() != kNumMetabolites) {
    jac = num::Matrix(kNumMetabolites, kNumMetabolites);
  } else {
    std::fill(jac.data().begin(), jac.data().end(), 0.0);
  }

  // --- conserved pools and their (clamped) sensitivities -------------------
  double esterified = 0.0;
  for (const PoolTerm& t : kStromalEster) esterified += t.w * y[t.idx];
  const double fp_raw = c.stromal_phosphate_total - esterified;
  const bool fp_clamped = fp_raw < c.min_free_pi;
  const double fp = fp_clamped ? c.min_free_pi : fp_raw;
  // dfp/dy[t.idx] = fp_clamped ? 0 : -t.w

  double esterified_cyt = 0.0;
  for (const PoolTerm& t : kCytosolEster) esterified_cyt += t.w * y[t.idx];
  const double fpc_raw = c.cytosolic_phosphate_total - esterified_cyt;
  const bool fpc_clamped = fpc_raw < c.min_free_pi;
  const double fpc = fpc_clamped ? c.min_free_pi : fpc_raw;

  const double adp = std::max(c.adenylate_total - y[kAtp], 0.0);
  const double dadp_datp = y[kAtp] >= c.adenylate_total ? 0.0 : -1.0;

  // --- Rubisco -------------------------------------------------------------
  const double f_co2 = c.ci_ppm / (c.ci_ppm + c.kc_ppm * (1.0 + c.o2_ppm / c.ko_ppm));
  const double f_o2 = c.o2_ppm / (c.o2_ppm + c.ko_ppm * (1.0 + c.ci_ppm / c.kc_ppm));
  const double df_rubp = dmm(y[kRuBP], c.km_rubp);
  const double dvc = vmax(kRubisco) * f_co2 * df_rubp;
  const double dvo = vmax(kRubisco) * c.vo_vc_capacity_ratio * f_o2 * df_rubp;
  // vc rows: -RuBP, +2 PGA;  vo rows: -RuBP, +PGA, +PGCA.
  jac(kRuBP, kRuBP) += -dvc - dvo;
  jac(kPga, kRuBP) += 2.0 * dvc + dvo;
  jac(kPgca, kRuBP) += dvo;

  // --- PGA kinase (reversible): v = V (PGA ATP - DPGA ADP / Keq) / D ------
  {
    const double v = vmax(kPgaKinase);
    const double n = y[kPga] * y[kAtp] - y[kDpga] * adp / c.keq_pgak;
    const double d = (y[kPga] + c.km_pga_pgak) * (y[kAtp] + c.km_atp_pgak);
    const double inv_d2 = 1.0 / (d * d);
    const double dn_dpga = y[kAtp];
    const double dn_ddpga = -adp / c.keq_pgak;
    const double dn_datp = y[kPga] - y[kDpga] * dadp_datp / c.keq_pgak;
    const double dd_dpga = y[kAtp] + c.km_atp_pgak;
    const double dd_datp = y[kPga] + c.km_pga_pgak;
    const double g_pga = v * (dn_dpga * d - n * dd_dpga) * inv_d2;
    const double g_dpga = v * dn_ddpga / d;
    const double g_atp = v * (dn_datp * d - n * dd_datp) * inv_d2;
    // rows: -PGA, +DPGA, -ATP.
    jac(kPga, kPga) -= g_pga;
    jac(kPga, kDpga) -= g_dpga;
    jac(kPga, kAtp) -= g_atp;
    jac(kDpga, kPga) += g_pga;
    jac(kDpga, kDpga) += g_dpga;
    jac(kDpga, kAtp) += g_atp;
    jac(kAtp, kPga) -= g_pga;
    jac(kAtp, kDpga) -= g_dpga;
    jac(kAtp, kAtp) -= g_atp;
  }

  // --- GAPDH (reversible, Pi as product): v = V (DPGA - T3P fp / Keq) / D --
  {
    const double v = vmax(kGapDh);
    const double n = y[kDpga] - y[kT3p] * fp / c.keq_gapdh;
    const double d = y[kDpga] + c.km_dpga_gapdh;
    const double inv_d2 = 1.0 / (d * d);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kDpga, col) -= g;
      jac(kT3p, col) += g;
    };
    // Chain through fp for every esterified state.
    if (!fp_clamped) {
      const double coeff = y[kT3p] / c.keq_gapdh;  // -dN/dfp
      for (const PoolTerm& t : kStromalEster) {
        scatter(t.idx, v * (coeff * t.w) / d);  // dN = -coeff * dfp = +coeff*w
      }
    }
    // Direct parts.
    scatter(kT3p, v * (-fp / c.keq_gapdh) / d);
    scatter(kDpga, v * (1.0 * d - n * 1.0) * inv_d2);
  }

  // --- Calvin regeneration -------------------------------------------------
  const double f6p = c.frac_f6p_hep * y[kHeP];
  const double g1p = c.frac_g1p_hep * y[kHeP];
  const double ru5p = c.frac_ru5p_pep * y[kPeP];

  {  // FBP aldolase: v = V mm(T3P)^2 / (1 + FBP/Krev); rows -2 T3P, +FBP.
    const double m = mm(y[kT3p], c.km_t3p_ald);
    const double denom = 1.0 + y[kFbp] / c.km_fbp_ald_rev;
    const double g_t3p = vmax(kFbpAldolase) * 2.0 * m * dmm(y[kT3p], c.km_t3p_ald) / denom;
    const double g_fbp =
        -vmax(kFbpAldolase) * m * m / (denom * denom * c.km_fbp_ald_rev);
    jac(kT3p, kT3p) -= 2.0 * g_t3p;
    jac(kT3p, kFbp) -= 2.0 * g_fbp;
    jac(kFbp, kT3p) += g_t3p;
    jac(kFbp, kFbp) += g_fbp;
  }
  {  // FBPase: rows -FBP, +HeP.
    const double g = vmax(kFbpase) * dmm(y[kFbp], c.km_fbp_fbpase);
    jac(kFbp, kFbp) -= g;
    jac(kHeP, kFbp) += g;
  }
  {  // TK1 (F6P + T3P): rows -T3P, +E4P, +PeP, -HeP.
    const double g_hep =
        vmax(kTransketolase) * dmm(f6p, c.km_f6p_tk) * c.frac_f6p_hep * mm(y[kT3p], c.km_t3p_tk);
    const double g_t3p =
        vmax(kTransketolase) * mm(f6p, c.km_f6p_tk) * dmm(y[kT3p], c.km_t3p_tk);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kT3p, col) -= g;
      jac(kE4p, col) += g;
      jac(kPeP, col) += g;
      jac(kHeP, col) -= g;
    };
    scatter(kHeP, g_hep);
    scatter(kT3p, g_t3p);
  }
  {  // TK2 (S7P + T3P): rows -T3P, -S7P, +2 PeP.
    const double g_s7p =
        vmax(kTransketolase) * dmm(y[kS7p], c.km_s7p_tk) * mm(y[kT3p], c.km_t3p_tk);
    const double g_t3p =
        vmax(kTransketolase) * mm(y[kS7p], c.km_s7p_tk) * dmm(y[kT3p], c.km_t3p_tk);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kT3p, col) -= g;
      jac(kS7p, col) -= g;
      jac(kPeP, col) += 2.0 * g;
    };
    scatter(kS7p, g_s7p);
    scatter(kT3p, g_t3p);
  }
  {  // SBP aldolase (E4P + T3P): rows -T3P, -E4P, +SBP.
    const double g_e4p =
        vmax(kSbpAldolase) * dmm(y[kE4p], c.km_e4p_sald) * mm(y[kT3p], c.km_t3p_sald);
    const double g_t3p =
        vmax(kSbpAldolase) * mm(y[kE4p], c.km_e4p_sald) * dmm(y[kT3p], c.km_t3p_sald);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kT3p, col) -= g;
      jac(kE4p, col) -= g;
      jac(kSbp, col) += g;
    };
    scatter(kE4p, g_e4p);
    scatter(kT3p, g_t3p);
  }
  {  // SBPase: rows -SBP, +S7P.
    const double g = vmax(kSbpase) * dmm(y[kSbp], c.km_sbp_sbpase);
    jac(kSbp, kSbp) -= g;
    jac(kS7p, kSbp) += g;
  }
  {  // PRK with competitive PGA inhibition: rows +RuBP, -PeP, -ATP.
    const double b = c.km_ru5p_prk * (1.0 + y[kPga] / c.ki_pga_prk);
    const double denom = ru5p + b;
    const double inv_denom2 = 1.0 / (denom * denom);
    const double u = ru5p / denom;
    const double m_atp = mm(y[kAtp], c.km_atp_prk);
    const double g_pep =
        vmax(kPrk) * m_atp * (b * inv_denom2) * c.frac_ru5p_pep;
    const double g_pga = vmax(kPrk) * m_atp *
                         (-ru5p * c.km_ru5p_prk / c.ki_pga_prk * inv_denom2);
    const double g_atp = vmax(kPrk) * u * dmm(y[kAtp], c.km_atp_prk);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kRuBP, col) += g;
      jac(kPeP, col) -= g;
      jac(kAtp, col) -= g;
    };
    scatter(kPeP, g_pep);
    scatter(kPga, g_pga);
    scatter(kAtp, g_atp);
  }

  // --- starch (ADPGPP, PGA/Pi-activated): rows -HeP, -ATP -------------------
  {
    const double rho = y[kPga] / std::max(fp, c.min_free_pi);
    const double rho2 = rho * rho;
    const double ka2 = c.ka_pga_adpgpp * c.ka_pga_adpgpp;
    const double act = rho2 / (rho2 + ka2);
    const double dact_drho = 2.0 * rho * ka2 / ((rho2 + ka2) * (rho2 + ka2));
    const double base = vmax(kAdpgpp) * mm(g1p, c.km_g1p_adpgpp) * mm(y[kAtp], 0.3);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kHeP, col) -= g;
      jac(kAtp, col) -= g;
    };
    // Direct MM parts.
    scatter(kHeP, vmax(kAdpgpp) * dmm(g1p, c.km_g1p_adpgpp) * c.frac_g1p_hep *
                      mm(y[kAtp], 0.3) * act);
    scatter(kAtp, vmax(kAdpgpp) * mm(g1p, c.km_g1p_adpgpp) * dmm(y[kAtp], 0.3) * act);
    // Activation via rho = PGA / fp: direct PGA numerator ...
    scatter(kPga, base * dact_drho / fp);
    // ... and the fp chain (sequestration RAISES rho): drho = -rho dfp / fp.
    if (!fp_clamped) {
      for (const PoolTerm& t : kStromalEster) {
        scatter(t.idx, base * dact_drho * (rho * t.w / fp));
      }
    }
  }

  // --- photorespiration ------------------------------------------------------
  {  // PGCA phosphatase: rows -PGCA, +GCA.
    const double g = vmax(kPgcaPase) * dmm(y[kPgca], c.km_pgca);
    jac(kPgca, kPgca) -= g;
    jac(kGca, kPgca) += g;
  }
  {  // glycolate oxidase: rows -GCA, +GOA.
    const double g = vmax(kGoaOxidase) * dmm(y[kGca], c.km_gca);
    jac(kGca, kGca) -= g;
    jac(kGoa, kGca) += g;
  }
  {  // GGAT: rows -GOA, +GLY.
    const double g = vmax(kGgat) * dmm(y[kGoa], c.km_goa_ggat);
    jac(kGoa, kGoa) -= g;
    jac(kGly, kGoa) += g;
  }
  {  // GSAT (GOA + SER): rows -GOA, +GLY, -SER, +HPR.
    const double g_goa =
        vmax(kGsat) * dmm(y[kGoa], c.km_goa_gsat) * mm(y[kSer], c.km_ser_gsat);
    const double g_ser =
        vmax(kGsat) * mm(y[kGoa], c.km_goa_gsat) * dmm(y[kSer], c.km_ser_gsat);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kGoa, col) -= g;
      jac(kGly, col) += g;
      jac(kSer, col) -= g;
      jac(kHpr, col) += g;
    };
    scatter(kGoa, g_goa);
    scatter(kSer, g_ser);
  }
  {  // GDC: rows -2 GLY, +SER.
    const double g = vmax(kGdc) * dmm(y[kGly], c.km_gly_gdc);
    jac(kGly, kGly) -= 2.0 * g;
    jac(kSer, kGly) += g;
  }
  {  // HPR reductase: rows -HPR, +GCEA.
    const double g = vmax(kHprReductase) * dmm(y[kHpr], c.km_hpr);
    jac(kHpr, kHpr) -= g;
    jac(kGcea, kHpr) += g;
  }
  {  // glycerate kinase: rows -GCEA, +PGA, -ATP.
    const double g_gcea =
        vmax(kGceaKinase) * dmm(y[kGcea], c.km_gcea) * mm(y[kAtp], c.km_atp_gceak);
    const double g_atp =
        vmax(kGceaKinase) * mm(y[kGcea], c.km_gcea) * dmm(y[kAtp], c.km_atp_gceak);
    const auto scatter = [&](std::size_t col, double g) {
      jac(kGcea, col) -= g;
      jac(kPga, col) += g;
      jac(kAtp, col) -= g;
    };
    scatter(kGcea, g_gcea);
    scatter(kAtp, g_atp);
  }

  // --- Pi-translocator export (T3P and PGA legs share the carrier) ----------
  {
    const double t3p_leg = (y[kT3p] / c.km_t3p_export) * (y[kT3p] / c.km_t3p_export);
    const double pga_leg = (y[kPga] / c.km_pga_export) * (y[kPga] / c.km_pga_export);
    const double dtleg = 2.0 * y[kT3p] / (c.km_t3p_export * c.km_t3p_export);
    const double dpleg = 2.0 * y[kPga] / (c.km_pga_export * c.km_pga_export);
    const double load = 1.0 + t3p_leg + pga_leg;
    const double pi_term = mm(fpc, c.km_pi_cyt_export);
    const double antiport = c.triose_export_vmax * pi_term * pi_term / load;
    // dA/d(load-bearing state) and dA/d(cytosolic ester) pieces.
    const double dA_dtleg = -antiport / load;  // = -Vex p^2 / load^2
    const double dA_dpleg = dA_dtleg;
    const auto scatter = [&](std::size_t col, double g_exp, double g_pga) {
      jac(kT3p, col) -= g_exp;
      jac(kPga, col) -= g_pga;
      jac(kT3pc, col) += g_exp + g_pga;
    };
    // v_export = A tleg; v_export_pga = A pleg.
    scatter(kT3p, dA_dtleg * dtleg * t3p_leg + antiport * dtleg,
            dA_dtleg * dtleg * pga_leg);
    scatter(kPga, dA_dpleg * dpleg * t3p_leg,
            dA_dpleg * dpleg * pga_leg + antiport * dpleg);
    if (!fpc_clamped) {
      const double dp = dmm(fpc, c.km_pi_cyt_export);
      for (const PoolTerm& t : kCytosolEster) {
        // dA = Vex 2 p dp dfpc / load, with dfpc = -w.
        const double dA =
            -c.triose_export_vmax * 2.0 * pi_term * dp * t.w / load;
        scatter(t.idx, dA * t3p_leg, dA * pga_leg);
      }
    }
  }

  // --- cytosolic sucrose path ------------------------------------------------
  const double f6pc = c.frac_f6p_hep * y[kHePc];
  const double g1pc = c.frac_g1p_hep * y[kHePc];
  {  // cytosolic aldolase: v = V mm(T3Pc)^2; rows -2 T3Pc, +FBPc.
    const double m = mm(y[kT3pc], c.km_t3pc_ald);
    const double g = vmax(kCytFbpAldolase) * 2.0 * m * dmm(y[kT3pc], c.km_t3pc_ald);
    jac(kT3pc, kT3pc) -= 2.0 * g;
    jac(kFbpc, kT3pc) += g;
  }
  {  // cytosolic FBPase, F26BP-inhibited: rows -FBPc, +HePc.
    const double b = c.km_fbpc_fbpase * (1.0 + y[kF26bp] / c.ki_f26bp_fbpase);
    const double denom = y[kFbpc] + b;
    const double inv_denom2 = 1.0 / (denom * denom);
    const double g_fbpc = vmax(kCytFbpase) * b * inv_denom2;
    const double g_f26 = -vmax(kCytFbpase) * y[kFbpc] *
                         (c.km_fbpc_fbpase / c.ki_f26bp_fbpase) * inv_denom2;
    jac(kFbpc, kFbpc) -= g_fbpc;
    jac(kFbpc, kF26bp) -= g_f26;
    jac(kHePc, kFbpc) += g_fbpc;
    jac(kHePc, kF26bp) += g_f26;
  }
  {  // UDPGP: rows -HePc, +UDPG.
    const double g = vmax(kUdpgp) * dmm(g1pc, c.km_hepc_udpgp) * c.frac_g1p_hep;
    jac(kHePc, kHePc) -= g;
    jac(kUdpg, kHePc) += g;
  }
  {  // SPS (UDPG + F6Pc): rows -HePc, -UDPG, +SUCP.
    const double g_udpg =
        vmax(kSps) * dmm(y[kUdpg], c.km_udpg_sps) * mm(f6pc, c.km_hepc_sps);
    const double g_hepc = vmax(kSps) * mm(y[kUdpg], c.km_udpg_sps) *
                          dmm(f6pc, c.km_hepc_sps) * c.frac_f6p_hep;
    const auto scatter = [&](std::size_t col, double g) {
      jac(kHePc, col) -= g;
      jac(kUdpg, col) -= g;
      jac(kSucp, col) += g;
    };
    scatter(kUdpg, g_udpg);
    scatter(kHePc, g_hepc);
  }
  {  // SPP: row -SUCP (sucrose leaves the modeled system).
    jac(kSucp, kSucp) -= vmax(kSpp) * dmm(y[kSucp], c.km_sucp_spp);
  }
  {  // F26BPase: rows -F26BP, +HePc.
    const double g = vmax(kF26bpase) * dmm(y[kF26bp], c.km_f26bp_f26bpase);
    jac(kF26bp, kF26bp) -= g;
    jac(kHePc, kF26bp) += g;
  }
  {  // F26BP synthesis: rows +F26BP, -HePc.
    const double g =
        c.f26bp_synthesis_rate * dmm(f6pc, c.km_hepc_f26bpsyn) * c.frac_f6p_hep;
    jac(kF26bp, kHePc) += g;
    jac(kHePc, kHePc) -= g;
  }

  // --- ATP synthase: v = C mm(ADP) mm(fp); row +ATP --------------------------
  {
    const double g_atp = c.atp_synthesis_vmax * dmm(adp, c.km_adp_atpsyn) *
                         dadp_datp * mm(fp, c.km_pi_atpsyn);
    jac(kAtp, kAtp) += g_atp;
    if (!fp_clamped) {
      const double coeff =
          c.atp_synthesis_vmax * mm(adp, c.km_adp_atpsyn) * dmm(fp, c.km_pi_atpsyn);
      for (const PoolTerm& t : kStromalEster) {
        jac(kAtp, t.idx) += coeff * (-t.w);
      }
    }
  }
}

void C3Model::derivatives_and_jacobian(std::span<const double> y,
                                       std::span<const double> mult,
                                       num::Vec& dydt, num::Matrix& jac) const {
  derivatives(y, mult, dydt);
  jacobian_at(y, mult, jac);
}

namespace {

/// A converged Newton root must also be physically meaningful: finite,
/// non-negative, and inside the conserved-pool budgets.  (The dead state has
/// a one-parameter family of roots with arbitrary ATP because all consumers
/// vanish; those are rejected here.)
bool physical_state(std::span<const double> y, const C3Config& c) {
  if (!num::all_finite(y)) return false;
  for (double v : y) {
    if (v < -1e-9) return false;
  }
  return y[kAtp] <= c.adenylate_total + 1e-6;
}

/// Uptake above which a root/cycle counts as a LIVING solution (see
/// steady_state's ladder; shared with the exact-cycle short circuit so a
/// pooled cycle is only returned directly when the original call returned it).
constexpr double kAliveUptake = 0.5;

/// Chord-Newton: iterations that may reuse one LU factorization before a
/// mandatory refresh.  Stalls and damping collapses refresh earlier; see
/// num::NewtonOptions.
constexpr std::size_t kChordMaxAge = 8;

/// Residual tolerance of the steady-state ladder's Newton and PTC solves.
/// Rate magnitudes are O(10) mmol/l/s; a residual of 2e-3 is already ~4
/// orders below the fluxes of interest.
constexpr double kNewtonTolerance = 2e-3;

/// Concentration floor of the ladder's Newton/PTC iterates and of the
/// tangent-extrapolated warm start: metabolite pools stay strictly positive.
constexpr double kStateFloor = 1e-12;

/// Fast-remainder gate of the cycle path's aligned residual split (see
/// cycle_shooting_options for how it is sized).
constexpr double kShotTolerance = 2e-4;

/// PTC's initial pseudo-timestep when plain Newton fails from the start.
constexpr double kPtcInitialTimestep = 0.5;

/// Damped-Newton options of the steady-state ladder (solve_from's Newton,
/// PTC and polishes, quick_attempt's warm start), on the flow's analytic
/// Jacobian.
num::NewtonOptions steady_newton_options(num::JacobianFn jacobian,
                                         std::size_t max_iterations) {
  num::NewtonOptions nopts;
  nopts.max_iterations = max_iterations;
  nopts.tolerance = kNewtonTolerance;
  nopts.state_floor = kStateFloor;
  nopts.chord_max_age = kChordMaxAge;
  nopts.jacobian = jacobian;
  return nopts;
}

/// Shooting options of the cycle path (the flow-map integrator without its
/// Jacobian: callers attach their own named Jacobian callable).
num::ShootingOptions cycle_shooting_options() {
  num::ShootingOptions sopts;
  // The third-order Rosenbrock rides the stiff orbit at a fraction of the
  // step-doubling ROW2 cost; tolerances match the windowed fallback — the
  // drift-tolerant acceptance below budgets a per-period family migration
  // of order 1 mmol/l, so flights resolved to ~1e-2 absolute are already an
  // order of magnitude inside the quantity being measured, and each decade
  // of extra tolerance costs ~2x the steps on a 3rd-order method.  This is
  // where the shooting path earns its speed: ~3 one-period flights plus a
  // one-period averaging pass against the windowed fallback's ~18 periods
  // at the SAME per-step cost.
  sopts.ode.method = num::OdeMethod::kRosenbrock3;
  sopts.ode.abs_tol = 1e-6;
  sopts.ode.rel_tol = 1e-4;
  sopts.ode.initial_step = 1e-3;
  sopts.ode.state_floor = 0.0;
  sopts.ode.max_step = 20.0;
  // The solver's default drift budget (0.05 of the state scale) is what
  // this model needs: its oscillatory shell has NO isolated limit cycle.
  // Serine accumulates as a near-conserved photorespiratory pool, so the
  // orbit drifts along a one-parameter family of pseudo-cycles, and the
  // accepted phase-aligned snapshot of the current one has the same
  // semantics as the windowed average it replaces, which is equally a
  // snapshot of that drift.
  // Each aligned round is one PLAIN period flight, and doubles as
  // relaxation — the fast modes contract every round — so a generous cap
  // is the cheap choice: a warm restart from a far-away pooled anchor that
  // needs 10-12 rounds still costs a fraction of timing out into the cold
  // bootstrap (a 400-unit transient plus a 240-unit period scan) it would
  // otherwise trigger.
  sopts.max_iterations = 16;
  // Fast-remainder gate for the aligned residual split: kShotTolerance *
  // scale ~ 0.3 mmol/l.  Two forces size it.  Downward pressure is answer
  // quality — a snapshot whose fast modes still carry eps contaminates the
  // cycle average by O(eps), and the differential harness holds shooting-
  // vs-window agreement to ~1 mmol/l absolute, so 0.3 stays comfortably
  // inside.  Upward pressure is the fast contraction rate: candidates sit
  // near the Hopf shell where the radial multiplier is only ~0.5/period,
  // so each decade of extra strictness costs 3-4 more full-period rounds
  // on every warm restart (measured: a 3e-2 gate pushed warm solves to
  // 4-8 rounds and timed a third of them out into the cold path, erasing
  // the shooting advantage outright).
  sopts.tolerance = kShotTolerance;
  return sopts;
}

}  // namespace

SteadyState C3Model::solve_from(std::span<const double> start,
                                std::span<const double> mult,
                                bool allow_fallback) const {
  const Flow flow{*this, mult};
  const num::NonlinearSystem system = flow;
  const num::NewtonOptions nopts = steady_newton_options(flow, 60);

  SteadyState ss;
  const auto tally = [&ss](const num::NewtonResult& r) {
    ss.newton_iterations += r.iterations;
    ss.rhs_evaluations += r.rhs_evaluations;
    ss.jacobian_factorizations += r.jacobian_factorizations;
  };
  num::NewtonResult newton = num::solve_newton(system, start, nopts);
  tally(newton);
  bool accepted = newton.converged && physical_state(newton.x, config_);

  if (!accepted) {
    // Plain Newton's line search stalls on this system for starts outside
    // the immediate basin; pseudo-transient continuation is globally robust
    // at the same per-iteration cost.
    num::PtcOptions popts;
    popts.max_iterations = 150;
    popts.tolerance = nopts.tolerance;
    popts.state_floor = nopts.state_floor;
    popts.initial_timestep = kPtcInitialTimestep;
    popts.jacobian = nopts.jacobian;
    popts.chord_max_age = nopts.chord_max_age;
    num::NewtonResult ptc = num::solve_pseudo_transient(system, start, popts);
    tally(ptc);
    if (!ptc.converged && ptc.residual_norm < 1.0) {
      // PTC rode the transient into the fixed point's neighbourhood; plain
      // Newton closes the remaining digits.
      num::NewtonResult polish = num::solve_newton(system, ptc.x, nopts);
      tally(polish);
      if (polish.converged) ptc = std::move(polish);
    }
    if (ptc.converged && physical_state(ptc.x, config_)) {
      newton = std::move(ptc);
      accepted = true;
    }
  }

  if (!accepted && allow_fallback) {
    // The transient dynamics can orbit the fixed point (photosynthetic
    // oscillations), so integrate in legs — far enough to leave the
    // cold-start region — and let Newton land on the fixed point from there.
    ss.used_integration_fallback = true;
    // The system is stiff (fast PGA-reduction equilibria vs slow pool
    // modes); the linearly implicit Rosenbrock method takes ~100 steps per
    // leg where an explicit method needs tens of thousands.
    num::OdeOptions iopts;
    iopts.method = num::OdeMethod::kRosenbrockW;
    iopts.abs_tol = 1e-7;
    iopts.rel_tol = 1e-5;
    iopts.initial_step = 1e-3;
    iopts.state_floor = 0.0;
    iopts.max_step = 50.0;
    iopts.jacobian = flow;
    const num::OdeRhs rhs = flow;

    num::Vec y(start.begin(), start.end());
    double t = 0.0;
    const std::vector<double> legs = thorough_fallback_
                                         ? std::vector<double>{300.0, 2000.0, 8000.0, 25000.0}
                                         : std::vector<double>{300.0, 2000.0};
    for (const double t_next : legs) {
      const num::OdeResult leg = num::integrate(rhs, t, y, t_next, iopts);
      y = leg.y;
      t = leg.t;
      if (!leg.success || !num::all_finite(y)) break;
      // Step-size continuation: later legs resume at the controller's step
      // instead of re-ramping from the cold initial_step.
      if (leg.last_step > 0.0) iopts.initial_step = leg.last_step;
      num::NewtonResult polished = num::solve_newton(system, y, nopts);
      tally(polished);
      if (polished.converged && physical_state(polished.x, config_)) {
        newton = std::move(polished);
        accepted = true;
        break;
      }
      if (polished.residual_norm < newton.residual_norm &&
          physical_state(polished.x, config_)) {
        newton = std::move(polished);
      }
    }
  }

  ss.state = std::move(newton.x);
  ss.residual = newton.residual_norm;
  ss.converged = accepted;
  ss.co2_uptake = ss.converged ? co2_uptake(ss.state, mult) : 0.0;
  return ss;
}

SteadyState C3Model::quick_attempt(std::span<const double> start,
                                   std::span<const double> mult,
                                   const num::LuFactorization* warm_lu) const {
  const Flow flow{*this, mult};
  const num::NonlinearSystem system = flow;
  num::NewtonOptions nopts = steady_newton_options(flow, 30);
  nopts.warm_lu = warm_lu;
  num::NewtonResult newton = num::solve_newton(system, start, nopts);
  SteadyState ss;
  ss.newton_iterations = newton.iterations;
  ss.rhs_evaluations = newton.rhs_evaluations;
  ss.jacobian_factorizations = newton.jacobian_factorizations;
  ss.converged = newton.converged && physical_state(newton.x, config_);
  ss.residual = newton.residual_norm;
  ss.state = std::move(newton.x);
  ss.co2_uptake = ss.converged ? co2_uptake(ss.state, mult) : 0.0;
  return ss;
}

num::Vec C3Model::warm_extrapolated_start(const WarmStartPool::Entry& entry,
                                          std::span<const double> mult) const {
  num::Vec start(entry.state);
  WarmStartPool::RootCache& cache = *entry.root_cache;
  std::call_once(cache.once, [&] {
    // Pure function of the entry: whichever thread builds it, same LU.
    num::Matrix jac;
    jacobian_at(entry.state, entry.key, jac);
    cache.lu = num::LuFactorization::compute(jac);
    cache.valid = cache.lu.has_value();
  });
  if (!cache.valid) return start;
  // F(y*, mult): every rate law is linear in its multiplier, so this equals
  // dF/dmult * (mult - key) up to the entry's own residual (<= solver tol).
  num::Vec f(kNumMetabolites);
  derivatives(entry.state, mult, f);
  const num::Vec step = cache.lu->solve(f);
  if (!num::all_finite(step)) return start;
  num::axpy(start, -1.0, step);
  for (double& v : start) v = std::max(v, kStateFloor);
  if (!num::all_finite(start)) return num::Vec(entry.state);
  return start;
}

TangentPrediction C3Model::predict_uptake(std::span<const double> mult) const {
  TangentPrediction pred;
  const WarmStartPool::Hit hit = warm_pool_.nearest_entry(mult);
  {
    // A strictly closer CYCLE anchor wins: inside the oscillatory shell the
    // nearest root's tangent model extrapolates across the Hopf boundary and
    // lies, while the neighbour's cycle-average observable is the honest
    // zeroth-order estimate.  Ties (and equal-distance root entries) keep
    // the root path — its tangent model carries first-order information.
    const WarmStartPool::Hit chit = warm_pool_.nearest_cycle(mult);
    if (chit.entry != nullptr) {
      const double cyc_d2 = num::dist2(chit.entry->key, mult);
      const bool closer =
          hit.entry == nullptr || cyc_d2 < num::dist2(hit.entry->key, mult);
      if (closer) {
        pred.valid = true;
        pred.cycle = true;
        pred.dist2 = cyc_d2;
        pred.exact = num::bitwise_equal(chit.entry->key, mult);
        pred.uptake = chit.entry->mean_uptake;
        return pred;
      }
    }
  }
  if (hit.entry == nullptr) return pred;
  pred.dist2 = num::dist2(hit.entry->key, mult);
  if (num::bitwise_equal(hit.entry->key, mult)) {
    // Exact repeat: the stored root is the candidate's own, so this is the
    // full solve's answer, not a prediction.
    pred.valid = true;
    pred.exact = true;
    pred.uptake = co2_uptake(hit.entry->state, mult);
    return pred;
  }
  // warm_extrapolated_start builds (or reuses) the entry's root-Jacobian LU
  // and takes the implicit-function step; only a successful tangent step
  // counts as a prediction — the raw-state fallback is a Newton start, not
  // a trustworthy objective estimate.
  const num::Vec extrapolated = warm_extrapolated_start(*hit.entry, mult);
  if (!hit.entry->root_cache->valid) return pred;
  pred.valid = true;
  pred.uptake = co2_uptake(extrapolated, mult);
  pred.step2 = num::dist2(extrapolated, hit.entry->state) /
               std::max(num::dot(hit.entry->state, hit.entry->state), 1e-300);
  return pred;
}

void C3Model::note_living_solution(std::span<const double> mult,
                                   const num::Vec& state) const {
  warm_pool_.record(mult, state);
  // Outside core parallel regions there is no epoch barrier coming, and no
  // determinism-across-thread-counts contract to protect either: committing
  // right away keeps sequential callers (control analysis, A-Ci curves,
  // ad-hoc scans) warm-starting from the candidate they just solved.
  // Inside a region the entry stays staged until the engine's serial
  // barrier calls commit_warm_starts().
  if (!core::in_deterministic_region()) warm_pool_.commit();
}

void C3Model::note_living_cycle(std::span<const double> mult,
                                const num::Vec& average_state,
                                const num::Vec& cycle_point, double period,
                                double mean_uptake) const {
  warm_pool_.record_cycle(mult, average_state, cycle_point, period,
                          mean_uptake);
  // Same commit discipline as note_living_solution.
  if (!core::in_deterministic_region()) warm_pool_.commit();
}

void C3Model::commit_warm_starts() const {
  // A nested engine (a PMO2 island's NSGA-II) reaches its own generation
  // barrier while still inside the island parallel region; its commit must
  // wait for the archipelago's serial epoch barrier.
  if (core::in_deterministic_region()) return;
  warm_pool_.commit();
}

bool C3Model::pool_exact_lookup(std::span<const double> mult,
                                SteadyState& out) const {
  // Exact repeat of a pooled LIVING limit cycle: the original call for
  // this key returned the cycle average (living cycles win the ladder at
  // step 3), so returning the stored entry reproduces that report bitwise
  // — mean_uptake is an orbit average, not co2_uptake(mean state), hence
  // returned as stored rather than recomputed.  Dead cycle anchors stay in
  // the pool for prescreen predictions but never short-circuit the ladder
  // (the original call may have reported an earlier dead root instead).
  //
  // Both hits fill `out` without allocating (beyond first-use growth of
  // out.state and the thread workspace): num::assign reuses capacity and
  // the residual scratch comes from the arena.  The allocation sentinel
  // holds this path to literally zero heap allocations once warm.
  {
    const WarmStartPool::Hit chit = warm_pool_.nearest_cycle(mult);
    if (chit.entry != nullptr && chit.entry->mean_uptake > kAliveUptake &&
        num::bitwise_equal(chit.entry->key, mult)) {
      num::assign(out.state, chit.entry->state);
      out.co2_uptake = chit.entry->mean_uptake;
      num::Workspace& ws = num::Workspace::thread_local_instance();
      num::ScratchVec dydt(ws, kNumMetabolites);
      derivatives(out.state, mult, dydt.get());
      out.residual = num::norm_inf(dydt.get());
      out.converged = true;
      out.newton_iterations = 0;
      out.rhs_evaluations = 1;
      out.jacobian_factorizations = 0;
      out.warm_started = true;
      out.pool_exact_hit = true;
      out.oscillatory = true;
      out.used_integration_fallback = true;
      out.used_shooting = true;
      out.cycle_period = chit.entry->period;
      return true;
    }
  }
  {
    // Exact repeat of a pooled candidate: the committed root IS this
    // candidate's living root, so return it directly instead of
    // re-iterating Newton from it.  Recomputing the uptake from
    // (state, mult) reproduces the originally reported value bitwise
    // (the accepting attempt computed it the same way), so a repeat
    // answers exactly as its first evaluation did and the optimizer's
    // trajectory is unperturbed.  The root is NOT restaged: the pool's
    // pending set, and hence its aging, is unchanged by repeats.
    const WarmStartPool::Hit hit = warm_pool_.nearest_entry(mult);
    if (hit.entry != nullptr && num::bitwise_equal(hit.entry->key, mult)) {
      num::assign(out.state, hit.entry->state);
      out.co2_uptake = co2_uptake(out.state, mult);
      num::Workspace& ws = num::Workspace::thread_local_instance();
      num::ScratchVec dydt(ws, kNumMetabolites);
      derivatives(out.state, mult, dydt.get());
      out.residual = num::norm_inf(dydt.get());
      out.converged = true;
      out.newton_iterations = 0;
      out.rhs_evaluations = 1;
      out.jacobian_factorizations = 0;
      out.warm_started = true;
      out.pool_exact_hit = true;
      out.oscillatory = false;
      out.used_integration_fallback = false;
      out.used_shooting = false;
      out.cycle_period = 0.0;
      return true;
    }
  }
  return false;
}

void C3Model::steady_state_into(std::span<const double> mult,
                                std::span<const double> start_hint,
                                SteadyState& out) const {
  // With a caller hint the full ladder must run (the hint attempt comes
  // before the exact-key short circuits, and its work lands in the
  // counters); without one, an exact pool hit answers in place and
  // allocation-free.
  if (start_hint.empty() && pool_exact_lookup(mult, out)) return;
  out = steady_state(mult, start_hint);
}

SteadyState C3Model::steady_state(std::span<const double> mult,
                                  std::span<const double> start_hint) const {
  // The collapsed ("dead leaf") state is a genuine root of the kinetics, so
  // a start inside its basin converges to it even when the candidate also
  // has a healthy attractor.  The search therefore prefers LIVING roots:
  // every cheap Newton start is tried until one yields positive fixation,
  // the integration fallback gets the next say, and a dead root is reported
  // only when nothing else converged.
  std::optional<SteadyState> dead;
  // The latest unconverged attempt: when nothing converges this is rung 2's
  // natural-transient solve, whose diagnostics the ladder reports.
  SteadyState last;
  // Work counters accumulate over the WHOLE ladder, whichever attempt wins.
  std::size_t iterations = 0, rhs = 0, factorizations = 0;

  auto finalize = [&](SteadyState ss) {
    ss.newton_iterations = iterations;
    ss.rhs_evaluations = rhs;
    ss.jacobian_factorizations = factorizations;
    return ss;
  };
  auto consider = [&](SteadyState ss, bool warm) -> std::optional<SteadyState> {
    iterations += ss.newton_iterations;
    rhs += ss.rhs_evaluations;
    factorizations += ss.jacobian_factorizations;
    if (!ss.converged) {
      last = std::move(ss);
      return std::nullopt;
    }
    if (ss.co2_uptake > kAliveUptake) {
      // Only genuine roots enter the pool: a limit-cycle AVERAGE is not a
      // steady state, and handing it to a neighbour as a Newton start just
      // burns the quick attempt before the ladder runs.
      if (!ss.oscillatory) note_living_solution(mult, ss.state);
      ss.warm_started = warm;
      return ss;
    }
    if (!dead) dead = std::move(ss);
    return std::nullopt;
  };

  // 1. Cheap Newton attempts: the caller's hint (e.g. control analysis
  //    probing around a base it already solved), the nearest committed
  //    warm-start-pool entry — a pure function of (candidate, snapshot), so
  //    parallel batches stay bit-identical for any thread count — then the
  //    anchor ladder.
  if (!start_hint.empty()) {
    if (auto alive = consider(quick_attempt(start_hint, mult), true)) {
      return finalize(std::move(*alive));
    }
  }
  {
    SteadyState exact;
    if (pool_exact_lookup(mult, exact)) {
      rhs += exact.rhs_evaluations;
      return finalize(std::move(exact));
    }
  }
  {
    const WarmStartPool::Hit hit = warm_pool_.nearest_entry(mult);
    if (hit.entry != nullptr) {
      const num::Vec start = warm_extrapolated_start(*hit.entry, mult);
      const WarmStartPool::RootCache& cache = *hit.entry->root_cache;
      const num::LuFactorization* warm_lu =
          cache.valid ? &*cache.lu : nullptr;
      if (auto alive = consider(quick_attempt(start, mult, warm_lu), true)) {
        return finalize(std::move(*alive));
      }
    }
  }
  for (const num::Vec& anchor : anchors_) {
    if (auto alive = consider(solve_from(anchor, mult, /*allow_fallback=*/false),
                              false)) {
      return finalize(std::move(*alive));
    }
  }

  // 2. Expensive path: integrate the natural transient under the candidate
  //    kinetics — this decides the basin honestly.
  const num::Vec& start = natural_.converged ? natural_.state : default_initial_state();
  if (auto alive = consider(solve_from(start, mult, /*allow_fallback=*/false),
                            false)) {
    return finalize(std::move(*alive));
  }

  // 3. Oscillation handling: near the model's Hopf boundary the kinetics
  //    orbit a limit cycle and no solver can settle.  Average one window of
  //    the orbit — the measurable assimilation rate — and report that.
  {
    SteadyState cyc = cycle_average(start, mult);
    if (cyc.converged) {
      if (cyc.co2_uptake > kAliveUptake) return finalize(std::move(cyc));
      if (!dead) dead = std::move(cyc);
    }
  }

  if (dead) return finalize(std::move(*dead));
  // Nothing converged: return the last attempt's diagnostics.
  return finalize(std::move(last));
}

namespace {

// The windowed cycle average (v1 path): ride out a 400-unit transient, then
// average the state at the end of each of 40 consecutive 10-unit legs.
constexpr double kTransient = 400.0;
constexpr int kWindowLegs = 40;
constexpr double kWindowLeg = 10.0;

// The cold bootstrap's period scan: 240 units after the same transient,
// sampled every half unit — exactly the stretch the first 24 window legs
// cover, so the window can sample it on the way.
constexpr double kScanHorizon = 240.0;
constexpr double kScanDt = 0.5;
constexpr int kGateLegs = static_cast<int>(kScanHorizon / kWindowLeg);
constexpr std::size_t kScanRows =
    static_cast<std::size_t>(kScanHorizon / kScanDt) + 1;

/// Whether the cold bootstrap runs, given the upward mean-crossings the
/// window's samples showed (nullopt: the window broke off before the
/// samples were complete, so there is nothing to decide on).  The window
/// rides ROS2, not the scan's Ros3, so the gate asks for one crossing fewer
/// than the scan needs.
bool bootstrap_gate_open(std::optional<std::size_t> crossings) {
  return !crossings || *crossings >= num::kGateMinCrossings;
}

}  // namespace

num::ShootingResult C3Model::shoot_cycle(std::span<const double> y0,
                                         double period,
                                         std::span<const double> mult) const {
  const Flow flow{*this, mult};
  const num::OdeRhs rhs = flow;
  const num::CycleObservable observable = flow;
  num::ShootingOptions sopts = cycle_shooting_options();
  sopts.ode.jacobian = flow;
  return num::solve_limit_cycle(rhs, y0, period, sopts, observable);
}

SteadyState C3Model::cycle_result(const num::ShootingResult& cyc,
                                  std::span<const double> mult) const {
  SteadyState ss;
  if (!cyc.converged || !physical_state(cyc.average_state, config_)) return ss;

  ss.state = cyc.average_state;
  ss.co2_uptake = cyc.average_observable;
  num::Vec d(kNumMetabolites);
  derivatives(ss.state, mult, d);
  ss.residual = num::norm_inf(d);
  ss.converged = true;
  ss.oscillatory = true;
  ss.used_integration_fallback = true;
  ss.used_shooting = true;
  ss.cycle_period = cyc.period;
  // Every converged physical cycle becomes a pool anchor — living ones feed
  // the exact-hit short circuit and warm restarts, dead ones give the
  // prescreen honest low-uptake predictions inside the oscillatory shell.
  note_living_cycle(mult, ss.state, cyc.cycle_state, cyc.period, ss.co2_uptake);
  return ss;
}

num::PeriodEstimate C3Model::cold_period_scan(
    std::span<const double> start, std::span<const double> mult) const {
  const Flow flow{*this, mult};
  const num::OdeRhs rhs = flow;
  num::OdeOptions ode = cycle_shooting_options().ode;
  ode.jacobian = flow;
  // Ride out the transient, then read (y0, T) off the most-oscillatory
  // coordinate's mean crossings.  Both legs only need to land NEAR the
  // attractor — the aligned-Picard rounds do the precision work.
  const num::OdeResult leg = num::integrate(rhs, 0.0, start, kTransient, ode);
  if (!leg.success || !num::all_finite(leg.y)) return {};
  return num::estimate_period(rhs, leg.y, kScanHorizon, kScanDt, ode);
}

SteadyState C3Model::window_average(std::span<const double> start,
                                    std::span<const double> mult,
                                    CycleGate at_gate) const {
  num::OdeOptions iopts;
  iopts.method = num::OdeMethod::kRosenbrockW;
  iopts.abs_tol = 1e-6;
  iopts.rel_tol = 1e-4;
  iopts.initial_step = 1e-3;
  iopts.state_floor = 0.0;
  iopts.max_step = 20.0;
  const Flow flow{*this, mult};
  iopts.jacobian = flow;
  const num::OdeRhs rhs = flow;

  SteadyState ss;
  // Skip the initial transient, then average over a sampling window.
  num::Vec y(start.begin(), start.end());
  num::OdeResult leg = num::integrate(rhs, 0.0, y, kTransient, iopts);
  if (!leg.success || !num::all_finite(leg.y)) {
    if (at_gate) at_gate(std::nullopt);
    return ss;
  }
  y = leg.y;

  num::Vec mean_state(kNumMetabolites, 0.0);
  double mean_uptake = 0.0;
  double t = kTransient;
  const auto advance = [&]() {
    // Step-size continuation across sampling windows: without it every
    // window re-ramps the adaptive step from 1e-3, which used to cost more
    // steps than the windows themselves.
    if (leg.last_step > 0.0) iopts.initial_step = leg.last_step;
    leg = num::integrate(rhs, t, y, t + kWindowLeg, iopts);
    if (!leg.success || !num::all_finite(leg.y)) return false;
    y = leg.y;
    t = leg.t;
    num::add_inplace(mean_state, y);
    mean_uptake += co2_uptake(y, mult);
    return true;
  };

  int s = 0;
  if (at_gate) {
    // The first legs cover the scan's stretch of trajectory; a sampler on
    // their step observer records it for the gate's crossing count without
    // touching their steps.
    std::optional<std::size_t> crossings;
    {
      num::TrajectorySampler sampler(rhs, num::Workspace::thread_local_instance(),
                                     t, y, kScanDt, kScanRows);
      iopts.step_observer = sampler;
      while (s < kGateLegs && advance()) ++s;
      iopts.step_observer = nullptr;
      if (s == kGateLegs && sampler.complete()) {
        crossings = num::count_mean_crossings(sampler.samples(), kScanDt).count;
      }
    }
    if (at_gate(crossings) || s < kGateLegs) return ss;
  }
  for (; s < kWindowLegs; ++s) {
    if (!advance()) return ss;
  }
  num::scale_inplace(mean_state, 1.0 / kWindowLegs);
  mean_uptake /= kWindowLegs;

  ss.state = std::move(mean_state);
  ss.co2_uptake = mean_uptake;
  num::Vec d(kNumMetabolites);
  derivatives(ss.state, mult, d);
  ss.residual = num::norm_inf(d);
  ss.converged = physical_state(ss.state, config_);
  ss.oscillatory = true;
  ss.used_integration_fallback = true;
  return ss;
}

SteadyState C3Model::cycle_average(std::span<const double> start,
                                   std::span<const double> mult) const {
  if (!config_.cycle_shooting) return window_average(start, mult, nullptr);

  // Warm restart: the nearest pooled cycle anchor's on-orbit point and
  // period.  Pure function of (candidate, snapshot), like every warm start.
  // A converged warm shot settles the shooting question even when its
  // average is unphysical: the window answers then, with no cold bootstrap.
  const WarmStartPool::Hit hit = warm_pool_.nearest_cycle(mult);
  if (hit.entry != nullptr) {
    const num::ShootingResult warm =
        shoot_cycle(hit.entry->cycle_point, hit.entry->period, mult);
    if (warm.converged) {
      SteadyState shot = cycle_result(warm, mult);
      return shot.converged ? shot : window_average(start, mult, nullptr);
    }
  }

  // Cold path: one trajectory.  The window's ROS2 legs run first; once they
  // have covered the period scan's stretch, the Ros3 bootstrap (transient,
  // scan, shot) runs only when the window saw the trajectory oscillate.
  // Most cold candidates drift instead (one pool grows linearly), the scan
  // would fail on them, and the bootstrap would be thrown away.  A cycle
  // the bootstrap converges is the answer; otherwise the window finishes.
  SteadyState shot;
  const auto at_gate = [&](std::optional<std::size_t> crossings) {
    if (!bootstrap_gate_open(crossings)) return false;
    const num::PeriodEstimate est = cold_period_scan(start, mult);
    if (est.valid) {
      shot = cycle_result(shoot_cycle(est.anchor_state, est.period, mult), mult);
    }
    return shot.converged;
  };
  SteadyState window = window_average(start, mult, at_gate);
  return shot.converged ? shot : window;
}

CycleGateAudit C3Model::audit_cycle_gate(std::span<const double> mult) const {
  const num::Vec& start = natural_.converged ? natural_.state : default_initial_state();
  CycleGateAudit audit;
  const auto at_gate = [&](std::optional<std::size_t> crossings) {
    audit.samples_complete = crossings.has_value();
    audit.crossings = crossings.value_or(0);
    audit.bootstrap_runs = bootstrap_gate_open(crossings);
    audit.scan_valid = cold_period_scan(start, mult).valid;
    return true;
  };
  (void)window_average(start, mult, at_gate);
  return audit;
}

double C3Model::nitrogen(std::span<const double> mult) const {
  return total_nitrogen(mult, config_.nitrogen_scale);
}

}  // namespace rmp::kinetics
