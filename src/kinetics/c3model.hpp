// C3 photosynthetic carbon metabolism — a kinetic ODE model in the structure
// of Zhu, de Sturler & Long (Plant Physiology 145, 2007), the substrate of
// the paper's photosynthesis experiments.
//
// Modeled subsystems (all rate laws Michaelis-Menten, modified for inhibitors
// and activators where noted):
//   * Calvin-Benson cycle: Rubisco carboxylation/oxygenation, PGA reduction,
//     regeneration (aldolases, FBPase, SBPase, transketolase, PRK);
//   * photorespiration: PGCA -> GCA -> GOA -> GLY -> SER -> HPR -> GCEA ->
//     PGA with CO2 release at glycine decarboxylase;
//   * starch synthesis (ADPGPP, PGA-activated / Pi-inhibited);
//   * triose-phosphate export through the Pi translocator with a maximal
//     export rate — the paper's "triose-P max export rate" scenario knob;
//   * cytosolic sucrose synthesis (aldolase, FBPase inhibited by F26BP,
//     UDPGP, SPS, SPP) and the F26BP regulator pool;
//   * conserved quantities: stromal phosphate and adenylates — the pool that
//     produces sink (TPU-style) feedback limitation;
//   * equilibrium pools per the paper: GAP/DHAP (stroma and cytosol),
//     Xu5P/Ri5P/Ru5P, F6P/G6P/G1P.
//
// SUBSTITUTION NOTE (see DESIGN.md): kinetic constants are calibrated so the
// natural-leaf operating point and the optimization landscape match the
// paper's reported numbers in shape; they are not the published Zhu
// parameter set (unavailable offline).
#pragma once

#include <optional>
#include <span>

#include "kinetics/enzymes.hpp"
#include "kinetics/warm_start.hpp"
#include "numeric/matrix.hpp"
#include "numeric/ode.hpp"
#include "numeric/shooting.hpp"
#include "numeric/vec.hpp"

namespace rmp::kinetics {

/// Metabolite state layout (all concentrations mmol l^-1).
enum MetaboliteId : std::size_t {
  kRuBP = 0,
  kPga,
  kDpga,
  kT3p,    ///< stromal GAP + DHAP equilibrium pool
  kFbp,
  kE4p,
  kSbp,
  kS7p,
  kPeP,    ///< Ru5P + Xu5P + Ri5P equilibrium pool
  kHeP,    ///< F6P + G6P + G1P equilibrium pool
  kPgca,
  kGca,
  kGoa,
  kGly,
  kSer,
  kHpr,
  kGcea,
  kAtp,    ///< ADP = adenylate_total - ATP
  kT3pc,   ///< cytosolic GAP + DHAP pool
  kFbpc,
  kHePc,
  kUdpg,
  kSucp,
  kF26bp,
  kNumMetabolites,
};

/// Environmental scenario + kinetic constants.
struct C3Config {
  // --- scenario knobs (the paper's six conditions) -----------------------
  double ci_ppm = 270.0;            ///< CO2 concentration, umol mol^-1
  double triose_export_vmax = 1.0;  ///< mmol l^-1 s^-1 (1 = low, 3 = high)

  // --- environment -------------------------------------------------------
  double o2_ppm = 210000.0;  ///< 21% O2

  // --- Rubisco -----------------------------------------------------------
  double kc_ppm = 300.0;     ///< CO2 Michaelis constant (gas-equivalent units)
  double ko_ppm = 210000.0;  ///< O2 Michaelis constant
  double vo_vc_capacity_ratio = 0.30;  ///< Vomax / Vcmax
  double km_rubp = 0.30;     ///< mmol/l

  // --- Calvin cycle Michaelis constants (mmol/l) --------------------------
  // Kms are expressed against the equilibrium pools (T3P, PeP, HeP) — the
  // fast GAP/DHAP etc. interconversions are folded into effective constants.
  // PGA kinase and GAPDH operate near thermodynamic equilibrium in vivo;
  // they are modeled reversibly with mass-action displacement terms.  This
  // buffers the PGA/DPGA/T3P sector against both the "PGA swamp"
  // (phosphate sequestration) and autocatalytic collapse.
  double km_pga_pgak = 1.0, km_atp_pgak = 0.3;
  double keq_pgak = 0.011;   ///< (DPGA*ADP)/(PGA*ATP) at equilibrium
  double km_dpga_gapdh = 0.3;
  double keq_gapdh = 45.0;   ///< (T3P*Pi)/DPGA at equilibrium
  double km_t3p_ald = 0.45, km_fbp_ald_rev = 1.2;
  double km_fbp_fbpase = 0.17;
  double km_f6p_tk = 0.3, km_t3p_tk = 0.3;
  double km_s7p_tk = 0.5;
  double km_e4p_sald = 0.1, km_t3p_sald = 0.3;
  double km_sbp_sbpase = 0.13;
  double km_ru5p_prk = 0.05, km_atp_prk = 0.25, ki_pga_prk = 6.0;

  // --- starch ------------------------------------------------------------
  double km_g1p_adpgpp = 0.05;
  double ka_pga_adpgpp = 3.0;   ///< half-activation PGA/Pi ratio
  double ki_pi_adpgpp = 2.5;    ///< Pi inhibition constant

  // --- photorespiration (mmol/l) ------------------------------------------
  double km_pgca = 0.03;
  double km_gca = 0.1;
  double km_goa_ggat = 0.15;
  double km_goa_gsat = 0.15, km_ser_gsat = 0.45;
  double km_gly_gdc = 3.0;
  double km_hpr = 0.09;
  double km_gcea = 0.25, km_atp_gceak = 0.3;

  // --- export & sucrose ----------------------------------------------------
  // The Pi translocator carries PGA as well as triose-P (the paper's export
  // pool is "PGA, GAP, and DHAP"); both species compete for the same
  // carrier, so PGA export drains the PGA/Pi deadlock that otherwise locks
  // the cycle at high fixation rates.
  // The antiport needs free cytosolic Pi (recycled by sucrose synthesis);
  // a congested cytosol throttles export — the sink-limitation mechanism.
  double km_t3p_export = 1.8;
  double km_pga_export = 5.0;
  double km_pi_cyt_export = 0.3;
  double km_t3pc_ald = 0.25;
  double km_fbpc_fbpase = 0.10, ki_f26bp_fbpase = 0.004;
  double km_hepc_udpgp = 0.15;
  double km_udpg_sps = 0.25, km_hepc_sps = 0.25;
  double km_sucp_spp = 0.05;
  double km_f26bp_f26bpase = 0.005;
  double f26bp_synthesis_rate = 0.003;  ///< fixed F6P-2-kinase capacity, mmol/l/s
  double km_hepc_f26bpsyn = 0.5;

  // --- cofactors and conserved pools ---------------------------------------
  double atp_synthesis_vmax = 34.0;  ///< thylakoid capacity, mmol/l/s
  double km_adp_atpsyn = 0.25, km_pi_atpsyn = 0.1;
  double adenylate_total = 1.5;      ///< ATP + ADP, mmol/l
  double stromal_phosphate_total = 18.0;  ///< free Pi + esterified P, mmol/l
  double cytosolic_phosphate_total = 5.0;
  double min_free_pi = 1e-4;

  // --- equilibrium pool fractions -----------------------------------------
  double frac_gap_t3p = 1.0 / 23.0;   ///< GAP share of the T3P pool (Keq ~ 22)
  double frac_dhap_t3p = 22.0 / 23.0;
  double frac_ru5p_pep = 0.30, frac_x5p_pep = 0.45, frac_r5p_pep = 0.25;
  double frac_f6p_hep = 0.293, frac_g6p_hep = 0.674, frac_g1p_hep = 0.033;

  // --- steady-state solver strategy ------------------------------------------
  // The three knobs select between the optimized engine (defaults) and the
  // PR-4-era baseline (finite differences, fresh factorization every
  // iteration, cold starts) — the bench's reference configuration.  Either
  // way results stay bit-identical for any thread count; the knobs trade
  // work per solve only.
  /// Closed-form dF/dx via derivatives_and_jacobian() instead of the n+1
  /// finite-difference RHS evaluations per Newton iteration.
  bool analytic_jacobian = true;
  /// Chord-Newton: iterations that may reuse one LU factorization before a
  /// mandatory refresh (1 = classic Newton).  Stalls and damping collapses
  /// refresh earlier; see num::NewtonOptions.
  std::size_t chord_max_age = 8;
  /// Capacity of the epoch-committed warm-start pool (0 disables it and
  /// every candidate cold-starts through the anchor ladder).
  std::size_t warm_pool_capacity = 64;
  /// Oscillatory candidates: solve the limit cycle by periodic-orbit
  /// shooting (aligned-Picard rounds on (y0, T), see num::solve_limit_cycle)
  /// and average over exactly one converged period, warm-restarting from
  /// pooled cycle anchors.  When false — or whenever the shooting solver
  /// gives up — the PR-5 windowed long integration runs instead, so
  /// classifications never depend on this knob, only cost and the averaging
  /// window do.
  bool cycle_shooting = true;

  // --- reporting ------------------------------------------------------------
  /// Converts net stromal fixation (mmol l^-1 s^-1) to leaf-area CO2 uptake
  /// (umol m^-2 s^-1): effective stroma volume per unit leaf area.
  double uptake_area_scale = 7.266;
  /// Scales SUM(vmax * MW / kcat) into the paper's mg l^-1 nitrogen axis.
  double nitrogen_scale = 658.1;
};

/// Instantaneous reaction rates (mmol l^-1 s^-1); primarily for tests and
/// flux reporting.
struct C3Rates {
  double vc = 0, vo = 0;                    // Rubisco
  double v_pgak = 0, v_gapdh = 0;
  double v_fbpald = 0, v_fbpase = 0;
  double v_tk1 = 0, v_tk2 = 0;
  double v_sbpald = 0, v_sbpase = 0;
  double v_prk = 0;
  double v_starch = 0;
  double v_pgcapase = 0, v_goaox = 0, v_ggat = 0, v_gsat = 0, v_gdc = 0;
  double v_hpr = 0, v_gceak = 0;
  double v_export = 0;      ///< triose-P leg of the translocator
  double v_export_pga = 0;  ///< PGA leg of the translocator
  double v_cfbpald = 0, v_cfbpase = 0, v_udpgp = 0, v_sps = 0, v_spp = 0;
  double v_f26bpase = 0, v_f26bp_syn = 0;
  double v_atpsyn = 0;
  double free_pi = 0;       ///< free stromal phosphate
  double free_pi_cyt = 0;   ///< free cytosolic phosphate
};

/// Result of driving the model to steady state for one enzyme partition.
struct SteadyState {
  num::Vec state;        ///< metabolite concentrations at steady state
  double co2_uptake = 0; ///< A, umol m^-2 s^-1 (net of photorespiratory release)
  double residual = 0;   ///< ||dy/dt||_inf at the returned state
  bool converged = false;
  std::size_t newton_iterations = 0;
  /// Work counters, summed over every Newton/PTC attempt the solve ladder
  /// made for this partition (the ODE fallback's internal RHS calls are not
  /// included — used_integration_fallback flags those solves).  These let
  /// the bench and tests measure work, not just wall time.
  std::size_t rhs_evaluations = 0;
  std::size_t jacobian_factorizations = 0;
  /// True when the accepted root came from a warm start (caller hint or the
  /// epoch pool) rather than the anchor ladder.
  bool warm_started = false;
  /// True when the candidate's key matched a committed pool entry BITWISE
  /// and the stored root was returned directly (no Newton iterations): the
  /// exact-repeat short circuit that makes re-evaluation of a pooled
  /// candidate bitwise-repeatable within an epoch window.
  bool pool_exact_hit = false;
  bool used_integration_fallback = false;
  /// True when the kinetics orbit a limit cycle instead of settling; the
  /// reported state and uptake are then time averages over the cycle (which
  /// is what leaf gas-exchange instruments measure during photosynthetic
  /// oscillations).
  bool oscillatory = false;
  /// True when an oscillatory result came from the shooting limit-cycle
  /// solver (one converged period) rather than the windowed integration.
  bool used_shooting = false;
  /// Converged cycle period (time units); 0 unless used_shooting.
  double cycle_period = 0.0;
};

/// First-order uptake prediction from the warm-start pool's tangent models
/// (see C3Model::predict_uptake).
struct TangentPrediction {
  /// A committed neighbour with a non-singular cached root-Jacobian LU was
  /// available; `uptake` is meaningful only when true.
  bool valid = false;
  /// The neighbour's key equals the queried candidate bitwise: `uptake` is
  /// then exactly what a full steady_state() call would report, not an
  /// extrapolation.
  bool exact = false;
  double uptake = 0.0;  ///< predicted CO2 uptake, umol m^-2 s^-1
  double dist2 = 0.0;   ///< squared distance from the candidate to the neighbour
  /// Relative squared extrapolation step ||y_pred - y*||^2 / ||y*||^2 — the
  /// tangent model's own self-consistency measure.  Multiplier-space
  /// distance is a poor trust signal (a starved Vmax at tiny dist2 still
  /// makes F(y*, mult) huge), but a large implicit-function step says the
  /// linearization left its own neighbourhood: trust predictions only when
  /// step2 is small.  0 for exact hits.
  double step2 = 0.0;
  /// The prediction came from a CYCLE anchor: `uptake` is the neighbour's
  /// stored cycle-average observable (zeroth order — no tangent model for
  /// cycles), and step2 is 0.  Callers should use a tighter trust radius.
  bool cycle = false;
};

/// What the cold cycle path decides for one candidate, and what the
/// bootstrap's period scan would have said (see C3Model::audit_cycle_gate).
struct CycleGateAudit {
  /// The window's ROS2 legs covered the scan's whole stretch, so the gate
  /// had samples to decide on.
  bool samples_complete = false;
  /// Upward mean-crossings of the most-oscillatory coordinate in those
  /// samples; 0 unless samples_complete.
  std::size_t crossings = 0;
  /// The gate lets the cold bootstrap run.
  bool bootstrap_runs = false;
  /// The bootstrap's Ros3 period scan is valid — the only case in which
  /// the bootstrap can return a cycle.
  bool scan_valid = false;
};

class C3Model {
 public:
  explicit C3Model(C3Config config = {});

  [[nodiscard]] const C3Config& config() const { return config_; }

  /// All reaction rates at state y for enzyme activity multipliers `mult`
  /// (size kNumEnzymes, 1.0 = natural activity).
  [[nodiscard]] C3Rates rates(std::span<const double> y,
                              std::span<const double> mult) const;

  /// dy/dt at state y.
  void derivatives(std::span<const double> y, std::span<const double> mult,
                   num::Vec& dydt) const;

  /// dy/dt and its closed-form Jacobian jac(r, c) = d(dy_r/dt)/dy_c at state
  /// y — the rate laws are all rational functions, so the Jacobian is exact
  /// (guarded against finite differences by a randomized differential test).
  /// `jac` is resized/zeroed as needed.
  void derivatives_and_jacobian(std::span<const double> y,
                                std::span<const double> mult, num::Vec& dydt,
                                num::Matrix& jac) const;

  /// Net CO2 uptake at a state (umol m^-2 s^-1): carboxylation minus the
  /// photorespiratory release at GDC, scaled to leaf area.
  [[nodiscard]] double co2_uptake(std::span<const double> y,
                                  std::span<const double> mult) const;

  /// Steady state for an enzyme partition: warm starts (optional caller
  /// hint, then the epoch-committed pool), the anchor ladder, damped
  /// Newton/PTC, with an adaptive-integration fallback when everything
  /// cheaper fails.  Deterministic: the result is a pure function of
  /// (candidate, committed pool snapshot) for any thread count.
  [[nodiscard]] SteadyState steady_state(
      std::span<const double> mult,
      std::span<const double> start_hint = {}) const;

  /// steady_state() variant that writes into a caller-owned result, reusing
  /// `out.state`'s capacity.  Bitwise-identical to steady_state() in every
  /// field.  When the candidate is an exact (bitwise) repeat of a committed
  /// pool entry and no hint is given, the answer is produced WITHOUT ANY
  /// heap allocation — scratch comes from the thread's workspace arena and
  /// the state is assigned in place — which is the form of PR 7's
  /// "warm settled solve allocates nothing" claim the allocation sentinel
  /// pins down as a hard test (tests/core/sentinel_test.cpp).  Service
  /// loops replaying pooled candidates get an allocation-free fast path.
  void steady_state_into(std::span<const double> mult,
                         std::span<const double> start_hint,
                         SteadyState& out) const;

  /// Folds steady states recorded since the last commit into the warm-start
  /// pool's snapshot.  Call only from serial sections — the engines do so at
  /// the same epoch barriers where the archive merges (moo::Problem::
  /// commit_epoch()); inside a core parallel region this is a deferred
  /// no-op, so nested engines (PMO2 islands) cannot commit mid-epoch.
  void commit_warm_starts() const;

  /// Cheap first-order CO2-uptake prediction for a candidate, WITHOUT a
  /// kinetic solve: takes the pool's nearest committed entry, extrapolates
  /// its root along the entry's cached root-Jacobian LU (one RHS evaluation
  /// and one triangular solve — the implicit-function tangent model), and
  /// evaluates the uptake at the extrapolated state.  Pure function of
  /// (candidate, committed pool snapshot), so prescreen decisions built on
  /// it stay thread-count invariant.  `valid` is false when the pool is
  /// empty or the neighbour's cached Jacobian was singular.
  [[nodiscard]] TangentPrediction predict_uptake(
      std::span<const double> mult) const;

  /// The epoch warm-start pool (tests and diagnostics).
  [[nodiscard]] const WarmStartPool& warm_pool() const { return warm_pool_; }

  /// Checkpoint seam for the pool (const like commit_warm_starts, and for
  /// the same reason: the pool is mutable accelerator state).  Forwards to
  /// WarmStartPool::save_state / load_state — roots and cycle anchors
  /// round-trip, the lazily-built LU caches rebuild on demand.
  void save_pool_state(core::Json& out) const { warm_pool_.save_state(out); }
  void load_pool_state(const core::Json& doc) const {
    warm_pool_.load_state(doc);
  }

  /// Runs the cold cycle path's gate and the cold bootstrap's period scan
  /// side by side for one candidate, from the start steady_state() hands
  /// the cycle path, and reports both verdicts.  No shot is taken and the
  /// warm-start pool is untouched.  Tests use it to check the premise the
  /// gate rests on: every candidate whose scan is valid passes the gate.
  [[nodiscard]] CycleGateAudit audit_cycle_gate(
      std::span<const double> mult) const;

  /// Steady-state CO2 uptake; 0 with converged=false propagated via optional.
  [[nodiscard]] std::optional<double> steady_uptake(std::span<const double> mult) const;

  /// Total protein nitrogen of a multiplier partition (paper units, mg/l).
  [[nodiscard]] double nitrogen(std::span<const double> mult) const;

  /// The natural leaf state (multipliers all 1), solved once per model.
  [[nodiscard]] const SteadyState& natural_state() const { return natural_; }

  /// Textbook initial concentrations used to bootstrap the natural solve.
  [[nodiscard]] static num::Vec default_initial_state();

 private:
  [[nodiscard]] SteadyState solve_from(std::span<const double> start,
                                       std::span<const double> mult,
                                       bool allow_fallback) const;

  /// Exact-key (bitwise) pool short circuits shared by steady_state and
  /// steady_state_into: a pooled LIVING cycle's stored average, or a pooled
  /// root returned directly.  Fills `out` in place — no allocation beyond
  /// what growing out.state's capacity needs — and returns true on a hit.
  /// Work counters in `out` reflect only this lookup (one RHS evaluation).
  bool pool_exact_lookup(std::span<const double> mult, SteadyState& out) const;

  /// Fills jac with the closed-form Jacobian only (shared by the public
  /// derivatives_and_jacobian and the solver's num::JacobianFn).
  void jacobian_at(std::span<const double> y, std::span<const double> mult,
                   num::Matrix& jac) const;

  /// Stages a living steady state in the warm-start pool; outside core
  /// parallel regions it commits immediately (sequential callers keep the
  /// old evaluate-similar-candidates-back-to-back acceleration).
  void note_living_solution(std::span<const double> mult,
                            const num::Vec& state) const;

  /// Stages a converged limit cycle (average state, on-orbit point, period,
  /// mean uptake) as a pool cycle anchor; same commit discipline as
  /// note_living_solution.
  void note_living_cycle(std::span<const double> mult,
                         const num::Vec& average_state,
                         const num::Vec& cycle_point, double period,
                         double mean_uptake) const;

  /// Start vector from a pool hit: one implicit-function (chord) step from
  /// the neighbour's root using its lazily-cached LU — the rate laws are
  /// linear in the multipliers, so this is the exact first-order tangent
  /// y*(mult) ~ y*(key) - J^-1 F(y*(key), mult).  Falls back to the raw
  /// neighbour state when the cached Jacobian was singular or the step
  /// leaves the finite/positive region.
  [[nodiscard]] num::Vec warm_extrapolated_start(
      const WarmStartPool::Entry& entry, std::span<const double> mult) const;

  void build_anchors();

  /// Time-averaged state/uptake of a limit cycle: the shooting solver when
  /// config_.cycle_shooting (one converged period, pooled cycle anchors as
  /// warm restarts), falling back to the windowed long integration whenever
  /// shooting gives up — so the classification never depends on the knob.
  /// A cold candidate integrates one trajectory: the window's legs run
  /// first, and the Ros3 bootstrap (period scan + shot) runs only when the
  /// legs covering the scan's stretch saw the trajectory oscillate.
  [[nodiscard]] SteadyState cycle_average(std::span<const double> start,
                                          std::span<const double> mult) const;

  /// Called by window_average once the legs covering the period scan's
  /// stretch are done, with the upward mean-crossings they showed (nullopt
  /// when the window broke off first).  Returning true ends the window.
  using CycleGate = num::FunctionRef<bool(std::optional<std::size_t>)>;

  /// The windowed long integration: a 400-unit ROS2 transient, then the
  /// mean over 40 legs of 10 units.  With a gate, the first 24 legs are
  /// sampled on the way and the gate is consulted after them.
  [[nodiscard]] SteadyState window_average(std::span<const double> start,
                                           std::span<const double> mult,
                                           CycleGate at_gate) const;

  /// num::solve_limit_cycle from (y0, period) with the cycle path's options.
  [[nodiscard]] num::ShootingResult shoot_cycle(
      std::span<const double> y0, double period,
      std::span<const double> mult) const;

  /// The answer for a converged physical cycle, staged as a pool cycle
  /// anchor; converged = false for an unconverged or unphysical one.
  [[nodiscard]] SteadyState cycle_result(const num::ShootingResult& cyc,
                                         std::span<const double> mult) const;

  /// The cold bootstrap's (y0, T) guess: a 400-unit Ros3 transient from
  /// `start`, then num::estimate_period over the next 240 units.
  [[nodiscard]] num::PeriodEstimate cold_period_scan(
      std::span<const double> start, std::span<const double> mult) const;

  /// Newton-only attempt from one starting state (no integration).
  [[nodiscard]] SteadyState newton_attempt(std::span<const double> start,
                                           std::span<const double> mult) const;

  /// Short-budget damped Newton for warm starts: a good warm start lands in
  /// a handful of iterations, and a bad one must fail FAST so the anchor
  /// ladder still gets its full say — without this, every pool miss would
  /// cost a whole Newton+PTC budget on top of the ladder.  `warm_lu`
  /// optionally seeds the chord with a neighbour's cached root
  /// factorization (cross-solve reuse).
  [[nodiscard]] SteadyState quick_attempt(
      std::span<const double> start, std::span<const double> mult,
      const num::LuFactorization* warm_lu = nullptr) const;

  C3Config config_;
  SteadyState natural_;
  /// Steady states of representative partitions (scaled-down / scaled-up),
  /// extra Newton warm starts for far-from-natural candidates.
  std::vector<num::Vec> anchors_;
  /// Long integration legs allowed (constructor-time solves only).
  bool thorough_fallback_ = false;
  /// Epoch-committed (candidate, steady state) pairs; mutable because
  /// recording accepted solutions is an acceleration, not an observable
  /// state change — see warm_start.hpp for the determinism argument.
  mutable WarmStartPool warm_pool_;  // lint: epoch-committed
};

}  // namespace rmp::kinetics
