// Differential harness: the v2 kinetic solve path (shooting limit-cycle
// solver, workspace-backed cores) against the PR-5 reference path (windowed
// long-integration cycle averages), over a randomized candidate stream with
// the same drift-toward-the-Hopf-shell shape the kinetics bench replays.
//
// Contracts (ISSUE acceptance: "zero settled-candidate disagreements and
// zero unsound cycle classifications"):
//   * candidates the reference engine settles by Newton are settled by v2
//     with BITWISE-identical state and uptake (the root path is untouched by
//     the shooting feature, and the root pools evolve identically);
//   * no candidate converged by the reference is lost by v2; the only
//     permitted asymmetry is v2 converging an oscillatory candidate the
//     windowed reference gave up on (an improvement, counted not failed);
//   * when both classify a candidate oscillatory, the shooting cycle
//     average matches the windowed long-integration average within a
//     documented bound.  Two effects separate the means.  (1) The window
//     holds a non-integer number of periods, so it differs from a true
//     cycle mean by O(amplitude * T / window) — order 0.5 here (T <~ 60,
//     window = 400, amplitudes up to ~10 mmol/l).  (2) The C3 oscillatory
//     shell is a drifting FAMILY of pseudo-cycles, not an isolated orbit:
//     serine accumulates as a near-conserved photorespiratory pool (its
//     concentration sits near 1.4e3 mmol/l and climbs a few mmol/l per
//     period), so the one-period shooting snapshot and the 400-unit window
//     mean sample that migration at different effective times.  The
//     absolute bound therefore carries a relative term, sized for the
//     drifting pool: 1.5% covers the observed worst case (~0.7%) twice
//     over while still failing loudly on any genuine disagreement;
//   * an exact repeat of a pooled LIVING cycle is answered by the pool
//     bitwise (the cycle analogue of the root exact-hit contract);
//   * the cold cycle path's gate never skips a bootstrap that could have
//     answered: every candidate whose Ros3 period scan is valid passes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "kinetics/c3model.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/pmo2.hpp"
#include "numeric/rng.hpp"
#include "numeric/vec.hpp"

namespace rmp::kinetics {
namespace {

constexpr double kCycleUptakeBound = 1.0;   // umol m^-2 s^-1
constexpr double kCycleStateBound = 1.0;    // mmol/l, per metabolite
constexpr double kCycleStateRelBound = 0.015;  // drifting-pool term

/// The bench's drifting stream, scaled down: generations track from the
/// natural partition toward an up-regulated Calvin mix whose tail sits in
/// the model's Hopf (oscillatory) shell.
std::vector<num::Vec> make_stream(std::size_t generations, std::size_t batch,
                                  std::uint64_t seed) {
  num::Rng rng(seed);
  num::Vec target(kNumEnzymes, 1.0);
  for (std::size_t e = 0; e < kNumEnzymes; ++e) {
    target[e] = 1.2 + 0.08 * static_cast<double>(e % 5);
  }
  target[kRubisco] = 2.6;
  target[kSbpase] = 2.8;
  target[kPrk] = 2.0;
  target[kFbpase] = 2.2;
  std::vector<num::Vec> stream;
  stream.reserve(generations * batch);
  for (std::size_t g = 0; g < generations; ++g) {
    const double a =
        generations > 1
            ? static_cast<double>(g) / static_cast<double>(generations - 1)
            : 1.0;
    for (std::size_t i = 0; i < batch; ++i) {
      num::Vec mult(kNumEnzymes);
      for (std::size_t e = 0; e < kNumEnzymes; ++e) {
        const double center = 1.0 + a * (target[e] - 1.0);
        mult[e] = std::clamp(center * (1.0 + rng.normal(0.0, 0.05)), 0.02, 5.0);
      }
      stream.push_back(std::move(mult));
    }
  }
  return stream;
}

C3Config engine_config(bool shooting) {
  C3Config cfg;
  cfg.cycle_shooting = shooting;
  // Eviction-free pools: with eviction, root snapshots could diverge between
  // the two models (cycle anchors compete for capacity in the v2 pool) and
  // the settled-path bitwise comparison would turn into a tolerance one.
  cfg.warm_pool_capacity = 4096;
  return cfg;
}

TEST(SolverDifferentialTest, V2AgreesWithReferenceOverRandomStream) {
  const C3Model v2(engine_config(/*shooting=*/true));
  const C3Model ref(engine_config(/*shooting=*/false));
  const auto stream = make_stream(10, 12, 20260808);

  std::size_t settled = 0, oscillatory = 0, improved = 0, shooting_used = 0;
  for (const num::Vec& mult : stream) {
    const SteadyState a = v2.steady_state(mult);
    const SteadyState b = ref.steady_state(mult);

    if (b.converged) {
      // v2 must never lose a candidate the reference resolves.
      ASSERT_TRUE(a.converged) << "v2 lost a reference-converged candidate";
      EXPECT_EQ(a.oscillatory, b.oscillatory) << "classification flipped";
    } else if (a.converged) {
      // The one permitted asymmetry: shooting converging a cycle the
      // windowed reference gave up on.
      EXPECT_TRUE(a.oscillatory);
      ++improved;
      continue;
    }
    if (!a.converged || !b.converged) continue;

    if (!a.oscillatory && !b.oscillatory) {
      ++settled;
      // Settled candidates ride the identical Newton/PTC path over
      // identical root-pool snapshots: bitwise or bust.
      EXPECT_TRUE(num::bitwise_equal(a.state, b.state));
      EXPECT_EQ(a.co2_uptake, b.co2_uptake);
      EXPECT_EQ(a.residual, b.residual);
    } else if (a.oscillatory && b.oscillatory) {
      ++oscillatory;
      shooting_used += a.used_shooting;
      if (a.used_shooting) {
        EXPECT_GT(a.cycle_period, 0.0);
      }
      EXPECT_NEAR(a.co2_uptake, b.co2_uptake, kCycleUptakeBound);
      ASSERT_EQ(a.state.size(), b.state.size());
      for (std::size_t i = 0; i < a.state.size(); ++i) {
        const double bound =
            std::max(kCycleStateBound,
                     kCycleStateRelBound * std::fabs(b.state[i]));
        EXPECT_NEAR(a.state[i], b.state[i], bound) << "i=" << i;
      }
    }
  }

  // The stream must actually exercise both paths, or the harness is
  // vacuous.  The drift is calibrated to leave a minority of candidates in
  // the oscillatory shell (like the kinetics bench).
  EXPECT_GT(settled, stream.size() / 2);
  EXPECT_GT(oscillatory + improved, 0u);
  // The v2 engine must resolve at least part of the cycle tail by shooting
  // (give-ups fall back to the window, so equality with `oscillatory` is
  // not required).
  EXPECT_GT(shooting_used + improved, 0u);
}

TEST(SolverDifferentialTest, ExactRepeatOfALivingCycleIsAnsweredBitwise) {
  const C3Model model(engine_config(/*shooting=*/true));
  const auto stream = make_stream(10, 12, 20260808);

  for (const num::Vec& mult : stream) {
    const SteadyState first = model.steady_state(mult);
    if (!(first.converged && first.oscillatory && first.used_shooting &&
          first.co2_uptake > 0.5)) {
      continue;
    }
    const SteadyState repeat = model.steady_state(mult);
    EXPECT_TRUE(repeat.converged);
    EXPECT_TRUE(repeat.oscillatory);
    EXPECT_TRUE(repeat.pool_exact_hit);
    EXPECT_EQ(repeat.co2_uptake, first.co2_uptake);
    EXPECT_EQ(repeat.cycle_period, first.cycle_period);
    EXPECT_TRUE(num::bitwise_equal(repeat.state, first.state));
    return;  // one living cycle proves the contract
  }
  GTEST_SKIP() << "stream produced no living cycles on this seed";
}

/// FNV-1a over the raw bytes of `value`.
template <typename T>
void fnv1a(std::uint64_t& h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
}

// The absolute answers of the shooting cycle path.  The harness above
// holds shooting to the window only within tolerance, and the golden
// corpus pins only archive members; this hash pins every oscillatory
// answer of the stream bitwise, so a change inside the limit-cycle solver
// that moves any bit of a cycle average fails here.
constexpr std::uint64_t kCyclePathGolden = 0xd49376ff0d2da362ULL;

TEST(SolverDifferentialTest, CyclePathAnswersArePinned) {
  const C3Model model;
  // Every candidate it sees takes the cold path: its pool never holds a
  // cycle anchor.
  C3Config cold_cfg;
  cold_cfg.warm_pool_capacity = 0;
  const C3Model cold(cold_cfg);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t warm_shots = 0, cold_shots = 0;
  for (const num::Vec& mult : make_stream(10, 12, 20260808)) {
    const bool anchored = model.warm_pool().snapshot_cycle_count() > 0;
    const SteadyState ss = model.steady_state(mult);
    if (!ss.oscillatory) continue;
    fnv1a(h, ss.converged);
    fnv1a(h, ss.used_shooting);
    for (const double v : ss.state) fnv1a(h, v);
    fnv1a(h, ss.co2_uptake);
    fnv1a(h, ss.cycle_period);
    if (!ss.used_shooting || ss.pool_exact_hit) continue;
    // With an anchor in the pool the warm shot ran first; its answer is
    // warm unless it matches the cold path's bitwise (the warm shot gave
    // up and the cold bootstrap answered).
    bool from_cold = !anchored;
    if (anchored) {
      const SteadyState c = cold.steady_state(mult);
      from_cold = c.used_shooting && c.co2_uptake == ss.co2_uptake &&
                  num::bitwise_equal(c.state, ss.state);
    }
    ++(from_cold ? cold_shots : warm_shots);
  }
  EXPECT_EQ(h, kCyclePathGolden)
      << std::hex << "0x" << h << std::dec << " (" << warm_shots << " warm, "
      << cold_shots << " cold shots)";
  EXPECT_GT(warm_shots, 0u);
  EXPECT_GT(cold_shots, 0u);
}

TEST(SolverDifferentialTest, ShootingKnobNeverChangesSettledAnswers) {
  // A short all-settled prefix (the early, near-natural generations):
  // engine v1 vs v2 must agree bitwise candidate for candidate, proving
  // the knob only touches the oscillatory tail.
  const C3Model v2(engine_config(true));
  const C3Model ref(engine_config(false));
  const auto stream = make_stream(3, 8, 7);
  for (const num::Vec& mult : stream) {
    const SteadyState a = v2.steady_state(mult);
    const SteadyState b = ref.steady_state(mult);
    ASSERT_EQ(a.converged, b.converged);
    ASSERT_EQ(a.oscillatory, b.oscillatory);
    if (a.converged && !a.oscillatory) {
      EXPECT_TRUE(num::bitwise_equal(a.state, b.state));
      EXPECT_EQ(a.co2_uptake, b.co2_uptake);
    }
  }
}

/// Forwards to a problem and records every candidate it evaluates.
class RecordingProblem final : public moo::Problem {
 public:
  explicit RecordingProblem(const moo::Problem& inner) : inner_(inner) {}

  std::size_t num_variables() const override { return inner_.num_variables(); }
  std::size_t num_objectives() const override { return inner_.num_objectives(); }
  std::span<const double> lower_bounds() const override {
    return inner_.lower_bounds();
  }
  std::span<const double> upper_bounds() const override {
    return inner_.upper_bounds();
  }
  double evaluate(std::span<const double> x,
                  std::span<double> objectives) const override {
    const double violation = inner_.evaluate(x, objectives);
    const std::lock_guard<std::mutex> lock(mutex_);
    candidates_.emplace_back(x.begin(), x.end());
    return violation;
  }
  std::size_t suggest_initial(std::span<num::Vec> out,
                              num::Rng& rng) const override {
    return inner_.suggest_initial(out, rng);
  }
  void commit_epoch() const override { inner_.commit_epoch(); }
  bool last_result_memoizable() const override {
    return inner_.last_result_memoizable();
  }

  [[nodiscard]] const std::vector<num::Vec>& candidates() const {
    return candidates_;
  }

 private:
  const moo::Problem& inner_;
  mutable std::mutex mutex_;
  mutable std::vector<num::Vec> candidates_;
};

struct GateTally {
  std::size_t audited = 0;
  std::size_t valid_scans = 0;
  std::size_t skipped = 0;
};

/// Audits every candidate that reaches the cycle path (anything but a
/// living settled root) and checks the gate's premise on it.
void audit_gate(const C3Model& model, const std::vector<num::Vec>& candidates,
                GateTally& tally) {
  for (const num::Vec& mult : candidates) {
    const SteadyState ss = model.steady_state(mult);
    if (ss.converged && !ss.oscillatory && ss.co2_uptake > 0.5) continue;
    const CycleGateAudit audit = model.audit_cycle_gate(mult);
    ++tally.audited;
    tally.valid_scans += audit.scan_valid;
    tally.skipped += !audit.bootstrap_runs;
    if (audit.scan_valid) {
      EXPECT_TRUE(audit.bootstrap_runs)
          << "the gate skipped a valid period scan (" << audit.crossings
          << " crossings in the window's samples)";
    }
  }
}

TEST(SolverDifferentialTest, WindowGatePassesEveryValidPeriodScan) {
  // The cold cycle path runs the Ros3 bootstrap only when the window's
  // ROS2 legs show the trajectory oscillating.  Answers stay bit-identical
  // to running the bootstrap unconditionally as long as the gate never
  // skips a candidate whose period scan is valid — an invalid scan returns
  // no cycle, so skipping it changes nothing.
  GateTally tally;
  {
    const C3Model model(engine_config(/*shooting=*/true));
    audit_gate(model, make_stream(10, 12, 20260808), tally);
  }
  {
    // One present-high PMO2 run: there the bulk of the cold candidates
    // drift instead of oscillating, which is what the gate is for.
    const auto problem = make_problem(*scenario_by_label("present-high"));
    const RecordingProblem recording(*problem);
    moo::Pmo2Options o;
    o.islands = 2;
    o.generations = 2;
    o.migration_interval = 2;
    o.seed = 11;
    o.island_threads = 1;
    moo::Pmo2 pmo2(recording, o, moo::Pmo2::default_nsga2_factory(8));
    pmo2.run();
    audit_gate(problem->model(), recording.candidates(), tally);
  }
  // Neither side of the premise may be vacuous.
  EXPECT_GT(tally.valid_scans, 0u);
  EXPECT_GT(tally.skipped, 0u);
}

}  // namespace
}  // namespace rmp::kinetics
