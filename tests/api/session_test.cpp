// Crash/resume differential suite for api::Session — the checkpoint
// acceptance bar of the determinism contract: a run serialized at ANY epoch
// boundary and restored into a fresh Session must finish with bit-identical
// archive fingerprint, mined candidates and EvalStats totals vs the
// uninterrupted run, for any island thread count, with the kinetic warm
// pool enabled.  Every resume here crosses the JSON text boundary
// (dump + parse), exactly what a file crossing exercises.
//
// The second half pins the rejection surface: corrupted or mismatched
// envelopes raise named SpecErrors, never a silent divergent resume.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/spec.hpp"
#include "core/json.hpp"
#include "numeric/vec.hpp"

namespace rmp::api {
namespace {

RunSpec zdt_spec() {
  RunSpec spec;
  spec.problem = "zdt1?n=6";
  spec.optimizer = "nsga2?population=16";
  spec.generations = 10;
  spec.seed = 11;
  spec.threads = 1;
  return spec;
}

RunSpec kinetic_spec(std::size_t threads) {
  RunSpec spec;
  spec.problem = "photosynthesis?scenario=present-low&pool=4096";
  spec.optimizer =
      "pmo2?islands=2&population=8&migration_interval=2&migrants=2";
  spec.generations = 6;
  spec.seed = 7;
  spec.threads = threads;
  spec.robustness.enabled = true;
  spec.robustness.trials = 4;
  return spec;
}

/// Runs to epoch `at`, checkpoints, abandons the session, and finishes a
/// fresh one restored through serialized text.
RunResult run_with_interrupt(const RunSpec& spec, std::size_t at) {
  core::Json envelope;
  {
    Session session(spec);
    while (session.epoch() < at) session.step_epoch();
    envelope = core::Json::parse(session.checkpoint().dump(2));
  }  // the interrupted session dies here, state travels only as text
  Session resumed = Session::resume(envelope);
  EXPECT_EQ(resumed.epoch(), at);
  return resumed.finish();
}

void expect_identical(const RunResult& a, const RunResult& b, const char* what) {
  EXPECT_EQ(a.fingerprint, b.fingerprint) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  EXPECT_EQ(a.eval_stats.evaluations, b.eval_stats.evaluations) << what;
  EXPECT_EQ(a.eval_stats.prescreen_skips, b.eval_stats.prescreen_skips) << what;
  EXPECT_EQ(a.eval_stats.pool_hits, b.eval_stats.pool_hits) << what;
  EXPECT_EQ(a.eval_stats.full_evaluations, b.eval_stats.full_evaluations) << what;
  ASSERT_EQ(a.mined.size(), b.mined.size()) << what;
  for (std::size_t i = 0; i < a.mined.size(); ++i) {
    EXPECT_EQ(a.mined[i].selection, b.mined[i].selection) << what;
    EXPECT_EQ(a.mined[i].front_index, b.mined[i].front_index) << what;
    EXPECT_TRUE(num::bitwise_equal(a.mined[i].x, b.mined[i].x)) << what;
    EXPECT_TRUE(num::bitwise_equal(a.mined[i].objectives, b.mined[i].objectives))
        << what;
    ASSERT_EQ(a.mined[i].yield.has_value(), b.mined[i].yield.has_value()) << what;
    if (a.mined[i].yield) {
      EXPECT_EQ(a.mined[i].yield->gamma, b.mined[i].yield->gamma) << what;
    }
  }
}

/// Checkpoint epochs the ISSUE names: first, mid, last-but-one.
std::vector<std::size_t> interrupt_points(const RunSpec& spec) {
  return {1, spec.generations / 2, spec.generations - 1};
}

TEST(SessionResumeTest, Nsga2KillAndResumeMatchesUninterrupted) {
  const RunSpec spec = zdt_spec();
  const RunResult baseline = run(spec);
  for (const std::size_t at : interrupt_points(spec)) {
    const RunResult resumed = run_with_interrupt(spec, at);
    expect_identical(baseline, resumed,
                     ("nsga2 resumed at " + std::to_string(at)).c_str());
  }
}

TEST(SessionResumeTest, Spea2AndMoeadKillAndResumeMatch) {
  for (const char* optimizer : {"spea2?population=16&archive=12",
                                "moead?population=16&neighborhood=5"}) {
    RunSpec spec = zdt_spec();
    spec.optimizer = optimizer;
    const RunResult baseline = run(spec);
    const RunResult resumed = run_with_interrupt(spec, spec.generations / 2);
    expect_identical(baseline, resumed, optimizer);
  }
}

TEST(SessionResumeTest, KineticPmo2KillAndResumeAcrossThreadCounts) {
  // The acceptance criterion verbatim: pmo2 x photosynthesis with the warm
  // pool on, island_threads {1, 2, 8}, interrupted at every named
  // epoch — bit-identical fingerprint, mined candidates, EvalStats.
  const RunResult baseline = run(kinetic_spec(1));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const RunSpec spec = kinetic_spec(threads);
    for (const std::size_t at : interrupt_points(spec)) {
      const RunResult resumed = run_with_interrupt(spec, at);
      expect_identical(baseline, resumed,
                       ("kinetic t=" + std::to_string(threads) + " at=" +
                        std::to_string(at))
                           .c_str());
    }
  }
}

TEST(SessionResumeTest, ResumeOfFinalEpochCheckpointRunsPostStages) {
  const RunSpec spec = zdt_spec();
  const RunResult baseline = run(spec);
  const RunResult resumed = run_with_interrupt(spec, spec.generations);
  expect_identical(baseline, resumed, "resumed when already done");
}

TEST(SessionObserverTest, ProgressEventsCarryCumulativeEvalStats) {
  RunSpec spec = kinetic_spec(2);
  std::vector<SessionProgress> events;
  const RunResult result =
      run(spec, [&](const SessionProgress& p) { events.push_back(p); });
  ASSERT_EQ(events.size(), spec.generations);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].epoch, i + 1);
    EXPECT_EQ(events[i].total_epochs, spec.generations);
    if (i > 0) {
      // Cumulative counters never move backwards between barriers.
      EXPECT_GE(events[i].evaluations, events[i - 1].evaluations);
      EXPECT_GE(events[i].eval_stats.evaluations,
                events[i - 1].eval_stats.evaluations);
      EXPECT_GE(events[i].eval_stats.full_evaluations,
                events[i - 1].eval_stats.full_evaluations);
    }
  }
  // The final event's stats cover the whole optimize stage; the result's
  // totals only add the post-stage (robustness) work on top.
  EXPECT_EQ(events.back().evaluations, result.evaluations);
  EXPECT_GE(result.eval_stats.evaluations,
            events.back().eval_stats.evaluations);
}

TEST(SessionObserverTest, FinalProgressFingerprintIsTheRunFingerprint) {
  const RunSpec spec = zdt_spec();
  std::vector<SessionProgress> events;
  const RunResult result =
      run(spec, [&](const SessionProgress& p) { events.push_back(p); });
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().fingerprint, result.fingerprint);
}

TEST(SessionCheckpointKnobTest, PeriodicCheckpointFileResumes) {
  const std::string path = testing::TempDir() + "rmp_session_knob.ckpt.json";
  RunSpec spec = zdt_spec();
  spec.checkpoint_every = 3;
  spec.checkpoint_path = path;
  const RunResult baseline = run(spec);
  // The last write happens at the final epoch; resuming it replays only the
  // post-stages and must land on the same result.
  Session resumed = Session::resume(core::load_json_file(path));
  EXPECT_TRUE(resumed.done());
  const RunResult replay = resumed.finish();
  expect_identical(baseline, replay, "resume of the cadence checkpoint");
}

TEST(SessionCheckpointKnobTest, CadenceWithoutPathIsRejected) {
  RunSpec spec = zdt_spec();
  spec.checkpoint_every = 2;
  EXPECT_THROW((void)run(spec), SpecError);
}

// ---- rejection surface ----------------------------------------------------

core::Json checkpoint_of(const RunSpec& spec, std::size_t at) {
  Session session(spec);
  while (session.epoch() < at) session.step_epoch();
  return session.checkpoint();
}

/// Copy of an object document minus one key (Json has no erase).
core::Json without(const core::Json& doc, std::string_view key) {
  core::Json out = core::Json::object();
  for (const auto& [k, v] : doc.entries()) {
    if (k != key) out.set(k, v);
  }
  return out;
}

void expect_rejected(const core::Json& envelope, const std::string& needle) {
  try {
    (void)Session::resume(envelope);
    FAIL() << "expected SpecError mentioning \"" << needle << "\"";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(SessionRejectionTest, NonCheckpointDocuments) {
  expect_rejected(core::Json::parse("[1, 2, 3]"), "not a JSON object");
  expect_rejected(core::Json::object().set("kind", "something-else"),
                  "not an rmp checkpoint");
  expect_rejected(core::Json::object(), "missing \"kind\"");
}

TEST(SessionRejectionTest, WrongStateVersion) {
  core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  ckpt.set("state_version", Session::kStateVersion + 1);
  expect_rejected(ckpt, "state_version");
}

TEST(SessionRejectionTest, Version1CheckpointIsRejected) {
  // Version 1 envelopes could nest an evaluation-cache layer in the problem
  // state and echo a "cache" spec key; the version check names the cause
  // before either is looked at.
  core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  core::Json spec = ckpt.at("spec");
  spec.set("cache", std::uint64_t{4096});
  ckpt.set("spec", std::move(spec));
  ckpt.set("state_version", std::int64_t{1});
  expect_rejected(ckpt, "state_version");
}

TEST(SessionRejectionTest, SpecHashMismatchNamesTheCause) {
  core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  // A checkpoint whose spec echo was edited (different seed => different
  // trajectory) no longer matches the recorded hash.
  RunSpec other = zdt_spec();
  other.seed = 12;
  ckpt.set("spec", spec_to_json(other));
  expect_rejected(ckpt, "spec_hash");
}

TEST(SessionRejectionTest, MissingSections) {
  const core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  expect_rejected(without(ckpt, "optimizer"), "missing \"optimizer\"");
  expect_rejected(without(ckpt, "archive"), "missing \"archive\"");
  expect_rejected(without(ckpt, "fingerprint"), "missing \"fingerprint\"");
}

TEST(SessionRejectionTest, CorruptedArchiveFingerprint) {
  core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  core::Json archive = ckpt.at("archive");  // copy, then corrupt
  archive.set("fingerprint", core::Json::hex(0xdeadbeefULL));
  ckpt.set("archive", std::move(archive));
  expect_rejected(ckpt, "fingerprint mismatch");
}

TEST(SessionRejectionTest, EnginePopulationSizeMismatch) {
  // A checkpoint written by a different population size must not load into
  // this engine even when the spec echo is consistent with itself.
  core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  RunSpec bigger = zdt_spec();
  bigger.optimizer = "nsga2?population=32";
  core::Json target = checkpoint_of(bigger, 1);
  target.set("optimizer", ckpt.at("optimizer"));
  expect_rejected(target, "population");
}

TEST(SessionRejectionTest, EpochBeyondGenerations) {
  core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  ckpt.set("epoch", std::uint64_t{99});
  expect_rejected(ckpt, "generations");
}

TEST(SessionRejectionTest, WrongEngineStateIsNamed) {
  // nsga2 state fed to a spea2 session: the engine tag check fires.
  core::Json ckpt = checkpoint_of(zdt_spec(), 2);
  RunSpec spea = zdt_spec();
  spea.optimizer = "spea2?population=16";
  core::Json target = checkpoint_of(spea, 2);
  target.set("optimizer", ckpt.at("optimizer"));
  expect_rejected(target, "engine");
}

TEST(SpecStateHashTest, CheckpointKnobsAreNormalizedOut) {
  RunSpec a = zdt_spec();
  RunSpec b = zdt_spec();
  b.checkpoint_every = 5;
  b.checkpoint_path = "/tmp/elsewhere.json";
  EXPECT_EQ(spec_state_hash(a), spec_state_hash(b));
  b.seed = 12;
  EXPECT_NE(spec_state_hash(a), spec_state_hash(b));
}

}  // namespace
}  // namespace rmp::api
