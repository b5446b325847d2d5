// api::Session — one RunSpec's optimize stage as a resumable object.
//
// api::run() executes a spec in one sweep; a service multiplexing many runs
// needs the same pipeline sliced into epoch-sized steps that can pause,
// checkpoint, and resume in a different process.  The determinism contract
// makes that slicing exact: all mutable run state (engine populations, RNG
// stream positions, the run archive, the problem's warm pool) moves only at
// serial epoch barriers, so a Session serialized at an epoch boundary and
// restored into a fresh process continues bit-exactly —
// the resumed run's archive fingerprint, mined candidates and EvalStats
// totals are identical to the uninterrupted run's, for any island_threads.
//
//   Session s(spec);                 // construct + initialize (epoch 0)
//   while (!s.done()) s.step_epoch();
//   RunResult r = s.finish();        // mining + robustness post-stages
//
//   core::Json ckpt = s.checkpoint();      // at any epoch boundary
//   Session t = Session::resume(ckpt);     // fresh process, same spec/seed
//
// The checkpoint is a versioned envelope: {state_version, kind, spec echo,
// spec_hash, epoch, optimizer, archive, problem, fingerprint}.  resume()
// rejects — with SpecError, never a silent divergence — a document that is
// not a checkpoint, carries a different state_version, fails the spec-hash
// cross-check, or whose restored archive does not re-derive the recorded
// fingerprint.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "api/run.hpp"
#include "api/spec.hpp"
#include "core/json.hpp"
#include "moo/algorithm.hpp"
#include "moo/archive.hpp"
#include "moo/problem.hpp"

namespace rmp::api {

/// Committed-epoch progress event: cumulative counters as of the epoch
/// barrier.  eval_stats carries the full accounting breakdown
/// (prescreen_skips/pool_hits/full_evaluations) every epoch —
/// not only at end-of-run as RunResult does.
struct SessionProgress {
  std::size_t epoch = 0;         ///< committed epochs (0 = initialized only)
  std::size_t total_epochs = 0;  ///< spec.generations
  std::size_t evaluations = 0;   ///< Optimizer::evaluations() so far
  moo::EvalStats eval_stats;     ///< cumulative problem-side accounting
  /// Archive fingerprint at this barrier: the run archive's for
  /// single-population engines, the cumulative archive view's for PMO2.
  std::uint64_t fingerprint = 0;
};

[[nodiscard]] core::Json progress_to_json(const SessionProgress& progress);

class Session {
 public:
  /// Invoked after every committed epoch (step_epoch and the epochs
  /// finish() drives), with cumulative stats — the per-generation observer
  /// hook of Optimizer::run, preserved across the run-layer split.
  using Observer = std::function<void(const SessionProgress&)>;

  /// Envelope schema version; bumped when the checkpoint layout changes
  /// (2: the problem state no longer nests an evaluation-cache layer).
  static constexpr std::int64_t kStateVersion = 2;

  /// Builds problem + optimizer from the spec and runs epoch 0
  /// (Optimizer::initialize, including the initial population's archive
  /// merge and epoch commit).  Throws SpecError on unresolvable references.
  explicit Session(RunSpec spec);

  /// Restores a checkpoint() envelope into a fresh Session (same spec,
  /// rebuilt from the envelope's echo).  Throws SpecError on any envelope
  /// mismatch (see the header comment) and on structurally broken state
  /// documents (moo::StateError is rewrapped with envelope context).
  [[nodiscard]] static Session resume(const core::Json& checkpoint);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// One committed generation; undefined once done() (asserts in debug).
  void step_epoch();

  [[nodiscard]] std::size_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t total_epochs() const { return spec_.generations; }
  [[nodiscard]] bool done() const { return epoch_ >= spec_.generations; }
  [[nodiscard]] const RunSpec& spec() const { return spec_; }

  /// Cumulative progress as of the last committed epoch.
  [[nodiscard]] SessionProgress progress() const;

  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Serializes the versioned envelope.  Valid at any epoch boundary —
  /// after construction, resume, or any step_epoch.
  [[nodiscard]] core::Json checkpoint() const;

  /// Drives any remaining epochs (observer fires per epoch), then runs the
  /// mining and robustness post-stages and assembles the RunResult.  The
  /// optimize/mining/robustness timings cover THIS process's work only —
  /// elapsed seconds are operator-facing and deliberately not serialized
  /// into checkpoints.
  [[nodiscard]] RunResult finish();

 private:
  struct ResumeTag {};
  /// Builds problem + optimizer from the spec WITHOUT initializing —
  /// resume() loads state instead.
  Session(RunSpec spec, ResumeTag);

  void construct_stack();

  RunSpec spec_;
  std::shared_ptr<moo::Problem> problem_;
  std::unique_ptr<moo::Optimizer> optimizer_;
  /// The session's run archive.  Single-population engines merge their
  /// committed population here every epoch; PMO2's population() already IS
  /// the cumulative run archive, so the session archive stays empty until
  /// finish() folds the view in once.
  moo::Archive archive_;
  bool cumulative_ = false;
  std::size_t epoch_ = 0;
  Observer observer_;
  double optimize_seconds_ = 0.0;
};

/// api::run with a per-committed-epoch observer — the observer overload
/// lives here because run.hpp predates the Session split.
[[nodiscard]] RunResult run(const RunSpec& spec, const Session::Observer& observer);

/// Loads a checkpoint envelope from disk for Session::resume.  A missing,
/// unreadable, truncated, or otherwise unparseable file throws SpecError
/// naming the file path and (for parse failures) the byte offset of the
/// damage — never a raw JsonError.  Does NOT validate the envelope;
/// Session::resume owns the semantic checks.
[[nodiscard]] core::Json load_checkpoint_file(const std::string& path);

/// Spec identity hash for the checkpoint envelope: FNV-1a over the
/// canonical spec serialization with the checkpoint knobs normalized out
/// (checkpoint_every/checkpoint_path steer WHERE state is written, not what
/// the run computes, so re-spooling a checkpoint under a different cadence
/// or path must not be rejected).
[[nodiscard]] std::uint64_t spec_state_hash(const RunSpec& spec);

}  // namespace rmp::api
