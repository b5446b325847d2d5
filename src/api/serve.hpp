// api::JobServer — the rmp_serve job-queue scheduler: many RunSpecs, N
// worker processes, one spool, epoch-fair multiplexing with checkpointed
// crash recovery.
//
// Jobs are plain RunSpec JSON files dropped into a spool directory; a
// worker validates them with the same strict parser as rmp_run, runs each
// as an api::Session, and interleaves its active jobs one committed epoch
// at a time (round-robin in admission order, admission sorted by filename).
// Sessions share core::global_pool() for their intra-epoch parallelism, so
// "fair" here means epoch-granular.
//
// Spool layout (created on construction):
//
//   <spool>/jobs/<id>.json               submitted RunSpec (unclaimed)
//   <spool>/work/<id>.claim.<owner>      claim doc of the owning worker
//   <spool>/work/<id>.checkpoint.json    latest committed checkpoint
//   <spool>/work/<id>.checkpoint.prev.json  previous good checkpoint
//   <spool>/work/<id>.corrupt.<n>        quarantined torn/corrupt state
//   <spool>/events/<id>.jsonl            JSONL protocol events (see below)
//   <spool>/results/<id>.json            result artifact (rmp_run schema)
//   <spool>/failed/<id>.json             named error + preserved evidence
//
// Multi-worker protocol.  Admission is a rename-claim: jobs/<id>.json is
// renamed to work/<id>.claim.<owner> — rename(2) is atomic, so exactly one
// of N racing workers wins a job and the losers see ENOENT.  The claim doc
// carries the spec echo plus an owner heartbeat stamped every scheduling
// round; a claim whose heartbeat is older than `lease_timeout_ms` is a
// stale lease, and any worker may re-adopt it by atomically renaming the
// claim to its own name (again, one winner).  A re-adopted job resumes
// from its last committed checkpoint; a preempted worker that lost its
// lease drops the job without finalizing anything (the claim file is the
// single source of ownership).
//
// Crash recovery.  Checkpoints rotate (current -> .checkpoint.prev.json)
// through core::atomic_write_file, which fsyncs the file and directory
// around the rename — durable across power loss, not just SIGKILL.  On
// adoption, a checkpoint that fails to parse, fails the envelope checks,
// or was written for a different spec is quarantined as
// work/<id>.corrupt.<n> and the worker falls back to the previous
// checkpoint, then to the pristine spec — the job is never lost and torn
// state is never trusted.  A completed job whose worker died between the
// result write and the claim unlink is finalized on re-adoption (the
// result artifact is the commit point — jobs are never completed twice).
//
// Error taxonomy.  core::TransientError (and its IoError subclass) is
// retryable: the job backs off 2^min(attempts,6) scheduling rounds —
// deterministic and attempt-indexed, no wall-clock in the decision path —
// and is quarantined into failed/ as a poison job after `max_attempts`
// consecutive transient failures.  Every other exception is permanent and
// fails the job immediately, evidence preserved in failed/.
//
// Events.  events/<id>.jsonl is machine-checkable against the protocol
// grammar (api/trace.hpp, tools/rmp_trace_check): segment-starts
// admitted/resumed/reclaimed, per-epoch progress, retry/released/
// preempted/quarantined markers, exactly one completed/failed terminal.
//
// The scheduler itself is single-threaded and deterministic given the
// spool contents: tick() performs one recovery scan + one admission scan +
// one round-robin sweep and is directly testable without signals or
// sleeps.  run() wraps tick() in a poll loop that releases all claims back
// to the spool when `stop` becomes true (the CLI sets it from SIGTERM).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/session.hpp"

namespace rmp::api {

struct ServeOptions {
  std::string spool;  ///< spool root; the five subdirectories live under it
  /// Checkpoint cadence for jobs whose spec leaves checkpoint_every == 0.
  /// 0 = such jobs checkpoint only on shutdown.
  std::size_t default_checkpoint_every = 0;
  /// Stop after this many epochs stepped across all jobs (0 = unlimited) —
  /// a deterministic stand-in for "kill it mid-run" in tests and CI.
  std::size_t step_limit = 0;
  /// Exit run() once the spool is empty instead of polling for new jobs.
  bool drain = false;
  /// Idle poll interval for run(), in milliseconds.
  std::size_t poll_ms = 200;
  /// Worker identity used in claim filenames and events; must match
  /// [A-Za-z0-9_-]+.  Empty = "w<pid>".
  std::string owner{};
  /// A foreign claim whose heartbeat is older than this is a stale lease
  /// eligible for reclaim.  0 = any foreign claim is immediately stale
  /// (single-worker recovery / tests).
  std::int64_t lease_timeout_ms = 30000;
  /// Consecutive transient failures before a job is quarantined into
  /// failed/ as poison.
  std::size_t max_attempts = 5;
};

/// What one scheduling round did; returned by tick() so tests and the run()
/// loop can observe progress without parsing the spool.
struct TickReport {
  std::size_t admitted = 0;   ///< jobs newly claimed, resumed, or re-adopted
  std::size_t reclaimed = 0;  ///< of `admitted`: stale leases taken over
  std::size_t stepped = 0;    ///< epochs advanced across all jobs
  std::size_t retried = 0;    ///< transient failures sent into backoff
  std::size_t completed = 0;  ///< jobs that finished and wrote results
  std::size_t failed = 0;     ///< jobs moved to failed/
  std::size_t active = 0;     ///< jobs still in flight after the round
};

class JobServer {
 public:
  /// Creates the spool layout.  Throws SpecError when the spool root cannot
  /// be set up or the owner name is malformed.
  explicit JobServer(ServeOptions options);

  /// One deterministic scheduling round: recover claims (own orphans,
  /// stale foreign leases, orphaned results), claim new jobs/*.json,
  /// advance every active job one epoch in admission order (skipping jobs
  /// in transient backoff), stamp heartbeats, and complete/fail jobs as
  /// they finish.  Safe to call again after it returns — the server holds
  /// all state between rounds.
  TickReport tick();

  /// Poll loop over tick().  Returns when `stop` becomes true (after
  /// releasing every active job back to the spool — the SIGTERM drain),
  /// when the step limit is hit (same drain), or when draining and the
  /// spool is empty.
  void run(const std::atomic<bool>& stop);

  /// Drain: checkpoint every active job, write its spec back to
  /// jobs/<id>.json, and remove the claim, so any worker can re-adopt
  /// immediately (no lease timeout on the reclaim path).
  void checkpoint_all();

  [[nodiscard]] std::size_t active_jobs() const { return jobs_.size(); }
  [[nodiscard]] std::size_t total_stepped() const { return total_stepped_; }
  [[nodiscard]] const std::string& owner() const { return options_.owner; }

 private:
  struct Job {
    std::string id;          ///< spool filename stem
    Session session;
    std::size_t cadence;     ///< effective checkpoint_every for this job
    std::size_t attempts;    ///< consecutive transient failures
    std::size_t next_round;  ///< backoff: do not step before this round
  };

  [[nodiscard]] std::string jobs_file(const std::string& id) const;
  [[nodiscard]] std::string claim_file(const std::string& id) const;
  [[nodiscard]] std::string checkpoint_file(const std::string& id) const;
  [[nodiscard]] std::string prev_checkpoint_file(const std::string& id) const;
  [[nodiscard]] std::string events_file(const std::string& id) const;
  [[nodiscard]] std::string results_file(const std::string& id) const;
  [[nodiscard]] std::string failed_file(const std::string& id) const;

  [[nodiscard]] bool is_active(const std::string& id) const;
  [[nodiscard]] core::Json claim_doc(const Job& job,
                                     std::int64_t heartbeat) const;
  void append_event(const std::string& id, const char* type,
                    core::Json extra) const;
  void append_progress_event(const Job& job) const;

  /// Recovery scan over work/: re-adopt own claims, reclaim stale foreign
  /// leases, finalize orphaned results.
  void scan_work(TickReport& report);
  /// Rename-claim admission over jobs/ (filename order).
  void admit_new_jobs(TickReport& report);
  /// Common adoption path once this worker holds the claim: resume chain
  /// (checkpoint -> prev -> pristine spec, quarantining corrupt state),
  /// orphan-result finalization, event append, job activation.
  void activate_claim(const std::string& id, const RunSpec& spec,
                      const char* event_type, std::size_t attempts,
                      TickReport& report);
  /// Resume chain with torn-state quarantine; nullopt when even the
  /// pristine spec fails (caller fails the job).
  [[nodiscard]] std::optional<Session> build_session(
      const std::string& id, const RunSpec& spec, std::string& error);
  /// Moves `path` to work/<id>.corrupt.<n> and appends a `quarantined`
  /// event naming the file and the SpecError `reason` that rejected it.
  void quarantine_file(const std::string& id, const std::string& path,
                       const std::string& reason);

  void step_jobs(TickReport& report, std::vector<std::string>& dropped);
  void stamp_heartbeats();
  void write_checkpoint(const Job& job);
  /// Removes the job's spool presence and records the named error.
  void fail_job(const std::string& id, const std::string& why,
                TickReport& report);
  void complete_job(Job& job, TickReport& report);
  void finish_done_jobs(TickReport& report,
                        const std::vector<std::string>& dropped);

  ServeOptions options_;
  std::vector<Job> jobs_;  ///< admission order == round-robin order
  std::size_t total_stepped_ = 0;
  std::size_t round_ = 0;
};

}  // namespace rmp::api
