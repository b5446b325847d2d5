#include "api/serve.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "core/fsio.hpp"
#include "core/json.hpp"

namespace rmp::api {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSubdirs[] = {"jobs", "work", "events", "results",
                                    "failed"};

/// Admissible job files: "<id>.json" with a non-empty id, no dotfiles and no
/// in-flight temp files.
bool is_job_file(const fs::path& path) {
  return path.extension() == ".json" && !path.stem().empty() &&
         path.filename().string().front() != '.';
}

bool valid_owner(const std::string& owner) {
  if (owner.empty()) return false;
  for (const char c : owner) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Heartbeats are liveness metadata for stale-lease detection only; they
/// steer which worker runs a job, never what the job computes — archive
/// fingerprints are independent of them by construction.
std::int64_t now_ms() {
  // lint: allow(wall-clock) lease-liveness heartbeat only, never in results
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
}

/// mtime in milliseconds — the staleness fallback for claims that were
/// renamed but never heartbeat-stamped (owner died inside one round).
std::int64_t mtime_ms(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000 +
         st.st_mtim.tv_nsec / 1000000;
}

void remove_quiet(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

void move_quiet(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
}

/// Reads a whole file; empty optional when it cannot be opened.  (Reads
/// need no write-path discipline — torn content is handled by the JSON
/// parser failing and the caller's quarantine path.)
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

/// The type of the last parseable event in a JSONL stream, "" when none.
std::string last_event_type(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const core::Json event = core::Json::parse(line);
      const core::Json* type = event.find("type");
      if (type != nullptr && type->is_string()) last = type->as_string();
    } catch (const core::JsonError&) {
      // torn line — recovery appends a newline + segment start after it
    }
  }
  return last;
}

}  // namespace

JobServer::JobServer(ServeOptions options) : options_(std::move(options)) {
  if (options_.spool.empty()) {
    throw SpecError("rmp_serve needs a spool directory");
  }
  if (options_.owner.empty()) {
    options_.owner = "w" + std::to_string(::getpid());
  }
  if (!valid_owner(options_.owner)) {
    throw SpecError("worker owner \"" + options_.owner +
                    "\" is not [A-Za-z0-9_-]+");
  }
  for (const char* sub : kSubdirs) {
    std::error_code ec;
    fs::create_directories(fs::path(options_.spool) / sub, ec);
    if (ec) {
      throw SpecError("cannot create spool directory \"" + options_.spool +
                      "/" + sub + "\": " + ec.message());
    }
  }
}

std::string JobServer::jobs_file(const std::string& id) const {
  return options_.spool + "/jobs/" + id + ".json";
}

std::string JobServer::claim_file(const std::string& id) const {
  return options_.spool + "/work/" + id + ".claim." + options_.owner;
}

std::string JobServer::checkpoint_file(const std::string& id) const {
  return options_.spool + "/work/" + id + ".checkpoint.json";
}

std::string JobServer::prev_checkpoint_file(const std::string& id) const {
  return options_.spool + "/work/" + id + ".checkpoint.prev.json";
}

std::string JobServer::events_file(const std::string& id) const {
  return options_.spool + "/events/" + id + ".jsonl";
}

std::string JobServer::results_file(const std::string& id) const {
  return options_.spool + "/results/" + id + ".json";
}

std::string JobServer::failed_file(const std::string& id) const {
  return options_.spool + "/failed/" + id + ".json";
}

bool JobServer::is_active(const std::string& id) const {
  return std::any_of(jobs_.begin(), jobs_.end(),
                     [&](const Job& j) { return j.id == id; });
}

core::Json JobServer::claim_doc(const Job& job, std::int64_t heartbeat) const {
  return core::Json::object()
      .set("kind", "rmp-claim")
      .set("job", job.id)
      .set("owner", options_.owner)
      .set("attempts", static_cast<std::uint64_t>(job.attempts))
      .set("heartbeat_ms", heartbeat)
      .set("spec", spec_to_json(job.session.spec()));
}

void JobServer::append_event(const std::string& id, const char* type,
                             core::Json extra) const {
  extra.set("type", type);
  extra.set("job", id);
  extra.set("worker", options_.owner);
  core::append_line(events_file(id), extra.dump(0), "event.append");
}

void JobServer::append_progress_event(const Job& job) const {
  core::Json line = progress_to_json(job.session.progress());
  append_event(job.id, "epoch", std::move(line));
}

void JobServer::write_checkpoint(const Job& job) {
  // Rotate before writing so a torn write never destroys the only good
  // checkpoint: the previous one survives as .checkpoint.prev.json and is
  // the adoption path's second resume candidate.
  const std::string current = checkpoint_file(job.id);
  if (fs::exists(current)) move_quiet(current, prev_checkpoint_file(job.id));
  core::atomic_write_file(current, job.session.checkpoint().dump(0) + "\n",
                          "checkpoint.write");
}

void JobServer::quarantine_file(const std::string& id, const std::string& path,
                                const std::string& reason) {
  std::string target;
  for (int n = 0;; ++n) {
    target = options_.spool + "/work/" + id + ".corrupt." + std::to_string(n);
    if (!fs::exists(target)) break;
  }
  move_quiet(path, target);
  try {
    append_event(id, "quarantined",
                 core::Json::object()
                     .set("file", fs::path(target).filename().string())
                     .set("reason", reason));
  } catch (const core::IoError&) {
    // quarantine evidence is on disk either way
  }
}

std::optional<Session> JobServer::build_session(const std::string& id,
                                                const RunSpec& spec,
                                                std::string& error) {
  // Resume chain: latest checkpoint, then the rotated previous one, then
  // the pristine spec.  Corrupt or mismatched state is quarantined, never
  // trusted and never fatal — the job always has a path forward.
  for (const std::string& candidate :
       {checkpoint_file(id), prev_checkpoint_file(id)}) {
    if (!fs::exists(candidate)) continue;
    try {
      Session session = Session::resume(load_checkpoint_file(candidate));
      if (spec_state_hash(session.spec()) != spec_state_hash(spec)) {
        throw SpecError(
            "checkpoint was written for a different spec/seed than the "
            "submitted job");
      }
      return session;
    } catch (const SpecError& e) {
      quarantine_file(id, candidate, e.what());
    }
  }
  try {
    return Session(spec);
  } catch (const std::exception& e) {
    error = e.what();
    return std::nullopt;
  }
}

void JobServer::activate_claim(const std::string& id, const RunSpec& spec,
                               const char* event_type, std::size_t attempts,
                               TickReport& report) {
  // A torn drain can leave the released spec in jobs/ with the claim still
  // present; the claim is authoritative, so drop the leftover (it would
  // otherwise be re-admitted after this run completes).
  remove_quiet(jobs_file(id));
  core::repair_jsonl_tail(events_file(id));

  if (fs::exists(results_file(id))) {
    // The previous owner died between the result write and the claim
    // unlink.  The result artifact is the commit point: finalize, never
    // re-run — this is what makes "no job completed twice" hold.
    remove_quiet(claim_file(id));
    remove_quiet(checkpoint_file(id));
    remove_quiet(prev_checkpoint_file(id));
    const std::string last = last_event_type(events_file(id));
    if (last != "completed" && last != "failed") {
      try {
        append_event(id, "completed",
                     core::Json::object().set("recovered", true));
      } catch (const core::IoError&) {
      }
    }
    ++report.completed;
    return;
  }

  std::string error;
  std::optional<Session> session = build_session(id, spec, error);
  if (!session) {
    fail_job(id, error, report);
    return;
  }
  const std::size_t cadence = spec.checkpoint_every > 0
                                  ? spec.checkpoint_every
                                  : options_.default_checkpoint_every;
  jobs_.push_back(Job{id, std::move(*session), cadence, attempts, 0});
  try {
    append_event(id, event_type,
                 core::Json::object().set(
                     "epoch",
                     static_cast<std::uint64_t>(jobs_.back().session.epoch())));
  } catch (const core::IoError&) {
    // the claim and the session are what matter; the event is telemetry
  }
  ++report.admitted;
}

void JobServer::scan_work(TickReport& report) {
  struct Found {
    std::string id;
    std::string owner;
    std::string path;
  };
  std::vector<Found> claims;
  std::error_code ec;
  const std::string work = options_.spool + "/work";
  for (fs::directory_iterator it(work, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.empty() || name.front() == '.') continue;
    const std::size_t pos = name.find(".claim.");
    if (pos == std::string::npos || pos == 0) continue;
    const std::string owner = name.substr(pos + 7);
    if (owner.empty()) continue;
    claims.push_back(Found{name.substr(0, pos), owner, it->path().string()});
  }
  std::sort(claims.begin(), claims.end(),
            [](const Found& a, const Found& b) { return a.id < b.id; });

  for (const Found& found : claims) {
    if (is_active(found.id)) continue;

    const char* event_type = "resumed";
    std::string claim_path = found.path;
    if (found.owner != options_.owner) {
      // Foreign claim: live unless its heartbeat (or, for a claim that
      // died before its first stamp, its mtime) is past the lease timeout.
      std::int64_t heartbeat = 0;
      std::optional<std::string> text = slurp(found.path);
      if (text) {
        try {
          const core::Json doc = core::Json::parse(*text);
          const core::Json* hb = doc.find("heartbeat_ms");
          if (hb != nullptr) heartbeat = hb->as_int();
        } catch (const std::exception&) {
          // unreadable claim — age it by mtime below
        }
      }
      if (heartbeat == 0) heartbeat = mtime_ms(found.path);
      if (now_ms() - heartbeat <= options_.lease_timeout_ms) continue;
      // Stale lease: take it over with an atomic rename — exactly one of
      // N racing reclaimers wins, the rest see ENOENT.
      try {
        if (!core::rename_claim(found.path, claim_file(found.id),
                                "job.reclaim")) {
          continue;
        }
      } catch (const core::IoError&) {
        continue;
      }
      event_type = "reclaimed";
      claim_path = claim_file(found.id);
      ++report.reclaimed;
    }

    // Adoption: the claim doc (or, for a claim that died between the
    // admission rename and the first heartbeat, the raw spec) carries the
    // spec and the accumulated transient-failure count.
    std::optional<std::string> text = slurp(claim_path);
    RunSpec spec;
    std::size_t attempts = 0;
    try {
      if (!text) throw SpecError("claim \"" + claim_path + "\" is unreadable");
      const core::Json doc = core::Json::parse(*text);
      const core::Json* kind = doc.find("kind");
      if (kind != nullptr && kind->is_string() &&
          kind->as_string() == "rmp-claim") {
        const core::Json* spec_field = doc.find("spec");
        if (spec_field == nullptr) {
          throw SpecError("claim \"" + claim_path + "\" has no spec echo");
        }
        spec = spec_from_json(*spec_field);
        const core::Json* att = doc.find("attempts");
        if (att != nullptr) attempts = att->as_size();
      } else {
        spec = spec_from_json(doc);
      }
    } catch (const std::exception& e) {
      fail_job(found.id, e.what(), report);
      continue;
    }
    activate_claim(found.id, spec, event_type, attempts, report);
  }
}

void JobServer::admit_new_jobs(TickReport& report) {
  std::vector<fs::path> candidates;
  std::error_code ec;
  for (fs::directory_iterator it(options_.spool + "/jobs", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec) && is_job_file(it->path())) {
      candidates.push_back(it->path());
    }
  }
  // Filename order, so the admission sequence (and with it the round-robin
  // schedule) is a pure function of the spool contents.
  std::sort(candidates.begin(), candidates.end());

  for (const fs::path& path : candidates) {
    const std::string id = path.stem().string();
    if (is_active(id)) continue;
    // A claim anywhere in work/ means the job is owned (or awaiting lease
    // reclaim) — the recovery scan is the only admission path for those.
    bool claimed = false;
    std::error_code scan_ec;
    for (fs::directory_iterator it(options_.spool + "/work", scan_ec), end;
         !scan_ec && it != end; it.increment(scan_ec)) {
      const std::string name = it->path().filename().string();
      if (name.rfind(id + ".claim.", 0) == 0) {
        claimed = true;
        break;
      }
    }
    if (claimed) continue;

    // Rename-claim: atomic, so exactly one of N racing workers admits the
    // job; the losers see ENOENT and move on.
    try {
      if (!core::rename_claim(path.string(), claim_file(id), "job.claim")) {
        continue;
      }
    } catch (const core::IoError&) {
      continue;
    }

    try {
      const core::Json doc = core::Json::parse(
          slurp(claim_file(id)).value_or(""));
      const RunSpec spec = spec_from_json(doc);
      // A work/ checkpoint means a previous worker drained this job
      // mid-run and released it; activate_claim resumes it bit-exactly.
      const bool resuming = fs::exists(checkpoint_file(id)) ||
                            fs::exists(prev_checkpoint_file(id));
      activate_claim(id, spec, resuming ? "resumed" : "admitted", 0, report);
    } catch (const std::exception& e) {
      fail_job(id, e.what(), report);
    }
  }
}

void JobServer::step_jobs(TickReport& report,
                          std::vector<std::string>& dropped) {
  for (Job& job : jobs_) {
    if (options_.step_limit > 0 && total_stepped_ >= options_.step_limit) {
      break;
    }
    if (job.session.done()) continue;
    if (round_ < job.next_round) continue;  // transient backoff
    // Ownership check: if the claim is gone, another worker decided this
    // lease was stale and re-adopted the job — drop it without finalizing
    // anything.  (The residual race — a reclaim landing between this check
    // and the epoch commit — only duplicates work, never results: the
    // result artifact is the sole commit point.)
    if (!fs::exists(claim_file(job.id))) {
      try {
        append_event(job.id, "preempted", core::Json::object());
      } catch (const core::IoError&) {
      }
      dropped.push_back(job.id);
      continue;
    }
    try {
      job.session.step_epoch();
      ++total_stepped_;
      ++report.stepped;
      job.attempts = 0;
      append_progress_event(job);
      if (job.cadence > 0 && job.session.epoch() % job.cadence == 0) {
        write_checkpoint(job);
      }
    } catch (const core::TransientError& e) {
      ++job.attempts;
      if (job.attempts >= options_.max_attempts) {
        fail_job(job.id,
                 "poison job: " + std::to_string(job.attempts) +
                     " consecutive transient failures, last: " + e.what(),
                 report);
        dropped.push_back(job.id);
        continue;
      }
      // Bounded exponential backoff, attempt-indexed — deterministic, no
      // wall-clock in the decision path.
      const std::size_t backoff = std::size_t{1}
                                  << std::min<std::size_t>(job.attempts, 6);
      job.next_round = round_ + backoff;
      ++report.retried;
      try {
        append_event(job.id, "retry",
                     core::Json::object()
                         .set("epoch", static_cast<std::uint64_t>(
                                           job.session.epoch()))
                         .set("attempts",
                              static_cast<std::uint64_t>(job.attempts))
                         .set("backoff_rounds",
                              static_cast<std::uint64_t>(backoff))
                         .set("error", e.what()));
      } catch (const core::IoError&) {
      }
    } catch (const std::exception& e) {
      fail_job(job.id, e.what(), report);
      dropped.push_back(job.id);
    }
  }
}

void JobServer::fail_job(const std::string& id, const std::string& why,
                         TickReport& report) {
  core::Json record = core::Json::object();
  record.set("job", id);
  record.set("worker", options_.owner);
  record.set("error", why);
  try {
    core::atomic_write_file(failed_file(id), record.dump(2) + "\n");
  } catch (const core::IoError&) {
    // The failure record is diagnostics; losing it must not wedge the
    // scheduler (the claim still moves out of work/ below).
  }
  // Keep the evidence next to the error record instead of deleting it.
  move_quiet(claim_file(id), options_.spool + "/failed/" + id + ".spec.json");
  move_quiet(checkpoint_file(id),
             options_.spool + "/failed/" + id + ".checkpoint.json");
  move_quiet(prev_checkpoint_file(id),
             options_.spool + "/failed/" + id + ".checkpoint.prev.json");
  try {
    append_event(id, "failed", core::Json::object().set("error", why));
  } catch (const core::IoError&) {
  }
  ++report.failed;
}

void JobServer::complete_job(Job& job, TickReport& report) {
  const RunResult result = job.session.finish();
  // The result artifact is the completion commit point: it lands with an
  // fsynced atomic rename, and every later step (event, claim unlink) is
  // recoverable from "results/<id>.json exists".
  core::atomic_write_file(results_file(job.id),
                          result_to_json(result).dump(2) + "\n",
                          "result.write");
  core::fault_point("result.rename");
  try {
    append_event(job.id, "completed",
                 core::Json::object().set(
                     "epoch",
                     static_cast<std::uint64_t>(job.session.epoch())));
  } catch (const core::IoError&) {
  }
  remove_quiet(claim_file(job.id));
  remove_quiet(checkpoint_file(job.id));
  remove_quiet(prev_checkpoint_file(job.id));
  ++report.completed;
}

void JobServer::finish_done_jobs(TickReport& report,
                                 const std::vector<std::string>& dropped) {
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    const bool gone =
        std::find(dropped.begin(), dropped.end(), it->id) != dropped.end();
    bool remove = gone;
    if (!gone && it->session.done()) {
      try {
        complete_job(*it, report);
        remove = true;
      } catch (const core::TransientError& e) {
        ++it->attempts;
        if (it->attempts >= options_.max_attempts) {
          fail_job(it->id,
                   "poison job: " + std::to_string(it->attempts) +
                       " consecutive transient failures, last: " + e.what(),
                   report);
          remove = true;
        } else {
          it->next_round =
              round_ + (std::size_t{1}
                        << std::min<std::size_t>(it->attempts, 6));
          ++report.retried;
        }
      } catch (const std::exception& e) {
        fail_job(it->id, e.what(), report);
        remove = true;
      }
    }
    it = remove ? jobs_.erase(it) : ++it;
  }
}

void JobServer::stamp_heartbeats() {
  const std::int64_t now = now_ms();
  for (const Job& job : jobs_) {
    // Refresh, never create: if the claim vanished, another worker owns
    // the job now and writing here would fork ownership.  (step_jobs
    // appends the "preempted" event and drops the job next round.)
    if (!fs::exists(claim_file(job.id))) continue;
    try {
      core::atomic_write_file(claim_file(job.id),
                              claim_doc(job, now).dump(2) + "\n");
    } catch (const core::IoError&) {
      // a missed heartbeat ages the lease; the next round retries
    }
  }
}

TickReport JobServer::tick() {
  ++round_;
  TickReport report;
  scan_work(report);
  admit_new_jobs(report);

  std::vector<std::string> dropped;
  step_jobs(report, dropped);
  finish_done_jobs(report, dropped);
  stamp_heartbeats();

  report.active = jobs_.size();
  return report;
}

void JobServer::checkpoint_all() {
  for (Job& job : jobs_) {
    try {
      write_checkpoint(job);
    } catch (const core::IoError&) {
      // Drain as many jobs as the disk allows; one bad volume must not
      // abort the release of the others (the job re-adopts from the
      // previous checkpoint instead).
    }
    // Release order matters for crash safety: spec back into jobs/ first,
    // claim unlink last — a crash in between leaves both, and adoption
    // removes the jobs/ leftover when it re-claims.
    try {
      core::atomic_write_file(jobs_file(job.id),
                              spec_to_json(job.session.spec()).dump(2) + "\n");
    } catch (const core::IoError&) {
      // claim stays; the lease-reclaim path recovers this job
      continue;
    }
    remove_quiet(claim_file(job.id));
    try {
      append_event(job.id, "released",
                   core::Json::object().set(
                       "epoch",
                       static_cast<std::uint64_t>(job.session.epoch())));
    } catch (const core::IoError&) {
    }
  }
  jobs_.clear();
}

void JobServer::run(const std::atomic<bool>& stop) {
  while (true) {
    if (stop.load(std::memory_order_relaxed)) {
      checkpoint_all();
      return;
    }
    const TickReport report = tick();
    if (stop.load(std::memory_order_relaxed) ||
        (options_.step_limit > 0 && total_stepped_ >= options_.step_limit)) {
      checkpoint_all();
      return;
    }
    if (options_.drain && report.active == 0 && report.admitted == 0 &&
        report.stepped == 0) {
      return;
    }
    if (report.stepped == 0 && report.admitted == 0 && report.completed == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
  }
}

}  // namespace rmp::api
