// api::JobServer — spool admission via rename-claims, epoch-fair
// round-robin, checkpointed kill/restart recovery, multi-worker leases,
// torn-checkpoint quarantine, event streams, and the failed-job path.
// tick() is deterministic, so everything here runs without signals or real
// daemon processes (ci/build.sh smokes the actual rmp_serve binary with a
// real SIGTERM, and chaos_test.cpp drives the injected-crash matrix).
#include "api/serve.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/run.hpp"
#include "api/spec.hpp"
#include "api/trace.hpp"
#include "core/json.hpp"
#include "support/version2_checkpoint.hpp"

namespace rmp::api {
namespace {

namespace fs = std::filesystem;

RunSpec job_spec(std::uint64_t seed) {
  RunSpec spec;
  spec.problem = "zdt1?n=6";
  spec.optimizer = "nsga2?population=16";
  spec.generations = 8;
  spec.seed = seed;
  spec.threads = 1;
  return spec;
}

/// Fresh spool directory per test case.
std::string make_spool(const std::string& name) {
  const std::string spool = ::testing::TempDir() + "rmp_serve_" + name;
  fs::remove_all(spool);
  fs::create_directories(spool);
  return spool;
}

void submit(const std::string& spool, const std::string& id,
            const core::Json& doc) {
  fs::create_directories(spool + "/jobs");
  std::ofstream out(spool + "/jobs/" + id + ".json");
  out << doc.dump(2) << "\n";
}

/// Ticks until the spool drains (or the round budget proves it wedged).
void drain(JobServer& server) {
  for (int round = 0; round < 200; ++round) {
    const TickReport report = server.tick();
    if (report.active == 0 && report.admitted == 0 && report.stepped == 0) {
      return;
    }
  }
  FAIL() << "server did not drain within the round budget";
}

std::uint64_t result_fingerprint(const std::string& spool,
                                 const std::string& id) {
  const core::Json doc =
      core::load_json_file(spool + "/results/" + id + ".json");
  return doc.at("fingerprint").as_u64();
}

ServeOptions worker_options(const std::string& spool, const std::string& owner,
                            std::int64_t lease_timeout_ms = 30000) {
  ServeOptions options;
  options.spool = spool;
  options.owner = owner;
  options.lease_timeout_ms = lease_timeout_ms;
  return options;
}

std::size_t count_events(const std::string& spool, const std::string& id,
                         const std::string& type) {
  std::ifstream in(spool + "/events/" + id + ".jsonl");
  std::size_t count = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    try {
      if (core::Json::parse(line).at("type").as_string() == type) ++count;
    } catch (const core::JsonError&) {
    }
  }
  return count;
}

/// The "reason" of every quarantined event of job `id`, in log order.
std::vector<std::string> quarantine_reasons(const std::string& spool,
                                            const std::string& id) {
  std::ifstream in(spool + "/events/" + id + ".jsonl");
  std::vector<std::string> reasons;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const core::Json event = core::Json::parse(line);
    if (event.at("type").as_string() == "quarantined") {
      reasons.push_back(event.at("reason").as_string());
    }
  }
  return reasons;
}

void expect_conformant(const std::string& spool) {
  const auto issues = verify_spool_traces(spool, /*require_terminal=*/true);
  for (const TraceIssue& issue : issues) {
    ADD_FAILURE() << issue.job << ":" << issue.line << ": " << issue.what;
  }
}

TEST(JobServerTest, TwoJobsDrainToValidatedResults) {
  const std::string spool = make_spool("two_jobs");
  submit(spool, "alpha", spec_to_json(job_spec(11)));
  submit(spool, "beta", spec_to_json(job_spec(12)));

  JobServer server(ServeOptions{spool});
  drain(server);

  // Both results validate and match a direct api::run of the same spec.
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
  EXPECT_EQ(result_fingerprint(spool, "beta"), run(job_spec(12)).fingerprint);
  // Completed jobs leave the queue and the work directory.
  EXPECT_FALSE(fs::exists(spool + "/jobs/alpha.json"));
  EXPECT_FALSE(fs::exists(spool + "/work/alpha.checkpoint.json"));
  // The drained spool's event streams conform to the protocol grammar.
  expect_conformant(spool);
}

TEST(JobServerTest, RoundRobinInterleavesJobsFairly) {
  const std::string spool = make_spool("fairness");
  submit(spool, "a", spec_to_json(job_spec(1)));
  submit(spool, "b", spec_to_json(job_spec(2)));

  JobServer server(ServeOptions{spool});
  const TickReport first = server.tick();
  EXPECT_EQ(first.admitted, 2u);
  // One epoch per active job per round — neither job can starve the other.
  EXPECT_EQ(first.stepped, 2u);
  EXPECT_EQ(server.tick().stepped, 2u);
}

TEST(JobServerTest, KillAndRestartResumesFromCheckpointsBitExactly) {
  const std::string spool = make_spool("kill_restart");
  submit(spool, "alpha", spec_to_json(job_spec(11)));
  submit(spool, "beta", spec_to_json(job_spec(12)));

  {
    // First server instance: stepped a few epochs, then "killed" — the
    // shutdown drain writes work/ checkpoints mid-run.
    JobServer first(ServeOptions{spool});
    (void)first.tick();
    (void)first.tick();
    (void)first.tick();
    EXPECT_EQ(first.active_jobs(), 2u);
    first.checkpoint_all();
  }
  ASSERT_TRUE(fs::exists(spool + "/work/alpha.checkpoint.json"));
  ASSERT_TRUE(fs::exists(spool + "/work/beta.checkpoint.json"));

  // Second instance: resumes the spooled checkpoints, drains both jobs.
  JobServer second(ServeOptions{spool});
  drain(second);
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
  EXPECT_EQ(result_fingerprint(spool, "beta"), run(job_spec(12)).fingerprint);
}

TEST(JobServerTest, StepLimitStopsTheRunLoopWithCheckpoints) {
  const std::string spool = make_spool("step_limit");
  submit(spool, "alpha", spec_to_json(job_spec(11)));

  ServeOptions options{spool};
  options.step_limit = 3;
  options.drain = true;
  JobServer server(options);
  const std::atomic<bool> stop{false};
  server.run(stop);

  EXPECT_EQ(server.total_stepped(), 3u);
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.checkpoint.json"));
  EXPECT_FALSE(fs::exists(spool + "/results/alpha.json"));
}

TEST(JobServerTest, EventStreamCarriesPerEpochProgress) {
  const std::string spool = make_spool("events");
  submit(spool, "alpha", spec_to_json(job_spec(11)));
  JobServer server(ServeOptions{spool});
  drain(server);

  std::ifstream in(spool + "/events/alpha.jsonl");
  ASSERT_TRUE(in.is_open());
  std::vector<core::Json> events;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) events.push_back(core::Json::parse(line));
  }
  // admitted(0), one "epoch" event per committed epoch, completed terminal.
  const std::size_t generations = job_spec(11).generations;
  ASSERT_EQ(events.size(), generations + 2);
  EXPECT_EQ(events.front().at("type").as_string(), "admitted");
  EXPECT_EQ(events.front().at("epoch").as_size(), 0u);
  EXPECT_EQ(events.back().at("type").as_string(), "completed");
  EXPECT_EQ(events.back().at("epoch").as_size(), generations);
  for (std::size_t i = 1; i <= generations; ++i) {
    EXPECT_EQ(events[i].at("type").as_string(), "epoch");
    EXPECT_EQ(events[i].at("epoch").as_size(), i);
    EXPECT_EQ(events[i].at("job").as_string(), "alpha");
    EXPECT_FALSE(events[i].at("worker").as_string().empty());
    // Every progress event carries the full cumulative accounting breakdown.
    const core::Json& stats = events[i].at("eval_stats");
    EXPECT_GE(stats.at("evaluations").as_size(),
              i > 1 ? events[i - 1].at("eval_stats").at("evaluations").as_size()
                    : 0u);
  }
  expect_conformant(spool);
}

TEST(JobServerTest, MalformedJobsFailLoudlyAndKeepTheSchedulerAlive) {
  const std::string spool = make_spool("bad_jobs");
  fs::create_directories(spool + "/jobs");
  {
    std::ofstream out(spool + "/jobs/broken.json");
    out << "{not json";
  }
  {
    std::ofstream out(spool + "/jobs/typo.json");
    out << R"({"problem": "zdt1", "generatoins": 5})";
  }
  submit(spool, "good", spec_to_json(job_spec(11)));

  JobServer server(ServeOptions{spool});
  drain(server);

  // Bad jobs moved aside with a named error; the good one still completed.
  EXPECT_TRUE(fs::exists(spool + "/failed/broken.json"));
  EXPECT_TRUE(fs::exists(spool + "/failed/typo.json"));
  EXPECT_FALSE(fs::exists(spool + "/jobs/typo.json"));
  const core::Json typo = core::load_json_file(spool + "/failed/typo.json");
  EXPECT_NE(typo.at("error").as_string().find("generatoins"), std::string::npos);
  EXPECT_TRUE(fs::exists(spool + "/results/good.json"));
}

TEST(JobServerTest, DegenerateEngineSizeFailsTheJobAndTheServerKeepsServing) {
  // An empty SPEA2 archive used to divide by zero inside the engine: the
  // whole server died, and every restart reclaimed the job and died again.
  const std::string spool = make_spool("degenerate_engine");
  RunSpec bad = job_spec(12);
  bad.optimizer = "spea2?population=10&archive=0";
  submit(spool, "empty_archive", spec_to_json(bad));
  submit(spool, "good", spec_to_json(job_spec(11)));

  JobServer server(ServeOptions{spool});
  drain(server);

  ASSERT_TRUE(fs::exists(spool + "/failed/empty_archive.json"));
  EXPECT_FALSE(fs::exists(spool + "/results/empty_archive.json"));
  const core::Json failed = core::load_json_file(spool + "/failed/empty_archive.json");
  EXPECT_NE(failed.at("error").as_string().find("spea2 archive"), std::string::npos)
      << failed.at("error").as_string();
  EXPECT_TRUE(fs::exists(spool + "/results/good.json"));
}

TEST(JobServerTest, CorruptCheckpointIsQuarantinedAndTheJobRecovers) {
  const std::string spool = make_spool("bad_ckpt");
  submit(spool, "alpha", spec_to_json(job_spec(11)));
  {
    JobServer first(ServeOptions{spool});
    (void)first.tick();
    first.checkpoint_all();
  }
  // Corrupt the spooled checkpoint's spec hash.  The restarted server must
  // neither trust it (silent divergence) nor lose the job: the bad file is
  // quarantined as work/alpha.corrupt.0 and the run falls back — here to
  // the pristine spec, since no previous checkpoint exists.
  const std::string ckpt_path = spool + "/work/alpha.checkpoint.json";
  core::Json ckpt = core::load_json_file(ckpt_path);
  ckpt.set("spec_hash", core::Json::hex(0x1234ULL));
  ASSERT_TRUE(core::write_json_file(ckpt_path, ckpt));

  JobServer second(ServeOptions{spool});
  drain(second);
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.corrupt.0"));
  EXPECT_FALSE(fs::exists(spool + "/failed/alpha.json"));
  EXPECT_EQ(count_events(spool, "alpha", "quarantined"), 1u);
  // The recovered run reproduces the uninterrupted fingerprint bit-exactly.
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
}

TEST(JobServerTest, TruncatedCheckpointIsQuarantinedAndTheJobRecovers) {
  const std::string spool = make_spool("torn_ckpt");
  submit(spool, "alpha", spec_to_json(job_spec(11)));
  {
    JobServer first(ServeOptions{spool});
    (void)first.tick();
    first.checkpoint_all();
  }
  // Tear the checkpoint mid-file, as a power loss would.
  const std::string ckpt_path = spool + "/work/alpha.checkpoint.json";
  const auto size = fs::file_size(ckpt_path);
  fs::resize_file(ckpt_path, size / 3);
  std::string parse_error;
  try {
    (void)core::load_json_file(ckpt_path);
  } catch (const core::JsonError& e) {
    parse_error = e.what();
  }
  ASSERT_FALSE(parse_error.empty());

  JobServer second(ServeOptions{spool});
  drain(second);
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.corrupt.0"));
  // The event says why: the parser's own error, byte offset included.
  const std::vector<std::string> reasons = quarantine_reasons(spool, "alpha");
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_NE(reasons[0].find(parse_error), std::string::npos) << reasons[0];
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
  expect_conformant(spool);
}

TEST(JobServerTest, Version2CheckpointIsQuarantinedAndTheJobRecovers) {
  const std::string spool = make_spool("v2_ckpt");
  submit(spool, "alpha", spec_to_json(job_spec(11)));
  {
    JobServer first(ServeOptions{spool});
    (void)first.tick();
    first.checkpoint_all();
  }
  // A spool upgraded mid-run still holds the checkpoint an older build
  // wrote: state_version 2, one hex string per double.  It is refused by
  // name and quarantined, and the job reruns from its spec.
  const std::string ckpt_path = spool + "/work/alpha.checkpoint.json";
  ASSERT_TRUE(core::write_json_file(
      ckpt_path, testing::as_version2(core::load_json_file(ckpt_path))));

  JobServer second(ServeOptions{spool});
  drain(second);
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.corrupt.0"));
  EXPECT_FALSE(fs::exists(spool + "/failed/alpha.json"));
  EXPECT_EQ(count_events(spool, "alpha", "quarantined"), 1u);
  // The event tells an old state_version from a torn file.
  const std::vector<std::string> reasons = quarantine_reasons(spool, "alpha");
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_NE(reasons[0].find("state_version"), std::string::npos) << reasons[0];
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
  expect_conformant(spool);
}

TEST(JobServerTest, TwoWorkersShareOneSpoolWithoutDoubleRunning) {
  const std::string spool = make_spool("two_workers");
  submit(spool, "alpha", spec_to_json(job_spec(11)));
  submit(spool, "beta", spec_to_json(job_spec(12)));

  JobServer a(worker_options(spool, "workerA"));
  JobServer b(worker_options(spool, "workerB"));

  // Whoever scans first claims; the other worker must admit nothing (the
  // rename-claim is the mutual exclusion) and both jobs complete exactly
  // once with the uninterrupted fingerprints.
  const TickReport first_a = a.tick();
  EXPECT_EQ(first_a.admitted, 2u);
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.claim.workerA"));
  const TickReport first_b = b.tick();
  EXPECT_EQ(first_b.admitted, 0u);
  EXPECT_EQ(first_b.stepped, 0u);

  for (int round = 0; round < 200 && a.active_jobs() > 0; ++round) {
    (void)a.tick();
    (void)b.tick();
  }
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
  EXPECT_EQ(result_fingerprint(spool, "beta"), run(job_spec(12)).fingerprint);
  EXPECT_EQ(count_events(spool, "alpha", "completed"), 1u);
  EXPECT_EQ(count_events(spool, "beta", "completed"), 1u);
  expect_conformant(spool);
}

TEST(JobServerTest, DrainReleasesClaimsForImmediateReAdoption) {
  const std::string spool = make_spool("release");
  submit(spool, "alpha", spec_to_json(job_spec(11)));

  JobServer a(worker_options(spool, "workerA"));
  (void)a.tick();
  (void)a.tick();
  a.checkpoint_all();  // graceful drain: checkpoint + release the claim

  EXPECT_FALSE(fs::exists(spool + "/work/alpha.claim.workerA"));
  EXPECT_TRUE(fs::exists(spool + "/jobs/alpha.json"));
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.checkpoint.json"));
  EXPECT_EQ(count_events(spool, "alpha", "released"), 1u);

  // A different worker re-adopts with no lease timeout involved.
  JobServer b(worker_options(spool, "workerB"));
  const TickReport report = b.tick();
  EXPECT_EQ(report.admitted, 1u);
  EXPECT_EQ(report.reclaimed, 0u);
  EXPECT_EQ(count_events(spool, "alpha", "resumed"), 1u);
  drain(b);
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
  expect_conformant(spool);
}

TEST(JobServerTest, StaleLeaseIsReclaimedExactlyOnceBitExactly) {
  const std::string spool = make_spool("stale_lease");
  RunSpec spec = job_spec(11);
  spec.checkpoint_every = 1;
  submit(spool, "alpha", spec_to_json(spec));

  {
    // Worker A claims the job, commits three epochs, then dies without
    // draining — its claim (and heartbeat) stay behind in work/.
    JobServer a(worker_options(spool, "workerA"));
    (void)a.tick();
    (void)a.tick();
    (void)a.tick();
    EXPECT_EQ(a.active_jobs(), 1u);
  }
  ASSERT_TRUE(fs::exists(spool + "/work/alpha.claim.workerA"));

  // Let the heartbeat age past the (zero) lease timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  JobServer b(worker_options(spool, "workerB", /*lease_timeout_ms=*/0));
  const TickReport report = b.tick();
  EXPECT_EQ(report.reclaimed, 1u);
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.claim.workerB"));
  EXPECT_FALSE(fs::exists(spool + "/work/alpha.claim.workerA"));
  drain(b);

  // Re-adopted exactly once, finished exactly once, bit-exact result.
  EXPECT_EQ(count_events(spool, "alpha", "reclaimed"), 1u);
  EXPECT_EQ(count_events(spool, "alpha", "completed"), 1u);
  EXPECT_EQ(result_fingerprint(spool, "alpha"), run(job_spec(11)).fingerprint);
  expect_conformant(spool);
}

TEST(JobServerTest, FreshForeignClaimIsNotReclaimed) {
  const std::string spool = make_spool("fresh_lease");
  submit(spool, "alpha", spec_to_json(job_spec(11)));

  JobServer a(worker_options(spool, "workerA"));
  (void)a.tick();  // claims + stamps a fresh heartbeat

  JobServer b(worker_options(spool, "workerB"));  // default 30s lease
  const TickReport report = b.tick();
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_EQ(report.reclaimed, 0u);
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.claim.workerA"));
}

TEST(JobServerTest, SpecCheckpointCadenceWritesWorkFiles) {
  const std::string spool = make_spool("cadence");
  RunSpec spec = job_spec(11);
  spec.checkpoint_every = 2;
  submit(spool, "alpha", spec_to_json(spec));

  JobServer server(ServeOptions{spool});
  (void)server.tick();  // admit + epoch 1: no checkpoint yet
  EXPECT_FALSE(fs::exists(spool + "/work/alpha.checkpoint.json"));
  (void)server.tick();  // epoch 2: cadence hit
  EXPECT_TRUE(fs::exists(spool + "/work/alpha.checkpoint.json"));
}

}  // namespace
}  // namespace rmp::api
