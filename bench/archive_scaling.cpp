// Archive merge-engine benchmark — the PMO2 epoch hot path in isolation.
//
// Streams the same seeded candidate sequence through moo::Archive's batch
// merge and through the naive reference merge (the test oracle in
// tests/support/naive_archive.hpp, reached through this bench's include
// path), in island-commit-sized batches, and emits BENCH_archive.json
// (schema in docs/BENCHMARKS.md): wall seconds and offers/sec per merge,
// the batch-vs-naive speedup, and the fingerprint cross-check.  Identical
// fingerprints are part of the benchmark — the two merges implement one
// semantics, and the run exits non-zero when they diverge.
//
// The workload mimics what islands feed the archive: candidates near a
// slowly improving ZDT-style front (most offers are competitive, duplicates
// and dominated stragglers mixed in), so the capacity prune and the
// dominance merge both stay hot.
//
// Environment knobs: RMP_ARCHIVE_OFFERS (50000), RMP_ARCHIVE_CAPACITY
// (1000), RMP_ARCHIVE_BATCH (256), RMP_ARCHIVE_MIN_SPEEDUP (0 = report
// only; run_benchmarks.sh sets 5 at full scale per the acceptance bar).
// Usage: archive_scaling [output.json]   (default BENCH_archive.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "moo/archive.hpp"
#include "numeric/rng.hpp"

#include "bench_util.hpp"
#include "support/naive_archive.hpp"

using rmp::bench::env_or;

namespace {

/// The candidate stream both merges consume: generated once, replayed
/// identically.  ~70% of points sit exactly on the front f1 = 1 - sqrt(f0):
/// distinct draws are mutually non-dominated, so the archive rides at
/// capacity and the single-pass prune runs on every batch.  ~25% are lifted
/// off the front by up to 50% — accepted while the front is sparse, then
/// dominated and evicted (or rejected outright) as it fills.  ~5% exact
/// duplicates and ~3% infeasibles exercise the rejection rules.
std::vector<rmp::moo::Individual> make_stream(std::size_t offers) {
  rmp::num::Rng rng(4242);
  std::vector<rmp::moo::Individual> stream;
  stream.reserve(offers);
  for (std::size_t i = 0; i < offers; ++i) {
    const double u = rng.uniform();
    const double lift = rng.bernoulli(0.25) ? 1.0 + 0.5 * rng.uniform() : 1.0;
    rmp::moo::Individual ind;
    ind.f = {u, (1.0 - std::sqrt(u)) * lift};
    ind.x = {u, lift};
    if (rng.bernoulli(0.03)) ind.violation = 1.0;
    if (!stream.empty() && rng.bernoulli(0.05)) ind.f = stream.back().f;
    stream.push_back(std::move(ind));
  }
  return stream;
}

struct MergeResult {
  double wall_seconds = 0.0;
  double offers_per_sec = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t archive_size = 0;
};

/// Times one merge: ArchiveT is moo::Archive or the naive oracle.
template <typename ArchiveT>
MergeResult run_merge(const std::vector<rmp::moo::Individual>& stream,
                        std::size_t capacity, std::size_t batch) {
  using clock = std::chrono::steady_clock;
  ArchiveT archive(capacity);
  const auto t0 = clock::now();
  for (std::size_t start = 0; start < stream.size(); start += batch) {
    const std::size_t len = std::min(batch, stream.size() - start);
    archive.offer_all(
        std::span<const rmp::moo::Individual>(stream).subspan(start, len));
  }
  const std::chrono::duration<double> dt = clock::now() - t0;
  MergeResult r;
  r.wall_seconds = dt.count();
  r.offers_per_sec = static_cast<double>(stream.size()) / dt.count();
  r.fingerprint = archive.fingerprint();
  r.archive_size = archive.size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmp;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_archive.json";
  const std::size_t offers = env_or("RMP_ARCHIVE_OFFERS", 50000);
  const std::size_t capacity = env_or("RMP_ARCHIVE_CAPACITY", 1000);
  const std::size_t batch = env_or("RMP_ARCHIVE_BATCH", 256);
  const std::size_t min_speedup = env_or("RMP_ARCHIVE_MIN_SPEEDUP", 0);

  std::printf("== Archive merge scaling: %zu offers, capacity %zu, batch %zu ==\n",
              offers, capacity, batch);
  const auto stream = make_stream(offers);

  const MergeResult naive =
      run_merge<testing::NaiveArchive>(stream, capacity, batch);
  std::printf("naive: %.3f s (%.0f offers/s), archive %zu, fp %016llx\n",
              naive.wall_seconds, naive.offers_per_sec, naive.archive_size,
              static_cast<unsigned long long>(naive.fingerprint));
  const MergeResult batched =
      run_merge<moo::Archive>(stream, capacity, batch);
  std::printf("batch: %.3f s (%.0f offers/s), archive %zu, fp %016llx\n",
              batched.wall_seconds, batched.offers_per_sec, batched.archive_size,
              static_cast<unsigned long long>(batched.fingerprint));

  const double speedup = naive.wall_seconds / batched.wall_seconds;
  const bool fingerprints_match = naive.fingerprint == batched.fingerprint;
  std::printf("batch-vs-naive speedup: %.1fx, fingerprints %s\n", speedup,
              fingerprints_match ? "match" : "DIVERGED");

  const auto merge_json = [](const MergeResult& r) {
    return core::Json::object()
        .set("wall_seconds", r.wall_seconds)
        .set("offers_per_sec", r.offers_per_sec)
        .set("archive_size", r.archive_size)
        .set("fingerprint", core::Json::hex(r.fingerprint));
  };
  const core::Json doc =
      core::Json::object()
          .set("benchmark", "archive_scaling")
          .set("schema_version", 1)
          .set("config", core::Json::object()
                             .set("offers", offers)
                             .set("capacity", capacity)
                             .set("batch_size", batch)
                             .set("seed", std::size_t{4242}))
          .set("naive", merge_json(naive))
          .set("batch", merge_json(batched))
          .set("speedup_batch_vs_naive", speedup)
          .set("fingerprints_match", fingerprints_match);
  if (!core::write_json_file(out_path, doc)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!fingerprints_match) {
    std::fprintf(stderr,
                 "error: the naive and batch merges disagree — the batch "
                 "engine broke the archive semantics\n");
    return 1;
  }
  if (min_speedup > 0 && speedup < static_cast<double>(min_speedup)) {
    std::fprintf(stderr, "error: batch-vs-naive speedup %.1fx below the %zux bar\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
