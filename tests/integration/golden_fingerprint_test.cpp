// Golden-fingerprint regression corpus: committed (spec, seed) -> archive
// fingerprint pairs for the canonical PMO2-over-photosynthesis workloads.
// The differential suites prove invariances (cache on == off, any thread
// count); this corpus pins the ABSOLUTE answers, so a behavioral drift that
// shifts every configuration in lockstep — which no differential test can
// see — still fails loudly.
//
// The fingerprint is api::RunResult::fingerprint, the FNV-1a digest of the
// canonical archive (see api/run.hpp).  Every workload below is small enough
// for a fast ctest lane; the table spans two scenarios (past-low,
// present-high) with the cache/prescreen ladder on each, and one
// Geobacter FBA run pins the LP seeds behind the paper's second case study.
//
// Regenerating after an INTENTIONAL behavior change (e.g. a new solver
// default that legitimately moves cycle averages):
//
//     build/tests/integration_golden_fingerprint_test --gtest_also_run_disabled_tests \
//         --gtest_filter='*PrintCurrentTable*'
//
// then paste the printed rows over kGolden and kGeobacterGolden below, and
// say why in the commit message.  Goldens were generated with the Release
// (-O2) toolchain; the table must match in every build type — -ffp-contract
// drift would be a portability bug worth catching, not an excuse to fork the
// table.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "api/run.hpp"

namespace rmp::api {
namespace {

struct GoldenRow {
  const char* name;      // stable identifier, also the gtest failure label
  const char* scenario;  // photosynthesis scenario label
  std::size_t cache;     // EvalCache capacity (0 = off)
  bool prescreen;
  std::uint64_t fingerprint;
};

RunSpec golden_spec(const GoldenRow& row) {
  RunSpec spec;
  spec.problem = std::string("photosynthesis?scenario=") + row.scenario +
                 "&pool=4096";
  spec.optimizer =
      "pmo2?islands=2&population=8&migration_interval=2&migrants=2";
  spec.generations = 5;
  spec.seed = 11;
  spec.threads = 2;
  spec.cache = row.cache;
  spec.prescreen = row.prescreen;
  spec.robustness.enabled = false;
  return spec;
}

// The committed corpus.  Cache-on rows MUST repeat the cache-off value for
// the same scenario (memoization never changes answers); the prescreen rows
// may differ (the skip path substitutes predicted violations — see
// photosynthesis_problem.hpp).
constexpr GoldenRow kGolden[] = {
    {"past-low/plain", "past-low", 0, false, 0xc56cbbdf779291a6ULL},
    {"past-low/cache", "past-low", 4096, false, 0xc56cbbdf779291a6ULL},
    {"past-low/cache+prescreen", "past-low", 4096, true, 0xc56cbbdf779291a6ULL},
    {"present-high/plain", "present-high", 0, false, 0xd226f93e4eb9946bULL},
    {"present-high/cache", "present-high", 4096, false, 0xd226f93e4eb9946bULL},
    {"present-high/cache+prescreen", "present-high", 4096, true, 0xd226f93e4eb9946bULL},
};

TEST(GoldenFingerprintTest, ArchiveFingerprintsMatchCommittedTable) {
  for (const GoldenRow& row : kGolden) {
    const RunResult result = run(golden_spec(row));
    EXPECT_EQ(result.fingerprint, row.fingerprint) << row.name;
    EXPECT_GT(result.front.size(), 0u) << row.name;
  }
}

// The Geobacter FBA workload: PMO2 seeded from the seven LP vertices
// (fba::GeobacterProblem), then null-space repair.  Pins the simplex's
// answers end to end, since every seed is an LP solution.
RunSpec geobacter_golden_spec() {
  RunSpec spec;
  spec.problem = "geobacter";
  spec.optimizer = "pmo2?islands=4&population=40&archive_capacity=24";
  spec.generations = 10;
  spec.seed = 11;
  spec.threads = 2;
  spec.robustness.enabled = false;
  return spec;
}

constexpr std::uint64_t kGeobacterGolden = 0x8cefd0480b949e5eULL;

TEST(GoldenFingerprintTest, GeobacterFingerprintMatchesCommittedValue) {
  const RunResult result = run(geobacter_golden_spec());
  EXPECT_EQ(result.fingerprint, kGeobacterGolden);
  EXPECT_GT(result.front.size(), 0u);
}

TEST(GoldenFingerprintTest, CacheRowsRepeatThePlainFingerprint) {
  // Redundant with the committed values, but self-checks the TABLE: a
  // regeneration that pasted a cache-on row differing from its plain row
  // would mean the invariant broke while regenerating — fail here, at the
  // source, instead of in the differential suite later.
  EXPECT_EQ(kGolden[0].fingerprint, kGolden[1].fingerprint);
  EXPECT_EQ(kGolden[3].fingerprint, kGolden[4].fingerprint);
}

TEST(GoldenFingerprintTest, DISABLED_PrintCurrentTable) {
  for (const GoldenRow& row : kGolden) {
    const RunResult result = run(golden_spec(row));
    std::printf("    {\"%s\", \"%s\", %zu, %s, 0x%016" PRIx64 "ULL},\n",
                row.name, row.scenario, row.cache,
                row.prescreen ? "true" : "false", result.fingerprint);
  }
  std::printf("kGeobacterGolden = 0x%016" PRIx64 "ULL\n",
              run(geobacter_golden_spec()).fingerprint);
}

}  // namespace
}  // namespace rmp::api
