// Golden-fingerprint regression corpus: committed (spec, seed) -> archive
// fingerprint pairs for the canonical PMO2-over-photosynthesis workloads.
// The differential suites prove invariances (any thread count, kill and
// resume); this corpus pins the ABSOLUTE answers, so a behavioral drift that
// shifts every configuration in lockstep — which no differential test can
// see — still fails loudly.
//
// The fingerprint is api::RunResult::fingerprint, the FNV-1a digest of the
// canonical archive (see api/run.hpp).  Every workload below is small enough
// for a fast ctest lane; the table spans two scenarios (past-low,
// present-high) with the prescreen off and on for each, and one
// Geobacter FBA run pins the LP seeds behind the paper's second case study.
//
// Regenerating after an INTENTIONAL behavior change (e.g. a new solver
// default that legitimately moves cycle averages), run as one command line
//
//     build/tests/integration_golden_fingerprint_test
//         --gtest_also_run_disabled_tests --gtest_filter='*PrintCurrentTable*'
//
// then paste the printed rows over kGolden, kGeobacterGolden and the
// robustness digests below, and say why in the commit message.  Goldens
// were generated with the Release (-O2) toolchain; the table must match in
// every build type — -ffp-contract drift would be a portability bug worth
// catching, not an excuse to fork the table.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "api/run.hpp"

namespace rmp::api {
namespace {

struct GoldenRow {
  const char* name;      // stable identifier, also the gtest failure label
  const char* scenario;  // photosynthesis scenario label
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
  spec.prescreen = row.prescreen;
  spec.robustness.enabled = false;
  return spec;
}

// The committed corpus.  The prescreen rows may differ from the plain rows
// (the skip path substitutes predicted violations — see
// photosynthesis_problem.hpp); at this scale they happen to coincide.
constexpr GoldenRow kGolden[] = {
    {"past-low/plain", "past-low", false, 0xc56cbbdf779291a6ULL},
    {"past-low/prescreen", "past-low", true, 0xc56cbbdf779291a6ULL},
    {"present-high/plain", "present-high", false, 0xd226f93e4eb9946bULL},
    {"present-high/prescreen", "present-high", true, 0xd226f93e4eb9946bULL},
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

// The robustness stage end to end: three mined candidates and a seven-pick
// surface share eight distinct front members, whose 1200 trials are scored
// in one call over two chunks.  The digest covers every bit of every
// YieldResult (mined, then surface), so a re-solved nominal, a reordered
// draw or a changed reduction fails here at any thread count.  The trials
// warm-start from the pool snapshot, so a commit moved in among the
// ensembles fails too: one between the two chunks moves a max_deviation on
// the past-low row and a Gamma on the present-high row, whose trials take
// the cycle path.
RunSpec robustness_golden_spec(const GoldenRow& row, std::size_t threads) {
  RunSpec spec = golden_spec(row);
  spec.threads = threads;
  spec.robustness.enabled = true;
  spec.robustness.trials = 150;
  spec.robustness.surface_samples = 7;
  return spec;
}

std::uint64_t yield_digest(const RunResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  const auto mix_yield = [&mix](const robustness::YieldResult& y) {
    mix(std::bit_cast<std::uint64_t>(y.gamma));
    mix(std::bit_cast<std::uint64_t>(y.nominal_value));
    mix(std::bit_cast<std::uint64_t>(y.absolute_threshold));
    mix(y.robust_trials);
    mix(y.total_trials);
    mix(std::bit_cast<std::uint64_t>(y.max_deviation));
  };
  for (const MinedCandidate& c : result.mined) {
    mix(c.front_index);
    if (c.yield) mix_yield(*c.yield);
  }
  for (const SurfacePoint& p : result.surface) {
    mix(p.front_index);
    mix_yield(p);
  }
  return h;
}

constexpr std::uint64_t kRobustnessGolden = 0xe87007556582aec2ULL;
constexpr std::uint64_t kPresentHighRobustnessGolden = 0x16ccb113116c3f58ULL;

void expect_robustness_digest(const GoldenRow& row, std::uint64_t digest) {
  for (const std::size_t threads : {1u, 4u}) {
    const RunResult result = run(robustness_golden_spec(row, threads));
    ASSERT_EQ(result.mined.size(), 4u) << row.name << " threads=" << threads;
    ASSERT_EQ(result.surface.size(), 7u) << row.name << " threads=" << threads;
    EXPECT_EQ(result.fingerprint, row.fingerprint) << row.name << " threads=" << threads;
    EXPECT_EQ(yield_digest(result), digest) << row.name << " threads=" << threads;
  }
}

TEST(GoldenFingerprintTest, RobustnessYieldBitsArePinned) {
  expect_robustness_digest(kGolden[0], kRobustnessGolden);
}

TEST(GoldenFingerprintTest, PresentHighRobustnessYieldBitsArePinned) {
  expect_robustness_digest(kGolden[2], kPresentHighRobustnessGolden);
}

TEST(GoldenFingerprintTest, DISABLED_PrintCurrentTable) {
  for (const GoldenRow& row : kGolden) {
    const RunResult result = run(golden_spec(row));
    std::printf("    {\"%s\", \"%s\", %s, 0x%016" PRIx64 "ULL},\n",
                row.name, row.scenario, row.prescreen ? "true" : "false",
                result.fingerprint);
  }
  std::printf("kGeobacterGolden = 0x%016" PRIx64 "ULL\n",
              run(geobacter_golden_spec()).fingerprint);
  std::printf("kRobustnessGolden = 0x%016" PRIx64 "ULL\n",
              yield_digest(run(robustness_golden_spec(kGolden[0], 1))));
  std::printf("kPresentHighRobustnessGolden = 0x%016" PRIx64 "ULL\n",
              yield_digest(run(robustness_golden_spec(kGolden[2], 1))));
}

}  // namespace
}  // namespace rmp::api
