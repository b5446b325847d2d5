#!/usr/bin/env bash
# CI entry point: rmp_lint source gates first, then configure Release with
# warnings-as-errors on the rmp library targets, build everything, run the
# full CTest suite (the tier-1 verify command), run the benchmark driver in
# smoke mode so every CI run prints a BENCH_pmo2.json perf-trajectory record
# (docs/BENCHMARKS.md), build and self-test the perfbench pipeline
# benchmark, and finish with the two sanitizer lanes
# (ASan+UBSan — including the fault-injection chaos smoke over the
# multi-worker spool — then TSan).  ARCHITECTURE.md "Correctness tooling"
# maps each step to the contract clause it enforces.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-ci}"
JOBS="${JOBS:-$(nproc)}"
CXX_FOR_LINT="${CXX:-c++}"

# Determinism-contract source lint, before anything is compiled: the
# cheapest gate runs first.  The second invocation adds the header
# self-containment proof (every src/ header compiles as its own TU).
# Both also run as CTest cases (rmp_lint, rmp_lint_headers) in the Release
# suite below; running them here keeps the failure mode readable — a lint
# violation fails in seconds, not after a full build.
python3 tools/rmp_lint.py --repo .
python3 tools/rmp_lint.py --repo . --headers --cxx "${CXX_FOR_LINT}"

# Advisory clang-tidy pass (.clang-tidy: bugprone-*, concurrency-*,
# performance-*).  The pinned CI image is gcc-only, so this is tool-gated
# and non-fatal: findings print for review but never fail the build —
# rmp_lint above carries the hard subset.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (advisory) =="
  find src -name '*.cpp' -print0 \
    | xargs -0 clang-tidy --quiet -- -std=c++20 -Isrc || true
else
  echo "clang-tidy not installed: skipping advisory pass"
fi

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DRMP_WERROR=ON

cmake --build "${BUILD_DIR}" -j "${JOBS}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# Repeat-path differential gate, surfaced on its own (it also ran inside the
# full suite above): plain and prescreened kinetic runs, and a plain analytic
# run, must each produce identical archive fingerprints, mined candidates,
# robustness verdicts and evaluation accounting at island_threads {1, 2, 8}.
# A regression here means the warm pool's exact hit or the prescreen made a
# result depend on the thread count.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -R "CacheDifferential"

# Golden fingerprint gate, surfaced on its own for the same reason: the
# committed (spec, seed) -> archive fingerprint table pins the ABSOLUTE
# answers of the PMO2-over-photosynthesis workloads.  A solver change that
# claims bit-identical answers (a reordered cycle path, a cheaper integrator
# loop) fails here first if it moved any of them.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -R "GoldenFingerprint"

# rmp_run smoke: the spec-driven front door must list its registries, execute
# a ZDT1+pmo2 spec, and emit a result artifact that parses as JSON and carries
# an archive fingerprint (the cross-machine reproducibility identity).
RMP_RUN="${BUILD_DIR}/tools/rmp_run"
test -n "$("${RMP_RUN}" --list-problems)" || { echo "rmp_run --list-problems is empty" >&2; exit 1; }
"${RMP_RUN}" --list-problems | grep -q '^zdt1' || { echo "rmp_run --list-problems lacks zdt1" >&2; exit 1; }
"${RMP_RUN}" --list-optimizers | grep -q '^pmo2' || { echo "rmp_run --list-optimizers lacks pmo2" >&2; exit 1; }
"${RMP_RUN}" examples/specs/zdt1_pmo2.json --out "${BUILD_DIR}/rmp_run_result.json"
"${RMP_RUN}" --validate "${BUILD_DIR}/rmp_run_result.json"
grep -q '"fingerprint": "0x' "${BUILD_DIR}/rmp_run_result.json" \
  || { echo "rmp_run result carries no fingerprint" >&2; exit 1; }

# rmp_serve smoke: the daemon must survive a deterministic mid-run stop
# (--step-limit drains to checkpoints), a real SIGTERM mid-run, and a final
# --drain restart — with both spooled jobs completing to validated result
# JSONs whose archive fingerprints match a direct rmp_run of the same specs
# (the kill-and-resume identity of the determinism contract).
RMP_SERVE="${BUILD_DIR}/tools/rmp_serve"
SPOOL="${BUILD_DIR}/serve-spool"
SERVE_SPECS="${BUILD_DIR}/serve-specs"
rm -rf "${SPOOL}" "${SERVE_SPECS}"
mkdir -p "${SPOOL}/jobs" "${SERVE_SPECS}"
cat > "${SERVE_SPECS}/jobA.json" <<'EOF'
{"problem": "photosynthesis?scenario=present-low&pool=4096",
 "optimizer": "pmo2?islands=2&population=8&migration_interval=2&migrants=2",
 "generations": 40, "seed": 7, "threads": 2}
EOF
cat > "${SERVE_SPECS}/jobB.json" <<'EOF'
{"problem": "zdt1?n=6", "optimizer": "nsga2?population=16",
 "generations": 80, "seed": 11, "threads": 1}
EOF
cp "${SERVE_SPECS}"/job*.json "${SPOOL}/jobs/"

# Phase 1: stop mid-run deterministically; both jobs must be checkpointed
# (the daemon-level cadence also exercises periodic work/ writes).
"${RMP_SERVE}" --spool "${SPOOL}" --step-limit 30 --checkpoint-every 5 --poll-ms 20
for job in jobA jobB; do
  test -s "${SPOOL}/work/${job}.checkpoint.json" \
    || { echo "rmp_serve step-limit drain left no ${job} checkpoint" >&2; exit 1; }
done

# Phase 2: restart (resumes the checkpoints), then SIGTERM mid-run — the
# daemon must drain gracefully and exit 0.
"${RMP_SERVE}" --spool "${SPOOL}" --checkpoint-every 5 --poll-ms 20 &
SERVE_PID=$!
sleep 1
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}" \
  || { echo "rmp_serve did not exit cleanly on SIGTERM" >&2; exit 1; }

# Phase 3: final restart drains the spool; both jobs must complete with
# result artifacts that validate and fingerprint-match direct runs.
"${RMP_SERVE}" --spool "${SPOOL}" --drain --poll-ms 20
for job in jobA jobB; do
  test -s "${SPOOL}/results/${job}.json" \
    || { echo "rmp_serve drain left no ${job} result" >&2; exit 1; }
  "${RMP_RUN}" --validate "${SPOOL}/results/${job}.json"
  "${RMP_RUN}" "${SERVE_SPECS}/${job}.json" \
    --out "${BUILD_DIR}/serve-${job}-direct.json" > /dev/null
  served=$(grep -o '"fingerprint": "0x[0-9a-f]*"' "${SPOOL}/results/${job}.json" | head -1)
  direct=$(grep -o '"fingerprint": "0x[0-9a-f]*"' "${BUILD_DIR}/serve-${job}-direct.json" | head -1)
  if [ -z "${served}" ] || [ "${served}" != "${direct}" ]; then
    echo "rmp_serve ${job} fingerprint '${served}' != direct rmp_run '${direct}'" >&2
    exit 1
  fi
done
echo "rmp_serve smoke: both jobs resumed and fingerprint-matched rmp_run"

# Benchmark smoke: emits and prints BENCH_pmo2.json (island-scaling wall
# times, speedups, the bit-identical-archive check), BENCH_archive.json
# (batch-vs-naive merge engine cross-check) and BENCH_kinetics.json (the
# steady-state engine's work counters, with thread-invariant archive
# fingerprints per solver configuration) under ${BUILD_DIR}/bench-results,
# and logs the ablations + micro-kernels.  Fails the build when the
# archipelago determinism contract, the archive merge equivalence, the
# kinetic-engine determinism contract, or the kinetic work ceilings
# (RMP_KINETICS_MAX_RHS / RMP_KINETICS_MAX_LU: more solver work than the
# engine spends today) are broken.
RMP_BENCH_SMOKE=1 BUILD_DIR="${BUILD_DIR}" \
  OUT_DIR="${BUILD_DIR}/bench-results" bench/run_benchmarks.sh

# The smoke run must leave every phase-gate artifact behind.  run_benchmarks.sh
# asserts this itself; re-checking here keeps CI honest even if the driver's
# internal checks regress — a missing artifact means a determinism gate was
# skipped, never a benign omission.
for artifact in BENCH_pmo2 BENCH_archive BENCH_kinetics BENCH_prescreen; do
  test -s "${BUILD_DIR}/bench-results/${artifact}.json" \
    || { echo "bench smoke left no ${artifact}.json — phase gates skipped" >&2; exit 1; }
done

# Benchmark self-test: perfbench/ compiles src/ on its own (a separate CMake
# project whose workloads override every moo::Problem virtual), so a src/
# change that breaks it would otherwise fail only when the benchmark runs.
# --selftest builds pipeline_bench and runs its two-generation ZDT1 smoke
# spec, checking every metric BENCHMARK.json declares is emitted.
CARGO_TARGET_DIR="${BUILD_DIR}/perfbench-target" \
  python3 perfbench/run.py --selftest

# ASan+UBSan Debug pass over the algorithmic core (moo / pareto / numeric)
# plus the kinetics engine, robustness Monte-Carlo, and the arena-backed
# solver layer (workspace scratch reuse, the shooting cycle solver, and the
# v1-vs-v2 differential harness — the scratch-arena lifetime contract is
# exactly the kind of bug only ASan sees), and the sparse-aware simplex
# kernels (compressed columns and sparse LU index lists, run over the
# Geobacter seed LPs and against the dense oracle): the places where an
# out-of-bounds index or UB-reliant shortcut (the old percentile Release OOB
# class) would otherwise slip through Release CI.  -fno-sanitize-recover (set
# by RMP_SANITIZE in CMake) turns every UBSan finding into a test failure.
# Only the affected test binaries are built — the full suite already ran
# above.
SAN_BUILD_DIR="${SAN_BUILD_DIR:-${BUILD_DIR}-asan}"
SAN_TESTS=(
  core_parallel_test core_sentinel_test
  moo_archive_test moo_dominance_test moo_moead_test moo_nsga2_test
  moo_operators_test moo_pmo2_test moo_spea2_test moo_testproblems_test
  pareto_coverage_test pareto_front_test pareto_hypervolume_test
  pareto_mining_test
  numeric_matrix_test numeric_newton_test numeric_ode_test numeric_rng_test
  numeric_shooting_test numeric_simplex_test numeric_simplex_differential_test
  numeric_solver_differential_test fba_geobacter_test
  numeric_sparse_test numeric_stats_test numeric_vec_test
  numeric_workspace_test
  kinetics_c3model_test kinetics_control_analysis_test kinetics_enzymes_test
  kinetics_problem_test kinetics_prescreen_test kinetics_warm_start_test
  integration_cache_differential_test
  robustness_robustness_test
  api_run_test api_session_test api_serve_test
  core_fault_test api_chaos_test)

# The phase-gate benchmark binaries must at least BUILD under each sanitizer
# configuration — run_benchmarks.sh itself stays on the Release build, but a
# bench that no longer compiles with sentinels + sanitizers on is a rotted
# gate.
BENCH_GATES=(pmo2_scaling archive_scaling kinetics_scaling prescreen_stress)

# RMP_BUILD_BENCH=ON / RMP_BUILD_TOOLS=ON explicitly: they override the OFF
# a pre-existing lane directory may still have cached (the bench gates below
# must build, and the chaos smoke drives the sentinel-enabled rmp_serve /
# rmp_run / rmp_trace_check binaries — fault hooks are compiled out of the
# Release tools).
cmake -B "${SAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DRMP_SANITIZE=address,undefined \
  -DRMP_BUILD_EXAMPLES=OFF \
  -DRMP_BUILD_BENCH=ON \
  -DRMP_BUILD_TOOLS=ON

cmake --build "${SAN_BUILD_DIR}" -j "${JOBS}" \
  --target "${SAN_TESTS[@]}" "${BENCH_GATES[@]}" \
  rmp_serve rmp_run rmp_trace_check

for t in "${SAN_TESTS[@]}"; do
  echo "== asan+ubsan: ${t} =="
  "${SAN_BUILD_DIR}/tests/${t}"
done

# Chaos smoke: the crash-safe spool end to end, through real processes.  A
# worker is killed by an injected torn checkpoint write (RMP_FAULTS, fault
# hooks live in this sentinel lane; the dedicated crash exit code is 70),
# leaving a torn checkpoint at its final path and a dead worker's claim.
# Two fresh workers then race to drain the spool: one must reclaim the
# stale lease, quarantine the torn checkpoint, resume from the previous
# good one, and finish with the exact fingerprint of an uninterrupted
# direct run — and the event trace must conform to the protocol grammar.
CHAOS_SPOOL="${SAN_BUILD_DIR}/chaos-spool"
rm -rf "${CHAOS_SPOOL}"
mkdir -p "${CHAOS_SPOOL}/jobs"
cat > "${CHAOS_SPOOL}/jobs/chaos.json" <<'EOF'
{"problem": "zdt1?n=6", "optimizer": "nsga2?population=16",
 "generations": 40, "seed": 11, "threads": 1}
EOF
"${SAN_BUILD_DIR}/tools/rmp_run" "${CHAOS_SPOOL}/jobs/chaos.json" \
  --out "${SAN_BUILD_DIR}/chaos-direct.json" > /dev/null

set +e
RMP_FAULTS="checkpoint.write:after=2:kind=torn" \
  "${SAN_BUILD_DIR}/tools/rmp_serve" --spool "${CHAOS_SPOOL}" \
  --checkpoint-every 2 --drain --poll-ms 20 --owner doomed
CHAOS_RC=$?
set -e
if [ "${CHAOS_RC}" -ne 70 ]; then
  echo "chaos smoke: injected torn checkpoint did not kill the worker (exit ${CHAOS_RC}, want 70)" >&2
  exit 1
fi
sleep 2  # age the dead worker's heartbeat past the lease timeout below

"${SAN_BUILD_DIR}/tools/rmp_serve" --spool "${CHAOS_SPOOL}" \
  --lease-timeout-ms 1500 --drain --poll-ms 20 --owner chaosA &
CHAOS_A=$!
"${SAN_BUILD_DIR}/tools/rmp_serve" --spool "${CHAOS_SPOOL}" \
  --lease-timeout-ms 1500 --drain --poll-ms 20 --owner chaosB &
CHAOS_B=$!
wait "${CHAOS_A}" || { echo "chaos smoke: worker A failed" >&2; exit 1; }
wait "${CHAOS_B}" || { echo "chaos smoke: worker B failed" >&2; exit 1; }

test -s "${CHAOS_SPOOL}/results/chaos.json" \
  || { echo "chaos smoke: no result after recovery" >&2; exit 1; }
test -e "${CHAOS_SPOOL}/work/chaos.corrupt.0" \
  || { echo "chaos smoke: torn checkpoint was not quarantined" >&2; exit 1; }
served=$(grep -o '"fingerprint": "0x[0-9a-f]*"' "${CHAOS_SPOOL}/results/chaos.json" | head -1)
direct=$(grep -o '"fingerprint": "0x[0-9a-f]*"' "${SAN_BUILD_DIR}/chaos-direct.json" | head -1)
if [ -z "${served}" ] || [ "${served}" != "${direct}" ]; then
  echo "chaos smoke: recovered fingerprint '${served}' != direct '${direct}'" >&2
  exit 1
fi
"${SAN_BUILD_DIR}/tools/rmp_trace_check" --spool "${CHAOS_SPOOL}" \
  || { echo "chaos smoke: event trace violates the protocol grammar" >&2; exit 1; }
echo "chaos smoke: torn checkpoint quarantined, lease reclaimed, fingerprint matched"

# ThreadSanitizer lane over the concurrency-bearing binaries: the island
# engine + migration topology (moo_pmo2), the three-phase engine hooks its
# epochs drive (moo_nsga2, moo_spea2), the flat robustness surface
# (robustness_robustness), the whole pipeline at threads=4 (api_run), the
# epoch-committed warm pool (kinetics_warm_start), the thread-pool core
# itself, the sentinel suite, and the two differential harnesses that run
# plain and prescreened archipelagos at several thread counts.
# RelWithDebInfo: TSan's ~10x slowdown on top of -O0 would blow the CI
# budget, and the contract being checked (mutex-staged writes,
# serial-barrier commits) is optimization-independent.  RMP_POOL_WORKERS
# forces a real worker pool even on single-core CI runners — otherwise the
# global pool sizes itself to zero workers, every "parallel" region runs
# inline, and the lane observes no concurrency at all.
# No suppressions file: a TSan finding is a contract violation to fix, not
# to annotate away.
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-${BUILD_DIR}-tsan}"
TSAN_TESTS=(
  core_parallel_test core_sentinel_test
  moo_pmo2_test moo_nsga2_test moo_spea2_test
  kinetics_warm_start_test robustness_robustness_test
  integration_cache_differential_test numeric_solver_differential_test
  api_run_test api_session_test api_serve_test)

cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRMP_SANITIZE=thread \
  -DRMP_BUILD_EXAMPLES=OFF \
  -DRMP_BUILD_BENCH=ON \
  -DRMP_BUILD_TOOLS=OFF

cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target "${TSAN_TESTS[@]}" "${BENCH_GATES[@]}"

for t in "${TSAN_TESTS[@]}"; do
  echo "== tsan: ${t} =="
  RMP_POOL_WORKERS=3 TSAN_OPTIONS="halt_on_error=1" \
    "${TSAN_BUILD_DIR}/tests/${t}"
done
