#!/usr/bin/env python3
"""Paper-pipeline benchmark: builds pipeline_bench from source, runs one
workload and prints its metrics as the last line of stdout.

    python3 perfbench/run.py --workload ph-search --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; results and span traces go next to
it.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds pipeline_bench; build logs go to stderr."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", "pipeline_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    cache = (out / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise SystemExit("perfbench: refusing to measure a non-Release build")
    return out / "pipeline_bench"


def source_record() -> dict:
    """The commit when the tree is a git checkout, and always a digest of
    the sources the benchmark compiles."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_binary(binary: Path, args: list) -> dict:
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE, text=True,
                          timeout=BINARY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench: pipeline_bench exited with {proc.returncode}")
    return json.loads(lines[-1])


def missing_metrics(emitted: dict, declared: dict) -> list:
    """Names declared in BENCHMARK.json that were not emitted with their unit."""
    return [name for name, unit in declared.items()
            if emitted.get(name, {}).get("unit") != unit]


def selftest(binary: Path, out_dir: Path) -> list:
    """Runs the two-generation ZDT1 smoke spec; returns its failures."""
    report = run_binary(binary, ["--selftest", "--out-dir", str(out_dir)])
    failures = list(report["failures"])
    declared = declared_metrics()
    for kind in ("end_to_end", "per_layer"):
        for name in missing_metrics(report["metrics"][kind], declared[kind]):
            failures.append(f"self-test: {kind} metric {name} missing or wrong unit")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only run the benchmark's smoke self-test")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"perfbench: build failed: {e}")
    out_dir = out / "out"
    smoke_failures = selftest(binary, out_dir)
    if args.selftest:
        for failure in smoke_failures:
            print(f"self-test failure: {failure}", file=sys.stderr)
        print(json.dumps({"selftest": "fail" if smoke_failures else "pass"}))
        return 1 if smoke_failures else 0

    report = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out_dir)])
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    missing = missing_metrics(report["metrics"], declared)
    failures = (smoke_failures + report["failures"] +
                [f"metric {name} missing or wrong unit" for name in missing])
    result = {
        "correct": not failures,
        "attempted": report["attempted"] + 1,  # + the self-test
        "failed": report["failed"] + bool(smoke_failures) + bool(missing),
        "metrics": {name: report["metrics"][name] for name in declared
                    if name in report["metrics"]},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": {**report["env"], **source_record()}, "passes": report["passes"],
              "failures": failures, "result": result, "pass_log": report["pass_log"]}
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "passes": record["passes"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
