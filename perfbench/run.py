#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a servernet checkout. Builds perfbench/ (a CMake
project against the repository's `servernet` library) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark binary and forwards its output. The last line of standard output
is the binary's JSON result; its metric names are checked against
BENCHMARK.json. Exits non-zero, without a result line, when the build
fails, and non-zero when any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def jobs() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def build(out: Path) -> bool:
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "perfbench", "-j", str(jobs())]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print(f"perfbench: build failed, see {log_path}", file=sys.stderr)
                return False
    return True


def commit() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def expected_metrics(trace: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--commit", commit(), "--trace-dir", str(traces)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = result.stdout.splitlines()
    if not lines:
        print("perfbench: no output", file=sys.stderr)
        return 1
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (ValueError, KeyError, TypeError):
        print("perfbench: last line is not a result", file=sys.stderr)
        return 1
    if list(metrics) != expected_metrics(args.trace):
        print("perfbench: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
