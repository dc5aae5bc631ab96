#!/usr/bin/env python3
"""Builds the collector's benchmark (Release) and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload steady_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root) and is incremental. The last line of standard
output is the run's JSON result; build output and per-round progress go to
standard error. `--workload all` runs every workload, each in its own process,
and prints one result line per workload.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["steady_churn", "cyclic_teardown", "lossy_handoff", "threaded_churn"]
# A run ends within a few seconds of --seconds; beyond this margin it hangs.
RUN_MARGIN_S = 140


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "ggd" / "engine.cpp").is_file():
        sys.exit(f"perfbench: collector sources not found under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return out / "perfbench"


def run_one(binary: Path, args, workload: str) -> tuple[int, str]:
    spans = binary.parent / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans / f"{workload}.json")]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {timeout}s", file=sys.stderr)
        return 1, ""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1, ""
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result: {lines[-1]}", file=sys.stderr)
        return 1, ""
    return 0, lines[-1]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    try:
        binary = build(build_dir())
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.workload != "all":
        code, line = run_one(binary, args, args.workload)
        if code == 0:
            print(line, flush=True)
        return code
    status = 0
    for w in WORKLOADS:
        code, line = run_one(binary, args, w)
        status = status or code
        if code == 0:
            print(json.dumps({"workload": w, **json.loads(line)}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
