#!/usr/bin/env python3
"""Builds and runs the EffiTest end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload population_s13207 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 45 --trace 1

The benchmark is its own cargo package (perfbench/Cargo.toml) built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). Each workload
runs in its own process with EFFITEST_THREADS=1. The last line of standard
output is the result: one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only if every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("population_s13207", "service_stream")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def command_output(argv):
    """First line of a command's output, or None if it cannot run."""
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip().splitlines()[0] if out.stdout.strip() else None


def header():
    """Run header: revision, cores, worker threads, build profile, compiler."""
    rev = command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    rustc = command_output(["rustc", "--version"]) or "rustc unknown"
    return f"# rev {rev}  nproc {os.cpu_count()}  threads 1  profile release  {rustc}"


def build(target):
    """Builds the benchmark binary; cargo's own output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)
    return target / "release" / "perfbench"


def run_workload(binary, workload, args, scratch):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--scratch", str(scratch)]
    env = dict(os.environ, EFFITEST_THREADS="1")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "core").is_dir():
        sys.exit(f"perfbench: {ROOT} is not an EffiTest checkout (no crates/core to build)")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    scratch = target / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)

    print(header(), flush=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    code = 0
    for workload in workloads:
        status, out = run_workload(binary, workload, args, scratch)
        sys.stdout.write(out)
        sys.stdout.flush()
        lines = out.strip().splitlines()
        if status != 0 and not (lines and lines[-1].startswith("{")):
            sys.exit(f"perfbench: {workload} exited with status {status} and no result")
        code = code or status
        results[workload] = json.loads(lines[-1])
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()
