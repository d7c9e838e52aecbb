#!/usr/bin/env python3
"""Build and run perfbench, the repository's host-time benchmark.

    python3 perfbench/run.py --workload paper_fig2 --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR, default .bench_build, then runs one workload and passes
its output through; the last line is the JSON result. Traced runs also write
Chrome trace-event JSON to <build dir>/traces/. Exits non-zero, printing no
result, when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_fig2", "cold_pipeline", "tiled_dram", "serve_mix")


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(source, build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def git_commit(root):
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path.cwd()
    source = Path(__file__).resolve().parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(source, build_dir):
        log("build failed")
        return 1

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", git_commit(root)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
