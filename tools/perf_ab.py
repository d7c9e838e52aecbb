#!/usr/bin/env python3
"""Same-host A/B of perfbench between two checkouts of this repository.

    python3 tools/perf_ab.py BASE HEAD [--pairs 10] [--seconds 20] [--workload W ...]

BASE and HEAD are checkout directories, e.g. the parent commit and a change.
Each pair runs `python3 perfbench/run.py --seed 20251 --trace 0` once in each
checkout: base first in even pairs, head first in odd pairs, so that drift in
the host's speed lands on both sides. Each checkout builds its own perfbench
into its own .bench_build on its first run. Without --workload every workload
in BENCHMARK.json runs, one after the other.

Every run must report `failed` 0, and every run on both sides must print the
same sorted `digest` lines. Each end-to-end metric of BENCHMARK.json takes its
`better` direction and `bound` from there and gets one verdict (see verdict()):

    unresolved  the base IQR is wider than the bound and the two sides' runs
                overlap (neither side beat the other in every run)
    worse       the head median is worse than the base median by more than the bound
    gain        head won at least 9/10 of the pairs, and the medians differ by
                more than the base IQR
    within      anything else

Beside each verdict the report prints the median and quartiles of the
per-pair head/base ratios. The two runs of a pair run back to back, so drift
in the host's speed over a set moves both of them: the pair ratios can be
tight where the base IQR, which includes that drift, is wide.

Exits 1 on a failed run, a digest mismatch or a `worse` verdict, else 0.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SEED = 20251
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Run(NamedTuple):
    error: str | None  # why the run failed, or None
    metrics: dict      # end-to-end metric name -> value
    digest: tuple      # the run's sorted `digest ` lines


def parse_run(returncode, stdout):
    """One perfbench run from run.py's exit code and standard output."""
    lines = stdout.splitlines()
    digest = tuple(sorted(line for line in lines if line.startswith("digest ")))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return Run(f"exit {returncode}, no result line", {}, digest)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    error = None
    if returncode != 0 or result.get("failed") != 0:
        error = f"exit {returncode}, {result.get('failed')} failed of {result.get('attempted')}"
    return Run(error, metrics, digest)


def quartiles(samples):
    """First quartile, median and third quartile, interpolating between ranks."""
    s = sorted(samples)

    def at(q):
        pos = (len(s) - 1) * q
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_ratios(base, head):
    """Quartiles of the head/base ratio of each pair (pairs with a zero base skipped)."""
    ratios = [h / b for b, h in zip(base, head) if b]
    return quartiles(ratios) if ratios else (float("nan"),) * 3


def verdict(base, head, better, bound):
    """Verdict on one metric and the number of pairs head won.

    base[i] and head[i] ran in pair i. A pair whose two values are equal
    counts for neither side.
    """
    sign = 1 if better == "lower" else -1  # sign * value: lower is better
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    wins = sum(sign * h < sign * b for b, h in zip(base, head))
    iqr = q3 - q1
    separated = (max(sign * h for h in head) < min(sign * b for b in base)
                 or min(sign * h for h in head) > max(sign * b for b in base))
    worsening = sign * (head_median - base_median)
    if iqr > bound * abs(base_median) and not separated:
        return "unresolved", wins
    if worsening > bound * abs(base_median):
        return "worse", wins
    if wins >= 0.9 * len(base) and -worsening > iqr:
        return "gain", wins
    return "within", wins


def evaluate(workload, base_runs, head_runs, metrics):
    """Report lines and failures for one workload's paired runs.

    metrics is BENCHMARK.json's end_to_end list. Any failure makes the
    script exit 1.
    """
    failures = [f"{workload} {side} run {i}: {run.error}"
                for side, runs in (("base", base_runs), ("head", head_runs))
                for i, run in enumerate(runs) if run.error]
    if failures:
        return [f"{workload}: a run failed"], failures
    reference = base_runs[0].digest
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for i, run in enumerate(runs):
            if run.digest != reference:
                gone = sorted(set(reference) - set(run.digest))
                new = sorted(set(run.digest) - set(reference))
                lines = [f"{workload}: {side} run {i} differs from base run 0 in "
                         f"{max(len(gone), len(new))} of {len(reference)} digest lines"]
                lines += [f"  base run 0: {gone[0]}"] if gone else []
                lines += [f"  {side} run {i}: {new[0]}"] if new else []
                return lines, [f"{workload} digest mismatch"]
    pairs = len(head_runs)
    lines = [f"{workload}: {pairs} pairs, digests identical ({len(reference)} lines)",
             f"  {'metric':<18} {'base median [q1 - q3]':>32} {'head median':>12} "
             f"{'ratio':>7} {'pair ratio [q1 - q3]':>26} {'won':>6} {'bound':>6}  verdict"]
    for spec in metrics:
        name = spec["name"]
        if name not in base_runs[0].metrics:
            continue
        base = [run.metrics[name] for run in base_runs]
        head = [run.metrics[name] for run in head_runs]
        result, wins = verdict(base, head, spec["better"], spec["bound"])
        q1, base_median, q3 = quartiles(base)
        head_median = quartiles(head)[1]
        base_column = f"{base_median:.4g} [{q1:.4g} - {q3:.4g}]"
        r1, ratio_median, r3 = pair_ratios(base, head)
        ratio_column = f"{ratio_median:.3f} [{r1:.3f} - {r3:.3f}]"
        lines.append(f"  {name:<18} {base_column:>32} {head_median:>12.4g} "
                     f"{head_median / base_median:>7.3f} {ratio_column:>26} "
                     f"{f'{wins}/{pairs}':>6} {spec['bound']:>6.0%}  {result}")
        if result == "worse":
            failures.append(f"{workload} {name} worse")
    return lines, failures


def run_once(checkout, workload, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds into its own .bench_build
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    run = parse_run(done.returncode, done.stdout)
    if run.error:
        sys.stderr.write(done.stderr[-4000:])
    return run


def sha256(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def main():
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, help="checkout under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload in BENCHMARK.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}

    print(f"perf_ab: base {sides['base']}, head {sides['head']}, seed {SEED}, "
          f"{args.pairs} pairs x {args.seconds} s", flush=True)
    reports, failures = [], []
    for workload in args.workload or names:
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                run = run_once(sides[side], workload, args.seconds)
                runs[side].append(run)
                values = " ".join(f"{k} {v:.4g}" for k, v in run.metrics.items())
                print(f"{workload} pair {pair} {side}: {run.error or values}", flush=True)
            if runs["base"][-1].error or runs["head"][-1].error:
                break
        lines, failed = evaluate(workload, runs["base"], runs["head"], spec["end_to_end"])
        reports += lines
        failures += failed

    hashes = {side: sha256(path / ".bench_build" / "perfbench") for side, path in sides.items()}
    same = "identical" if hashes["base"] == hashes["head"] else "different"
    print(f"\nperfbench binaries {same}: base {hashes['base']}, head {hashes['head']}")
    print("\n".join(reports))
    print(f"perf_ab: FAIL: {'; '.join(failures)}" if failures else "perf_ab: pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
