"""Kernel scaling: per-step cost of the simulator as threads grow.

Runs the multiset-vector workload (a fixed number of calls in total,
spread over the threads) at 2, 4 and 32 threads and reports the kernel's
CPU microseconds per scheduling step at each.  The time is
``RunResult.run_cpu`` -- ``Kernel.run`` including the VYRD log appends it
drives -- divided by ``kernel.steps``.  Each round runs every thread count
once with the round's seed, so a slow phase of a shared host lands on all
thread counts alike; the best round per thread count is kept.

The gate is a same-process ratio, so it holds on any host: per-step cost
at 32 threads may be at most ``MAX_RATIO`` times the cost at 2 threads.
A kernel that rebuilds its runnable list and rescans every thread on each
step measures about 2x here (its step cost grows with the thread count)
and fails; one that keeps its ready list and live count incrementally
measures about 1x and passes.  Writes ``BENCH_kernel_scaling.json`` at
the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_scaling.py          # 1200 calls, 5 rounds
    PYTHONPATH=src python benchmarks/bench_kernel_scaling.py --smoke  # 300 calls, 5 rounds (CI)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from repro.harness import run_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_kernel_scaling.json")

PROGRAM = "multiset-vector"
THREADS = (2, 4, 32)
MAX_RATIO = 1.5
# (total calls per config, rounds)
FULL = (1200, 5)
SMOKE = (300, 5)


def _git(*args):
    try:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure_once(threads: int, total_calls: int, seed: int) -> dict:
    result = run_program(
        PROGRAM, num_threads=threads,
        calls_per_thread=max(1, total_calls // threads), seed=seed,
    )
    steps = result.kernel.steps
    return {
        "seed": seed,
        "steps": steps,
        "records": len(result.log),
        "run_cpu_s": round(result.run_cpu, 4),
        "us_per_step": round(result.run_cpu / steps * 1e6, 3),
    }


def run_bench(total_calls: int, rounds: int) -> dict:
    runs = {threads: [] for threads in THREADS}
    for seed in range(rounds):
        for threads in THREADS:
            runs[threads].append(measure_once(threads, total_calls, seed))
    rows = [
        {
            "threads": threads,
            "calls_per_thread": max(1, total_calls // threads),
            "us_per_step": min(run["us_per_step"] for run in runs[threads]),
            "runs": runs[threads],
        }
        for threads in THREADS
    ]
    by_threads = {row["threads"]: row["us_per_step"] for row in rows}
    ratio = by_threads[max(THREADS)] / by_threads[min(THREADS)]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "benchmark": "kernel_scaling",
        "git_sha": _git("rev-parse", "HEAD"),
        # True when tracked files differ from git_sha: the numbers then
        # measure uncommitted code.
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "argv": list(sys.argv),
        "program": PROGRAM,
        "total_calls": total_calls,
        "rounds": rounds,
        "rows": rows,
        "ratio_32_to_2": round(ratio, 3),
        "max_ratio": MAX_RATIO,
        "ok": ratio <= MAX_RATIO,
    }


def render(report: dict) -> str:
    lines = [
        f"kernel scaling: {report['program']}, ~{report['total_calls']} "
        f"calls, best of {report['rounds']} rounds (Python "
        f"{report['python']}, {report['cpu_count']} CPU(s))",
        f"{'threads':>7}  {'steps':>9}  {'us/step':>8}",
    ]
    for row in report["rows"]:
        best = min(row["runs"], key=lambda run: run["us_per_step"])
        lines.append(
            f"{row['threads']:>7}  {best['steps']:>9}  "
            f"{row['us_per_step']:>8.2f}"
        )
    verdict = "OK" if report["ok"] else "FAIL"
    lines.append(
        f"us/step(32) / us/step(2) = {report['ratio_32_to_2']:.2f} "
        f"(gate <= {report['max_ratio']}): {verdict}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI size: 300 calls per config, 5 rounds")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    report = run_bench(*(SMOKE if args.smoke else FULL))
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(render(report))
    print(f"report written to {args.out}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
