"""Run every workload over several seeds and print every metric by name.

Usage (from the repository root)::

    python3 perfbench/suite.py                      # 3 seeds, all workloads
    python3 perfbench/suite.py --seeds 10 --workloads serve-cache
    python3 perfbench/compare.py BASE.json NEW.json

Each run is a fresh ``run.py`` process (so ``peak_rss_mb`` is per
workload).  For every workload the suite makes ``--seeds`` untraced runs
and one traced run, prints each end-to-end metric's median, quartiles and
spread (interquartile range over median) against its bound from
``BENCHMARK.json``, then the traced run's per-layer metrics and tracing
overhead.  Every run's full record -- envelope, set-up samples, each job's
samples -- is kept in the ``--out`` results file, which ``compare.py``
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def run_one(workload, seed, seconds, trace, out_dir) -> dict:
    out = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", out,
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True)
    if completed.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    with open(out) as handle:
        record = json.load(handle)
    record["stdout"] = completed.stdout
    return record


def metric_values(runs, workload, name, trace=0):
    return [
        run["result"]["metrics"][name]["value"] for run in runs
        if run["envelope"]["workload"] == workload
        and run["envelope"]["trace"] == trace
        and name in run["result"]["metrics"]
    ]


def report(results: dict) -> list:
    bench = results["benchmark"]
    runs = results["runs"]
    lines = []
    for workload in results["workloads"]:
        attempted = sum(r["result"]["attempted"] for r in runs
                        if r["envelope"]["workload"] == workload)
        failed = sum(r["result"]["failed"] for r in runs
                     if r["envelope"]["workload"] == workload)
        lines.append(f"== {workload}: {attempted} checked, {failed} failed, "
                     f"error_rate {failed / max(1, attempted):.4g}")
        lines.append(f"  {'metric':<30} {'unit':<8} {'median':>12} "
                     f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} n")
        for metric in bench["end_to_end"]:
            values = metric_values(runs, workload, metric["name"])
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            lines.append(
                f"  {metric['name']:<30} {metric['unit']:<8} {q2:>12.6g} "
                f"{q1:>12.6g} {q3:>12.6g} {spread(values):>8.2%} "
                f"{metric['bound']:>6} {len(values)}"
            )
        traced = [r for r in runs if r["envelope"]["workload"] == workload
                  and r["envelope"]["trace"] == 1]
        for run in traced:
            lines.append(f"  traced run, seed {run['envelope']['seed']}:")
            for name, metric in run["result"]["metrics"].items():
                lines.append(f"    {name:<34} {metric['value']:>14.6g} "
                             f"{metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset of " + ", ".join(names))
    parser.add_argument("--seeds", type=int, default=3,
                        help="untraced runs per workload (seeds 1..N)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run")
    parser.add_argument("--out", default=os.path.join(HERE, "out",
                                                      "suite.json"))
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    out_dir = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                           "suite-runs")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for workload in workloads:
        for seed in seeds:
            runs.append(run_one(workload, seed, args.seconds, 0, out_dir))
        if not args.no_trace:
            runs.append(run_one(workload, args.first_seed, args.seconds, 1,
                                out_dir))
    results = {"benchmark": bench, "workloads": workloads, "runs": runs}
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=1)
    for line in report(results):
        print(line)
    print(f"results written to {args.out}")
    failed = sum(run["result"]["failed"] for run in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
