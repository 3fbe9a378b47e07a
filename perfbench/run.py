"""Run one benchmark workload; the last stdout line is the JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-multiset --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no shims installed.
``--trace 1`` runs every job twice on the same input, once untraced and
once under the span shims (``spans.py``), in alternating order; it
reports the per-layer metrics and the tracing overhead (traced minus
untraced).  Each run also writes its envelope (git sha, Python
version, cpu_count, argv, seed) and every job's samples to
``perfbench/out/`` (or ``--out``).  ``--record-reference`` rewrites the
explore-reduced reference digests from the current code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import (  # noqa: E402
    loop_seconds,
    scale,
    spread_loop_seconds,
    usable_cpus,
)
from spans import SpanTracer, install  # noqa: E402
from workloads import WORKLOADS, record_reference  # noqa: E402


def median(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def load_units(kind: str) -> dict:
    """``{metric: unit}`` of the ``end_to_end`` or ``per_layer`` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def git_sha(root: str = ROOT):
    """HEAD's commit from ``.git`` if the checkout has one, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def envelope(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "argv": list(sys.argv),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _run_job(workload, index: int, tracer=None):
    if tracer is None:
        return workload.run_job(index)
    uninstall = install(tracer)
    try:
        with tracer.job_span(f"{workload.name}#{index}"):
            return workload.run_job(index)
    finally:
        uninstall()


def run_job(workload, index: int, tracer=None):
    """Job ``index`` from a collected heap, so one job's garbage is not
    billed to the next; with a tracer, under the shims and a job span.
    The calibration loop runs right before and after it (outside the
    shims), and sets the job's ``scale`` (see hostspeed.py): on the job's
    own CPU for a single-threaded workload, on every CPU for the others."""
    probe = loop_seconds if workload.ROTATE_CPUS else spread_loop_seconds
    gc.collect()
    before = probe()
    job = _run_job(workload, index, tracer)
    job.scale = scale(before, probe())
    return job


def measure(workload, seconds: float, tracer=None):
    """Run jobs 0, 1, 2, ... until ``seconds`` have passed (at least one).

    Job ``i`` always gets the same input.  With a tracer, each job runs
    twice, untraced and traced, and the pair's order alternates, so the
    host's drift cancels out of the tracing overhead.  A single-threaded
    workload runs job ``i`` pinned to the ``i``-th usable CPU in turn, so
    the job and its calibration loops share one CPU and a run samples
    every CPU.  Returns the ``(untraced, traced)`` job lists.
    """
    cpus = usable_cpus() if workload.ROTATE_CPUS else None
    try:
        return _measure(workload, seconds, tracer, cpus)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def _measure(workload, seconds, tracer, cpus):
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(untraced)
        if cpus:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        if tracer is None:
            untraced.append(run_job(workload, index))
        else:
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            for shims in order:
                jobs = untraced if shims is None else traced
                jobs.append(run_job(workload, index, shims))
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def end_to_end(jobs, setup: dict) -> dict:
    return {
        "setup_s": median(setup["setup_s"]),
        "ops_per_s": median(j.ops / (j.wall * j.scale) for j in jobs),
        "exhaust_s": median(j.wall * j.scale for j in jobs),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


def error_rate(jobs) -> float:
    attempted = sum(j.attempted for j in jobs)
    return sum(len(j.failures) for j in jobs) / max(1, attempted)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(tracer, traced, untraced, setup) -> dict:
    """Per-layer metrics of the traced pass (see RATIONALE.md)."""
    totals = tracer.layer_totals()
    counts = tracer.counts()

    def self_s(layer, role=None):
        return sum(v[2] for (r, name), v in totals.items()
                   if name == layer and role in (None, r))

    def total_s(layer, role=None):
        return sum(v[1] for (r, name), v in totals.items()
                   if name == layer and role in (None, r))

    job_wall = tracer.active_seconds("main")
    job_ends = {job: end for job, _label, _start, end in tracer.jobs}
    drain = sum(job_ends[job] - end
                for job, (_start, end) in tracer.windows("check").items())

    ops = sum(j.ops for j in traced)
    records = sum(j.records for j in traced) or counts["log.records"]
    kernel_runs = counts["kernel.runs"]
    steps = counts["kernel.steps"]
    explored = sum(j.stats.get("runs", 0) for j in traced)
    us = 1e6
    kernel = self_s("kernel")
    linz = self_s("linz")
    refinement = self_s("refinement")
    nodes, hits = counts["linz.nodes"], counts["linz.memo_hits"]
    all_jobs = untraced + traced
    served = [j.stats for j in all_jobs if "queue_max_depth" in j.stats]
    first = traced[0].stats if traced else {}
    untraced_e2e = end_to_end(untraced, setup)
    traced_e2e = end_to_end(traced, setup)
    overhead = _ratio(
        sum(j.wall for j in traced), sum(j.wall for j in untraced)
    ) - 1.0
    return {
        "kernel.us_per_step": _ratio(kernel * us, steps),
        "kernel.steps_per_op": _ratio(steps, ops),
        "kernel.us_per_op": _ratio(kernel * us, ops),
        "kernel.share": _ratio(kernel, job_wall),
        "kernel.us_per_run": _ratio(kernel * us, kernel_runs),
        "kernel.steps_per_run": _ratio(steps, kernel_runs),
        "log.records_per_op": _ratio(counts["log.records"], ops),
        "log.append_us_per_record": _ratio(
            total_s("log.append") * us, counts["log.records"]
        ),
        "linz.us_per_op": _ratio(linz * us, ops),
        "linz.nodes_per_op": _ratio(nodes, ops),
        "linz.memo_hit_ratio": _ratio(hits, nodes + hits),
        "linz.share": _ratio(linz, job_wall),
        "refinement.us_per_record": _ratio(
            refinement * us, counts["refinement.records"]
        ),
        "refinement.us_per_op": _ratio(refinement * us, ops),
        "refinement.us_per_run": _ratio(refinement * us, kernel_runs),
        "races.us_per_record": _ratio(
            self_s("races") * us, counts["races.records"]
        ),
        "store.us_per_record": _ratio(self_s("store") * us, records),
        "store.bytes_per_record": _ratio(counts["store.bytes"], records),
        "shard.tail_us_per_record": _ratio(self_s("shard.tail") * us, records),
        "log.decode_us_per_record": _ratio(
            self_s("log.decode", "ingest") * us, records
        ),
        "merge.us_per_record": _ratio(self_s("merge") * us, records),
        "daemon.queue_put_wait_share": _ratio(
            total_s("queue.put", "ingest"), tracer.active_seconds("ingest")
        ),
        "daemon.queue_get_wait_share": _ratio(
            total_s("queue.get", "check"), tracer.active_seconds("check")
        ),
        "daemon.queue_max_depth": median(s["queue_max_depth"] for s in served),
        "daemon.pause_raises": median(s["pause_raises"] for s in served),
        "daemon.catchup_records": sum(s["catchup_records"] for s in served),
        "daemon.drain_share": _ratio(drain, job_wall),
        "log.signature_us_per_record": _ratio(
            self_s("log.signature") * us, records
        ),
        "log.audit_us_per_record": _ratio(total_s("log.audit") * us, records),
        "explore.runs": first.get("runs", 0),
        "explore.skipped": first.get("skipped", 0),
        "explore.hb_orders": first.get("hb_orders", 0),
        "explore.useful_ratio": _ratio(
            first.get("hb_orders", 0), first.get("runs", 0)
        ),
        "explore.us_per_run": _ratio(total_s("explore") * us, explored),
        "harness.fingerprint_us_per_run": _ratio(
            self_s("harness.fingerprint") * us, explored
        ),
        "reduction.us_per_run": _ratio(self_s("reduction") * us, explored),
        "lint.analyze_s": median(setup.get("lint.analyze_s", ())),
        "error_rate": error_rate(all_jobs),
        "trace.overhead_share": overhead,
        "trace.ops_per_s_delta": (
            traced_e2e["ops_per_s"] - untraced_e2e["ops_per_s"]
        ),
        "trace.exhaust_s_delta": (
            traced_e2e["exhaust_s"] - untraced_e2e["exhaust_s"]
        ),
        "trace.uncovered_share": _ratio(self_s("job", "main"), job_wall),
    }


LABELS = {
    "job": "uncovered (job time in no layer span)",
    "daemon.run": "daemon.run (joining ingest and check)",
    "log.audit": "log.audit (excl. its log.decode)",
}


def layer_split(tracer) -> list:
    """Human-readable self-time shares per thread, uncovered time named."""
    totals = tracer.layer_totals()
    lines = []
    for role in ("main", "ingest", "check"):
        base = tracer.active_seconds(role)
        if not base:
            continue
        rows = sorted(
            ((v[2], name) for (r, name), v in totals.items() if r == role),
            reverse=True,
        )
        lines.append(f"layer split, {role} thread ({base:.3f} s):")
        for self_time, name in rows:
            label = LABELS.get(name, name)
            lines.append(f"  {label:<40} {self_time / base:7.1%}")
        if role != "main":
            idle = base - sum(v for v, _n in rows)
            lines.append(f"  {'uncovered (thread time in no span)':<40} "
                         f"{idle / base:7.1%}")
    return lines


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        setup = workload.setup()
        tracer = SpanTracer() if args.trace else None
        untraced, traced = measure(workload, args.seconds, tracer)
        jobs = untraced + traced
    finally:
        workload.close()
    failures = [f for j in jobs for f in j.failures]
    if args.trace:
        values = per_layer(tracer, traced, untraced, setup)
    else:
        values = end_to_end(jobs, setup)
    declared = load_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    metrics = {
        name: {"value": value, "unit": declared[name]}
        for name, value in values.items()
    }
    result = {
        "correct": not failures,
        "attempted": sum(j.attempted for j in jobs),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "envelope": envelope(args),
        "setup": setup,
        "jobs": [
            {"wall": j.wall, "scale": j.scale, "ops": j.ops,
             "records": j.records, "attempted": j.attempted,
             "failures": j.failures, "traced": shims, "stats": j.stats}
            for shims, side in ((False, untraced), (True, traced))
            for j in side
        ],
        "result": result,
    }
    out = args.out or os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    if tracer is not None:
        tracer.write(out[:-len(".json")] + ".spans.json")
        for line in layer_split(tracer):
            print(line)
    for failure in failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the run record")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        print(json.dumps(record_reference(), indent=2, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
