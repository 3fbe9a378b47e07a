"""Compare two suite results files metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both sides' median and
quartiles, the bound from ``BENCHMARK.json``, and a label:

* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``better``: NEW beats BASE in at least nine tenths of all (base, new)
  sample pairs, and the medians differ by more than BASE's own
  interquartile range;
* ``unresolved``: neither (which includes "no change within the bound").

Per-layer metrics of the traced runs are listed beside each other without
a label: they explain a change, they do not gate it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from suite import metric_values, quartiles  # noqa: E402


def label(base, new, better: str, bound: float) -> str:
    if not base or not new:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    b1, b2, b3 = quartiles(base)
    _, n2, _ = quartiles(new)
    change = sign * (n2 - b2) / b2 if b2 else 0.0
    if change < -bound:
        return "worse"
    wins = sum(1 for b in base for n in new if sign * (n - b) > 0)
    if wins >= 0.9 * len(base) * len(new) and abs(n2 - b2) > b3 - b1:
        return "better"
    return "unresolved"


def compare(base: dict, new: dict) -> list:
    bench = new["benchmark"]
    lines = [
        f"{'workload':<16} {'metric':<14} {'unit':<6} "
        f"{'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
        f"{'bound':>6}  label"
    ]
    workloads = [w for w in new["workloads"] if w in base["workloads"]]
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = metric_values(base["runs"], workload, name)
            n = metric_values(new["runs"], workload, name)
            if not b and not n:
                continue
            cells = []
            for values in (b, n):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            lines.append(
                f"{workload:<16} {name:<14} {metric['unit']:<6} "
                f"{cells[0]:>34} {cells[1]:>34} {metric['bound']:>6}  "
                f"{label(b, n, metric['better'], metric['bound'])}"
            )
    lines.append("")
    lines.append("per-layer (traced runs, medians; no gate):")
    for workload in workloads:
        for metric in bench["per_layer"]:
            name = metric["name"]
            b = metric_values(base["runs"], workload, name, trace=1)
            n = metric_values(new["runs"], workload, name, trace=1)
            if not any(b) and not any(n):
                continue  # the layer does no work in this workload
            lines.append(
                f"{workload:<16} {name:<34} {quartiles(b)[1]:>12.5g} "
                f"{quartiles(n)[1]:>12.5g} {metric['unit']}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    for line in compare(base, new):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
