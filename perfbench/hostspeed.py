"""Host-speed calibration: times in reference-core seconds.

Other tenants of a shared host slow each of its CPUs by up to 2x, in
phases that last from seconds to many minutes.  The same job then takes
1.2 s in one run and 2.3 s in the next, and a run that falls wholly in a
slow phase moves any statistic of its own jobs.  A fixed pure-Python loop,
timed on the same CPU right before and right after a measured interval,
slows down by about the same factor.  Dividing the interval by the loop's
slowdown gives what it would have taken on a quiet core: its *reference
seconds*.  The loop is this file's own code and imports nothing from the
program, so a change to the program moves reference seconds by the same
share as wall seconds.

Starting a fresh interpreter slows down less than the loop does (it reads
files and unmarshals bytecode more than it interprets), so a set-up step
that spawns one is bracketed by a like probe instead: a fresh interpreter
that imports a fixed set of standard-library modules.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# The loop's wall time on a quiet core of the host the baseline in
# RATIONALE.md was measured on (2-vCPU Intel Xeon, 2.0 GHz, Python 3.11).
REFERENCE_S = 0.060
LOOP_ITERATIONS = 60_000
# The spawn probe's wall time there.
SPAWN_REFERENCE_S = 0.140
SPAWN_SCRIPT = (
    "import argparse, asyncio, dataclasses, decimal, email.parser, "
    "http.client, json, typing, unittest, xml.dom.minidom"
)


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_node):
        self.key = key
        self.value = value
        self.next = next_node


def calibration_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """Interpreter work of the program's kind: small objects, attribute
    and dict access, calls, string formatting and a sort."""
    counts = {}
    head = None
    total = 0
    for i in range(iterations):
        key = (i * 2654435761) & 4095
        head = _Node(key, i, head if i & 15 else None)
        counts[key] = counts.get(key, 0) + 1
        total += len(str(key)) + sum(x for x in (key, head.value, total & 7))
    ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    return total + len(ordered)


def loop_seconds() -> float:
    """Wall seconds of one calibration loop, now, on this CPU."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def spread_loop_seconds() -> float:
    """Mean wall seconds of the loop over every usable CPU, pinned to each
    in turn, for work that spreads over all of them.  The process is left
    free to run on every CPU again."""
    cpus = usable_cpus()
    if not cpus:
        return loop_seconds()
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(loop_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def spawn_seconds() -> float:
    """Wall seconds of one fresh interpreter running ``SPAWN_SCRIPT``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_SCRIPT], check=True)
    return time.perf_counter() - start


def scale(before: float, after: float, reference: float = REFERENCE_S):
    """Reference seconds per wall second, from a probe's times on either
    side of an interval and its ``reference`` time."""
    return 2 * reference / (before + after)


def timed(fn, probe=loop_seconds, reference: float = REFERENCE_S):
    """``(result, wall_s, scale)`` of ``fn()``, bracketed by ``probe``."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, scale(before, probe(), reference)


def usable_cpus():
    """The CPUs this process may run on, or None where that is unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))
