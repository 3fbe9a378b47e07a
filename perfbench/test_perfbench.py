"""Checks of the benchmark's own correctness gate.

Run with ``python3 -m pytest perfbench`` from the repository root; the
repository's test suite does not collect this directory.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import error_rate, measure  # noqa: E402
from workloads import (  # noqa: E402
    EXPLORE_CONFIGS,
    ExploreReduced,
    config_key,
    load_reference,
)

# the short buggy tree: 258 runs, so the check stays quick
CONFIG = EXPLORE_CONFIGS[1]


def _explore_error_rate(reference) -> float:
    workload = ExploreReduced(0, HERE, configs=[CONFIG], reference=reference)
    workload.setup()
    untraced, _traced = measure(workload, seconds=0)
    return error_rate(untraced)


def test_recorded_reference_passes():
    assert _explore_error_rate(load_reference()) == 0


def test_tampered_reference_raises_error_rate():
    reference = copy.deepcopy(load_reference())
    entry = reference[config_key(CONFIG)]
    entry["violation_digest"] = "0" * 64
    assert _explore_error_rate(reference) > 0
