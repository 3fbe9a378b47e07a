"""Golden schedule gate: the kernel's interleavings are pinned.

Every registry program, correct and buggy, is run under the seeded
``RandomScheduler`` at 2, 4, 16 and 32 threads and seeds 0, 1 and 7, plus
a ``PCTScheduler`` and a ``RoundRobinScheduler`` column at 4 threads.
Each run's ``log_signature`` (locks and reads logged, so every scheduling
decision that touches shared state shows in the log) and its exact
``kernel.steps`` must equal the values in ``schedule_golden.json``.

The data was recorded before the kernel's incremental ready list, live
counter and dispatch table replaced the per-step scans, so a pass proves
that optimisation changed no schedule.  Regenerating it only ever belongs
to a change that *means* to alter schedules::

    PYTHONPATH=src python tests/concurrency/test_schedule_golden.py
"""

import json
import pathlib

import pytest

from repro.concurrency import PCTScheduler, RoundRobinScheduler
from repro.core.log import log_signature
from repro.harness import run_program
from repro.harness.workload import PROGRAMS

GOLDEN = pathlib.Path(__file__).with_name("schedule_golden.json")

THREADS = (2, 4, 16, 32)
SEEDS = (0, 1, 7)
#: Calls per run are spread over the threads so a 32-thread run stays cheap.
TOTAL_CALLS = 24

SCHEDULERS = {
    "random": None,  # run_program's default: RandomScheduler(seed)
    "pct": PCTScheduler,
    "round-robin": lambda seed: RoundRobinScheduler(),
}


def _configs():
    for program in sorted(PROGRAMS):
        for buggy in (False, True):
            for threads in THREADS:
                for seed in SEEDS:
                    yield program, buggy, "random", threads, seed
            for scheduler in ("pct", "round-robin"):
                for seed in SEEDS:
                    yield program, buggy, scheduler, 4, seed


def _key(program, buggy, scheduler, threads, seed) -> str:
    variant = "buggy" if buggy else "correct"
    return f"{program}/{variant}/{scheduler}/t{threads}/s{seed}"


def _observe(program, buggy, scheduler, threads, seed) -> dict:
    result = run_program(
        program, buggy=buggy, num_threads=threads,
        calls_per_thread=max(1, TOTAL_CALLS // threads), seed=seed,
        scheduler_factory=SCHEDULERS[scheduler],
        log_locks=True, log_reads=True,
    )
    return {
        "signature": log_signature(list(result.log)),
        "steps": result.kernel.steps,
        "records": len(result.log),
    }


def test_golden_covers_every_config():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_key(*config) for config in _configs())


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_schedules_match_golden(program):
    golden = json.loads(GOLDEN.read_text())
    mismatches = []
    for config in _configs():
        if config[0] != program:
            continue
        key = _key(*config)
        observed = _observe(*config)
        if observed != golden[key]:
            mismatches.append((key, golden[key], observed))
    assert not mismatches, mismatches


def _record() -> None:
    golden = {_key(*config): _observe(*config) for config in _configs()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} configs to {GOLDEN}")


if __name__ == "__main__":
    _record()
