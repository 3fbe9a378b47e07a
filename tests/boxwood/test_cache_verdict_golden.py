"""Golden verdict gate for the Boxwood cache: outcomes are pinned byte for byte.

Every configuration runs the cache program (reads and locks logged) and
checks the log twice: in view mode exactly as the serve daemon builds its
checker (``session_checkers``), and in I/O mode with the two runtime
invariants alone, so invariant verdicts are not masked by an earlier view
violation at the same commit.  Each entry is the full
``CheckOutcome.to_dict()``.

Configurations: correct and buggy cache x {2, 4} threads x seeds {0, 1, 2}
x ``stop_at_first`` in {True, False}, plus the COPY-TO-CACHE seeded bug of
the linz cross-validation gate (3 threads x 10 calls, seed 2).

``cache_verdict_golden.json`` was recorded while the cache invariants were
still whole-state scans evaluated at every commit, so a pass proves the
per-unit (incremental) invariants changed no verdict, violation seq or
message.  The runs are observed in child interpreters under two hash
seeds, ``PYTHONHASHSEED=0`` and ``1``, and both must equal the golden: a
view violation's diff samples the mismatched keys, and the sample must not
depend on set iteration order.  Regenerate only for a change that means to
alter verdicts::

    PYTHONPATH=src python tests/boxwood/test_cache_verdict_golden.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.boxwood import StoreSpec, cache_invariants
from repro.core import RefinementChecker
from repro.harness import run_program
from repro.serve import session_checkers

GOLDEN = pathlib.Path(__file__).with_name("cache_verdict_golden.json")

CALLS = 30
BLOCK = 8


def _runs():
    for buggy in (False, True):
        for threads in (2, 4):
            for seed in (0, 1, 2):
                variant = "buggy" if buggy else "correct"
                yield f"{variant}/t{threads}/s{seed}", dict(
                    buggy=buggy, num_threads=threads,
                    calls_per_thread=CALLS, seed=seed,
                )
    yield "copy-to-cache-bug", dict(
        buggy=True, num_threads=3, calls_per_thread=10, seed=2,
    )


def _checker(mode: str, stop_at_first: bool) -> RefinementChecker:
    if mode == "view":
        return session_checkers("cache", stop_at_first=stop_at_first)[0]()
    return RefinementChecker(
        StoreSpec(), mode="io", invariants=cache_invariants(BLOCK),
        stop_at_first=stop_at_first,
    )


def _observe(run_kwargs: dict) -> dict:
    log = list(run_program(
        "cache", log_reads=True, log_locks=True, **run_kwargs
    ).log)
    observed = {}
    for mode in ("view", "io"):
        for stop_at_first in (True, False):
            checker = _checker(mode, stop_at_first)
            checker.feed(log)
            observed[f"{mode}/stop{int(stop_at_first)}"] = (
                checker.finish().to_dict()
            )
    return observed


RUNS = dict(_runs())


HASH_SEEDS = ("0", "1")


def _observe_all_seeded(hash_seed: str = "0") -> dict:
    """Every run, observed by a child interpreter with a fixed hash seed."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, __file__, "--print"], env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def observed():
    return {seed: _observe_all_seeded(seed) for seed in HASH_SEEDS}


def test_golden_covers_every_run():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cache_verdicts_match_golden(name, observed):
    golden = json.loads(GOLDEN.read_text())
    for seed in HASH_SEEDS:
        assert observed[seed][name] == golden[name], f"PYTHONHASHSEED={seed}"


def test_golden_exercises_invariant_violations():
    golden = json.loads(GOLDEN.read_text())
    kinds = {
        violation["kind"]
        for entry in golden.values()
        for outcome in entry.values()
        for violation in outcome["violations"]
    }
    assert "invariant" in kinds


def _record() -> None:
    golden = _observe_all_seeded()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} runs to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps({name: _observe(kwargs) for name, kwargs in RUNS.items()}))
    else:
        _record()
