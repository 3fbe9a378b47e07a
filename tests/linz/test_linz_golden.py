"""Golden linz verdict gate: reports are pinned field for field.

The cross-validation tests check *that* linz catches each seeded bug; this
gate pins *what* it reports -- ``LinzOutcome.to_dict()`` (search counters,
``detection_method_count``, the witness ``linearization``) and the first
violation's ``to_dict()`` (its ``pending`` set and ``spec_state`` at the
search frontier).  Cases: the three seeded bugs of the cross-validation
gate, the strict-lookup divergence witness under both multiset specs, and
one clean multiset-vector 4x300 run.

``linz_golden.json`` was recorded before the search frontier became lazy
(recorded per node, rendered only on failure), so a pass proves the
violation report did not move.  Regenerate only for a change that means to
alter reports::

    PYTHONPATH=src python tests/linz/test_linz_golden.py
"""

import json
import pathlib

import pytest

from repro.harness import run_program
from repro.linz import LinzChecker, strict_lookup_divergence_log
from repro.multiset import MultisetSpec

GOLDEN = pathlib.Path(__file__).with_name("linz_golden.json")

#: name -> run_program kwargs (linearizability is always on).
RUNS = {
    "java-vector-bug": dict(
        program="java-vector", buggy=True, num_threads=3,
        calls_per_thread=12, seed=7,
    ),
    "stringbuffer-bug": dict(
        program="stringbuffer", buggy=True, num_threads=3,
        calls_per_thread=12, seed=1,
    ),
    "cache-bug": dict(
        program="cache", buggy=True, num_threads=3, calls_per_thread=10,
        seed=2,
    ),
    "multiset-vector-clean": dict(
        program="multiset-vector", num_threads=4, calls_per_thread=300,
        seed=0,
    ),
}

#: name -> spec factory for the strict-lookup divergence witness.
WITNESS_SPECS = {
    "strict-lookup-witness": MultisetSpec,
    "strict-lookup-witness-permissive": (
        lambda: MultisetSpec(permissive_lookup=True)
    ),
}

CASES = sorted([*RUNS, *WITNESS_SPECS])


def _report(outcome) -> dict:
    first = outcome.first_violation
    return {
        "outcome": outcome.to_dict(),
        "first_violation": first.to_dict() if first is not None else None,
    }


def _observe(case: str) -> dict:
    if case in RUNS:
        outcome = run_program(linearizability=True, **RUNS[case]).linz_outcome
    else:
        outcome = LinzChecker(WITNESS_SPECS[case]).check(
            strict_lookup_divergence_log()
        )
    # Round-trip through JSON so tuples compare equal to recorded lists.
    return json.loads(json.dumps(_report(outcome)))


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == CASES


@pytest.mark.parametrize("case", CASES)
def test_linz_report_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    assert _observe(case) == golden


def test_golden_bugs_are_violations_and_clean_run_is_not():
    golden = json.loads(GOLDEN.read_text())
    for case in ("java-vector-bug", "stringbuffer-bug", "cache-bug",
                 "strict-lookup-witness"):
        assert not golden[case]["outcome"]["ok"], case
        details = golden[case]["first_violation"]["details"]
        assert "pending" in details and "spec_state" in details
    clean = golden["multiset-vector-clean"]["outcome"]
    assert clean["ok"] and clean["linearization"]


def _record() -> None:
    golden = {case: _observe(case) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases to {GOLDEN}")


if __name__ == "__main__":
    _record()
