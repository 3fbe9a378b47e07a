"""Per-unit invariants: incremental evaluation, the drift guard, sharing."""

import json

from repro.core import (
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    EndCommitBlockAction,
    Invariant,
    Log,
    RefinementChecker,
    ReturnAction,
    UnitInvariant,
    ViolationKind,
    WriteAction,
    check_log,
)
from repro.harness import run_program
from repro.obs import MetricsRecorder
from repro.serve import session_checkers

from test_refinement_unit import RegisterSpec


def _nonnegative():
    """Every ``x*`` location holds a non-negative value (unit = location)."""
    return UnitInvariant(
        "x-nonnegative", lambda loc: loc if loc.startswith("x") else None,
        lambda state, unit, locs: (state.get(unit) or 0) >= 0,
    )


def _set(tid, op_id, writes, value=0):
    return [
        CallAction(tid, op_id, "set", (value,)),
        *(WriteAction(tid, op_id, loc, None, new) for loc, new in writes),
        CommitAction(tid, op_id),
        ReturnAction(tid, op_id, "set", True),
    ]


def _violations(outcome):
    return [(v.kind, v.seq, v.message) for v in outcome.violations]


def _check(log, invariant, **kwargs):
    return check_log(
        Log(log), RegisterSpec(), mode="io", invariants=[invariant],
        stop_at_first=False, **kwargs,
    )


def test_fails_iff_some_unit_fails_and_recovers():
    log = (
        _set(0, 0, [("x1", 1), ("x2", -1)])     # x2 fails
        + _set(0, 1, [("x1", 5)])               # x2 untouched: still failing
        + _set(0, 2, [("x2", 3)])               # repaired
        + _set(0, 3, [("x3", 2)])
    )
    outcome = _check(log, _nonnegative())
    assert [v.seq for v in outcome.violations] == [3, 7]
    assert all(v.kind is ViolationKind.INVARIANT for v in outcome.violations)
    assert "invariant_drift" not in outcome.stats


def test_matches_the_whole_state_form_on_a_shadowing_commit_block():
    """Thread 1's block writes a bad value; thread 0's commit sees it rolled
    back, so the unit must stay dirty until thread 1's own commit reads it."""
    log = [
        CallAction(1, 1, "set", (0,)),
        BeginCommitBlockAction(1, 1),
        WriteAction(1, 1, "x1", None, -7),
        *_set(0, 0, [("y", 1)]),                # x1 rolled back: holds
        CommitAction(1, 1),                     # t1 sees its own -7: fails
        EndCommitBlockAction(1, 1),
        ReturnAction(1, 1, "set", True),
        *_set(0, 2, [("y", 2)]),                # still -7: fails again
    ]
    unit = _nonnegative()
    whole = Invariant(unit.name, lambda state, spec: not unit.failing_units(state))
    incremental, full = _check(log, unit), _check(log, whole)
    assert _violations(incremental) == _violations(full)
    assert [v.seq for v in incremental.violations] == [7, 12]


#: x1 is within limit, then limit drops below x1
LIMIT_LOG = _set(0, 0, [("limit", 5), ("x1", 3)]) + _set(0, 1, [("limit", 1)])


def _below_limit(unit_of):
    return UnitInvariant(
        "x-below-limit", unit_of,
        lambda state, unit, locs: (state.get(unit) or 0) <= (state.get("limit") or 0),
    )


def test_drift_guard_trips_on_incomplete_unit_of():
    """The predicate for ``x1`` reads ``limit``, which ``unit_of`` leaves out:
    the write to ``limit`` never re-evaluates ``x1``."""
    incomplete = _below_limit(lambda loc: loc if loc.startswith("x") else None)
    outcome = _check(LIMIT_LOG, incomplete)
    assert [v.kind for v in outcome.violations] == [ViolationKind.INSTRUMENTATION]
    assert "drifted" in outcome.violations[0].message
    drift = outcome.stats["invariant_drift"]
    assert drift == {"x-below-limit": {"incremental": [], "full": ["'x1'"]}}
    assert _check(LIMIT_LOG, incomplete, final_full_check=False).ok

    complete = _below_limit(lambda loc: "x1" if loc in ("x1", "limit") else None)
    outcome = _check(LIMIT_LOG, complete)
    assert [v.kind for v in outcome.violations] == [ViolationKind.INVARIANT]
    assert "invariant_drift" not in outcome.stats


def _cache_log(buggy, seed):
    return list(run_program(
        "cache", buggy=buggy, num_threads=3, calls_per_thread=20, seed=seed,
    ).log)


def test_one_invariant_tuple_serves_interleaved_checkers():
    """``session_checkers`` shares one invariant tuple across checkers; their
    incremental state must not leak from one checker into another."""
    make, _ = session_checkers("cache", stop_at_first=False)
    logs = [_cache_log(True, 1), _cache_log(False, 2), _cache_log(True, 4)]
    alone = []
    for log in logs:
        checker = make()
        checker.feed(log)
        alone.append(json.dumps(checker.finish().to_dict(), sort_keys=True))
    checkers = [make() for _ in logs]
    assert checkers[0].invariants[0] is checkers[1].invariants[0]
    for start in range(0, max(map(len, logs)), 97):
        for checker, log in zip(checkers, logs):
            checker.feed(log[start:start + 97])
    together = [
        json.dumps(checker.finish().to_dict(), sort_keys=True)
        for checker in checkers
    ]
    assert together == alone


def test_invariant_span_and_units_rechecked_histogram():
    recorder = MetricsRecorder()
    result = run_program(
        "cache", num_threads=2, calls_per_thread=6, seed=3, obs=recorder,
    )
    assert result.vyrd.check_offline().ok
    assert recorder.phase_wall["checker.invariants"] >= 0.0
    assert recorder.counters["span.checker.invariants"] > 0
    rechecked = recorder.histograms["invariant.units_rechecked"]
    assert rechecked.count == recorder.counters["span.checker.invariants"]


def test_whole_state_invariants_keep_their_order_and_api():
    calls = []

    def first(state, spec):
        calls.append("first")
        return False

    def second(state, spec):
        calls.append("second")
        return True

    checker = RefinementChecker(
        RegisterSpec(), mode="io",
        invariants=[Invariant("first", first), Invariant("second", second)],
    )
    checker.feed(_set(0, 0, [("x1", 1)]))
    outcome = checker.finish()
    assert calls == ["first"]
    assert outcome.first_violation.message == "invariant 'first' violated at commit action"
