"""Checkpoint/resume on the cache program: straight and resumed verdicts agree.

The cache is the program with per-handle invariants, whose incremental
state is not in the checkpoint payload: ``restore`` rebuilds it from the
restored replay state with every handle dirty.  Cuts include one inside an
open commit block and one after a violation with ``stop_at_first=False``.
"""

import json

import pytest

from repro.core import BeginCommitBlockAction, Checkpoint, EndCommitBlockAction
from repro.harness import run_program
from repro.serve import session_checkers

#: the payload keys before unit invariants existed (the format is unchanged)
PAYLOAD_KEYS = {
    "config", "next_seq", "spec", "outcome", "buffer", "returns", "ops",
    "open_ops", "stopped", "finished", "observers", "replay", "impl_view",
    "comparator",
}


def _log(buggy):
    # buggy seed 1 reaches INVARIANT violations (see the verdict golden)
    return list(run_program(
        "cache", buggy=buggy, num_threads=4, calls_per_thread=30, seed=1,
        log_reads=True, log_locks=True,
    ).log)


def _verdict(checker) -> str:
    return json.dumps(checker.finish().to_dict(), sort_keys=True)


def _straight(log, stop_at_first):
    checker = session_checkers("cache", stop_at_first=stop_at_first)[0]()
    checker.feed(log)
    return checker


def _resumed(log, cut, stop_at_first) -> str:
    make = session_checkers("cache", stop_at_first=stop_at_first)[0]
    first = make()
    first.feed(log[:cut])
    checkpoint = Checkpoint.from_bytes(first.checkpoint().to_bytes())
    assert set(checkpoint.payload) == PAYLOAD_KEYS
    resumed = make()
    resumed.restore(checkpoint)
    resumed.feed(log[checkpoint.resume_seq:])
    return _verdict(resumed)


def _cut_inside_open_block(log) -> int:
    """A cut after a block's begin and first write, before its end."""
    for index, action in enumerate(log):
        if isinstance(action, BeginCommitBlockAction):
            end = next(
                later for later in range(index + 1, len(log))
                if isinstance(log[later], EndCommitBlockAction)
                and log[later].tid == action.tid
            )
            if end - index > 2:
                return index + 2
    raise AssertionError("no commit block with a write in the log")


@pytest.mark.parametrize("stop_at_first", [True, False])
@pytest.mark.parametrize("buggy", [False, True])
def test_resume_at_several_cuts_matches_straight(buggy, stop_at_first):
    log = _log(buggy)
    expected = _verdict(_straight(log, stop_at_first))
    cuts = {0, len(log) // 4, len(log) // 2, 3 * len(log) // 4, len(log),
            _cut_inside_open_block(log)}
    for cut in sorted(cuts):
        assert _resumed(log, cut, stop_at_first) == expected, cut


def test_resume_after_an_invariant_violation_keeps_collecting():
    log = _log(True)
    straight = _straight(log, stop_at_first=False)
    expected = _verdict(straight)
    seqs = [v.seq for v in straight.outcome.violations if v.kind.value == "invariant"]
    assert seqs, "the buggy log must reach an invariant violation"
    for cut in (seqs[0] + 1, seqs[-1] + 1):
        assert _resumed(log, cut, stop_at_first=False) == expected, cut
