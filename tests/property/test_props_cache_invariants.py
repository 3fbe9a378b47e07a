"""Property: the per-handle cache invariants agree, at every commit, with the
whole-state scans they replaced.

The oracle is the pair of full-scan predicates the cache shipped before its
invariants became incremental, copied here verbatim.  At every commit the
checker first brings its per-handle failing sets up to date; a probe
invariant registered ahead of the cache invariants then evaluates the
oracle on the very same effective state and compares.  The outcome of a
checker running the per-handle invariants must also equal the outcome of
one running the oracle, field for field.

Logs come from cache runs and, to reach states the real cache never
produces (several threads' commit blocks shadowing the same handle), from
random sequences of cache-location writes, commit blocks and internal
commits.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.boxwood import StoreSpec, cache_invariants
from repro.core import (
    BeginCommitBlockAction,
    CommitAction,
    EndCommitBlockAction,
    Invariant,
    RefinementChecker,
    WriteAction,
)
from repro.harness import run_program

BLOCK = 8


def _full_scan_oracle(block_size: int):
    """The whole-state cache invariants, as they were before this property."""

    def clean_matches_chunk(state, spec) -> bool:
        for loc, entry_id in state.items_with_prefix("cache.clean["):
            if entry_id is None:
                continue
            handle = loc[loc.find("[") + 1 : loc.find("]")]
            chunk = state.get(f"chunk[{handle}].data")
            cached = tuple(
                state.get(f"cache.ent{entry_id}@{handle}.data[{i}]", 0)
                for i in range(block_size)
            )
            if chunk != cached:
                return False
        return True

    def entry_in_exactly_one_list(state, spec) -> bool:
        for loc, published in state.items_with_prefix("cache.ent"):
            if not loc.endswith(".published") or not published:
                continue
            base = loc[: -len(".published")]
            if state.get(f"{base}.retired"):
                continue
            at = base.find("@")
            entry_id = int(base[len("cache.ent") : at])
            handle = base[at + 1 :]
            on_clean = state.get(f"cache.clean[{handle}]") == entry_id
            on_dirty = state.get(f"cache.dirty[{handle}]") == entry_id
            if on_clean == on_dirty:  # neither, or both
                return False
        return True

    return [
        Invariant("cache.clean-matches-chunk", clean_matches_chunk),
        Invariant("cache.entry-in-exactly-one-list", entry_in_exactly_one_list),
    ]


def _log(buggy, threads, calls, seed):
    return list(run_program(
        "cache", buggy=buggy, num_threads=threads, calls_per_thread=calls,
        seed=seed, log_reads=True, log_locks=True,
    ).log)


def _outcome(log, invariants) -> str:
    checker = RefinementChecker(
        StoreSpec(), mode="io", invariants=invariants, stop_at_first=False,
    )
    checker.feed(log)
    return json.dumps(checker.finish().to_dict(), sort_keys=True)


runs = dict(
    buggy=st.booleans(),
    threads=st.integers(2, 4),
    calls=st.integers(4, 25),
    seed=st.integers(0, 10_000),
)


def _assert_agrees_at_every_commit(log, block_size):
    oracle = _full_scan_oracle(block_size)
    per_handle = cache_invariants(block_size)
    verdicts = []

    def probe(state, spec):
        # runs after the checker refreshed its per-handle failing sets
        for expected, failing in zip(oracle, checker._failing[1:]):
            agrees = (not failing) == expected.holds(state, spec)
            assert agrees, (expected.name, sorted(failing))
            verdicts.append(not failing)
        return True

    checker = RefinementChecker(
        StoreSpec(), mode="io", stop_at_first=False,
        invariants=[Invariant("probe", probe), *per_handle],
    )
    checker.feed(log)
    checker.finish()
    assert verdicts, "no commit was checked"
    assert "invariant_drift" not in checker.outcome.stats


@given(**runs)
@settings(max_examples=25, deadline=None)
def test_failing_handles_match_the_full_scan_at_every_commit(
    buggy, threads, calls, seed,
):
    _assert_agrees_at_every_commit(_log(buggy, threads, calls, seed), BLOCK)


#: two handles, three entries each bound to one handle, 2-byte blocks
SMALL = 2
ENTRIES = {1: "h0", 2: "h1", 3: "h0"}
_byte = st.sampled_from([0, 1])
_write = st.one_of(
    st.tuples(
        st.sampled_from([f"cache.{side}[{h}]" for side in ("clean", "dirty")
                         for h in ("h0", "h1")]),
        st.sampled_from([None, 1, 2, 3]),
    ),
    st.tuples(
        st.sampled_from(["chunk[h0].data", "chunk[h1].data"]),
        st.one_of(st.none(), st.tuples(_byte, _byte)),
    ),
    st.tuples(
        st.sampled_from([
            f"cache.ent{e}@{h}.{field}" for e, h in ENTRIES.items()
            for field in ("published", "retired")
        ]),
        st.booleans(),
    ),
    st.tuples(
        st.sampled_from([
            f"cache.ent{e}@{h}.data[{i}]" for e, h in ENTRIES.items()
            for i in range(SMALL)
        ]),
        _byte,
    ),
)
_step = st.tuples(
    st.integers(0, 2),
    st.one_of(st.just("block"), st.just("commit"), _write),
)


def _synthetic_log(steps):
    """Writes, commit blocks and internal commits by three threads; a
    thread's block opens on its first "block" step and closes on the next."""
    log, open_blocks, state = [], set(), {}
    for tid, step in steps:
        if step == "block":
            if tid in open_blocks:
                open_blocks.discard(tid)
                log.append(EndCommitBlockAction(tid, None))
            else:
                open_blocks.add(tid)
                log.append(BeginCommitBlockAction(tid, None))
        elif step == "commit":
            log.append(CommitAction(tid, None))
        else:
            loc, value = step
            log.append(WriteAction(tid, None, loc, state.get(loc), value))
            state[loc] = value
    return log


@given(steps=st.lists(_step, max_size=120))
@settings(max_examples=200, deadline=None)
def test_agrees_on_random_commit_block_interleavings(steps):
    log = _synthetic_log(steps) + [CommitAction(0, None)]
    _assert_agrees_at_every_commit(log, SMALL)


@given(**runs)
@settings(max_examples=25, deadline=None)
def test_outcome_equals_the_full_scan_checker(buggy, threads, calls, seed):
    log = _log(buggy, threads, calls, seed)
    assert _outcome(log, cache_invariants(BLOCK)) == _outcome(
        log, _full_scan_oracle(BLOCK)
    )
