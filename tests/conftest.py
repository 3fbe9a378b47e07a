"""Shared helpers for the VYRD reproduction test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro import Kernel, Vyrd
from repro.core import (
    AcquireAction,
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    EndCommitBlockAction,
    JoinAction,
    ReadAction,
    ReleaseAction,
    ReplayAction,
    ReturnAction,
    SpawnAction,
    WriteAction,
)

#: Saved logs in the read-only formats nothing writes any more, produced
#: once by the retired writers from :func:`_legacy_records`:
#: ``legacy-v1.vyrdlog`` is CRC-framed ``VYRDLOG1`` and
#: ``legacy-bare.vyrdlog`` is concatenated per-record pickles.
LEGACY_LOG_DIR = Path(__file__).parent / "core" / "data"


def pytest_configure(config):
    # Per-test wall-clock ceiling: a wedged kernel, a hung worker process or
    # a deadlocked pool must fail the suite, not stall it.  Applied only when
    # pytest-timeout is installed (it is in CI; locally it is optional) and
    # not explicitly overridden on the command line or in the ini file.
    if config.pluginmanager.hasplugin("timeout"):
        if getattr(config.option, "timeout", None) is None:
            config.option.timeout = 120
            config.option.timeout_method = "thread"


def run_session(
    impl,
    spec_factory,
    bodies,
    view_factory=None,
    invariants=(),
    seed=0,
    mode="view",
    daemons=(),
    online=False,
    max_steps=2_000_000,
):
    """Run simulated threads against an instrumented ``impl`` and check.

    ``bodies`` is a list of callables ``body(ctx, vds)`` (generator
    functions); each becomes one application thread.  Returns
    ``(outcome, vyrd, kernel)``.
    """
    vyrd = Vyrd(
        spec_factory=spec_factory,
        mode=mode,
        impl_view_factory=view_factory,
        invariants=invariants,
    )
    kernel = Kernel(seed=seed, tracer=vyrd.tracer, max_steps=max_steps)
    vds = vyrd.wrap(impl)
    verifier = vyrd.start_online(kernel) if online else None

    def wrap(body):
        def thread_body(ctx):
            result = yield from body(ctx, vds)
            return result

        return thread_body

    for i, body in enumerate(bodies):
        kernel.spawn(wrap(body), name=f"w{i}")
    for daemon in daemons:
        kernel.spawn(daemon, daemon=True)
    kernel.run()
    outcome = verifier.finalize() if verifier else vyrd.check_offline()
    return outcome, vyrd, kernel


def find_detecting_seed(run_once, seeds=range(64)):
    """Return the first seed whose run produces a violation (or fail)."""
    for seed in seeds:
        outcome = run_once(seed)
        if not outcome.ok:
            return seed, outcome
    pytest.fail(f"no violation found in {len(list(seeds))} seeds")


def _legacy_records():
    """Every record kind, with one payload object shared by two records (a
    per-record pickle memo must not leak across record boundaries)."""
    shared = ("shared-payload", 7)
    return [
        SpawnAction(0, None, 2),
        CallAction(2, 0, "insert", (3, shared)),
        AcquireAction(2, 0, "A[0]"),
        ReadAction(2, 0, "A[0].elt"),
        BeginCommitBlockAction(2, 0),
        WriteAction(2, 0, "A[0].elt", None, 3),
        ReplayAction(2, 0, "insert", shared),
        CommitAction(2, 0),
        EndCommitBlockAction(2, 0),
        ReleaseAction(2, 0, "A[0]"),
        AcquireAction(2, 0, "rw", "r"),
        ReleaseAction(2, 0, "rw", "r"),
        ReturnAction(2, 0, "insert", "success"),
        CommitAction(3, None),
        JoinAction(0, None, 2),
    ]


@pytest.fixture
def legacy_logs():
    """``(v1_path, bare_path, records)`` of the read-only log fixtures."""
    return (
        str(LEGACY_LOG_DIR / "legacy-v1.vyrdlog"),
        str(LEGACY_LOG_DIR / "legacy-bare.vyrdlog"),
        _legacy_records(),
    )


@pytest.fixture
def rng():
    return random.Random(1234)
