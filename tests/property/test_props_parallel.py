"""Property: the frontier exhaustive engine == the reference DFS.

Hypothesis draws small decision-tree programs (thread/step shapes, plus an
optional failing thread), a run budget and ``stop_on_failure``.  At
``jobs=1`` the engine must reproduce :func:`explore_exhaustive` run for run,
in the same order, even when the budget binds or a failure stops the
campaign.  At ``jobs>1`` a budget-cut campaign explores a different subset,
so equality is asserted only when the reference exhausted the tree.
"""

import multiprocessing
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import Kernel, explore_exhaustive
from repro.concurrency.parallel import parallel_exhaustive

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel exploration tests need fork-start workers",
)


def _tree_program(shape, failing_label, scheduler):
    trace = []

    def worker(label, steps):
        def body(ctx):
            for i in range(steps):
                trace.append((label, i))
                yield ctx.checkpoint()

        return body

    kernel = Kernel(scheduler=scheduler)
    for index, steps in enumerate(shape):
        kernel.spawn(worker(index, steps), name=str(index))
    kernel.run()
    if trace[-1][0] == failing_label:
        raise AssertionError(f"thread {failing_label} finished last")
    return tuple(trace)


@settings(max_examples=12, deadline=None)
@given(
    shape=st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
    failing_label=st.sampled_from([None, 0, 1]),
    max_runs=st.integers(min_value=1, max_value=40),
    stop_on_failure=st.booleans(),
    jobs=st.sampled_from([1, 2, 3]),
)
def test_parallel_exhaustive_equals_serial_on_decision_trees(
    shape, failing_label, max_runs, stop_on_failure, jobs
):
    program = partial(_tree_program, tuple(shape), failing_label)
    serial = explore_exhaustive(
        program, max_runs=max_runs, stop_on_failure=stop_on_failure
    )
    result = parallel_exhaustive(
        program, max_runs=max_runs, stop_on_failure=stop_on_failure, jobs=jobs
    )
    # distinct interleavings covered, none duplicated
    schedules = [tuple(r.schedule) for r in result.runs]
    assert len(set(schedules)) == len(schedules)
    if jobs == 1:
        assert result.signature() == serial.signature()
        assert schedules == [tuple(r.schedule) for r in serial.runs]
    elif serial.exhausted:
        assert result.exhausted
        assert result.signature() == serial.signature()
        assert result.outcomes() == serial.outcomes()
