"""Bounded exhaustive refinement verification (extension, DESIGN.md §5).

The paper trades completeness for scalability: VYRD checks the one
interleaving a run happened to produce.  On the deterministic simulator we
can close that gap for small programs: enumerate *every* schedule with the
frontier engine :func:`repro.concurrency.parallel.parallel_exhaustive` and
run the full refinement check on each, turning VYRD into a bounded model
checker for refinement.  :func:`verify_all_schedules` takes an in-process
``make_run`` closure and explores at ``jobs=1``;
:func:`check_program_all_schedules` takes a picklable program and may fan
the same engine out over worker processes.

Usage::

    def make_run(scheduler):
        vyrd = Vyrd(spec_factory=MultisetSpec, mode="view",
                    impl_view_factory=multiset_view)
        kernel = Kernel(scheduler=scheduler, tracer=vyrd.tracer)
        ... build a fresh structure, spawn threads ...
        kernel.run()
        return vyrd

    result = verify_all_schedules(make_run, max_runs=5000)
    assert result.exhausted and result.all_ok

Each violating schedule is reported with its decision vector, which replays
the exact interleaving through a
:class:`~repro.concurrency.schedulers.ReplayScheduler` -- every
counterexample is deterministic and debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..concurrency.parallel import parallel_exhaustive
from ..concurrency.schedulers import ReplayScheduler, Scheduler
from .refinement import CheckOutcome
from .verifier import Vyrd


@dataclass
class ScheduleViolation:
    """One schedule whose run failed refinement (or crashed).

    ``outcome`` is the failing :class:`CheckOutcome`
    (:func:`verify_all_schedules`) or its ``to_dict()`` form, which is what
    a :class:`~repro.harness.ProgramSpec` failure carries and what survives
    a worker-process boundary (:func:`check_program_all_schedules`); None
    if the run itself crashed before checking.
    """

    schedule: List[int]          # ReplayScheduler decision vector
    outcome: Optional[object]
    error: Optional[BaseException] = None


@dataclass
class ExhaustiveVerification:
    """Aggregate result of checking every explored schedule."""

    schedules_run: int = 0
    exhausted: bool = False      # True iff the whole schedule space was covered
    violations: List[ScheduleViolation] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        coverage = "all schedules" if self.exhausted else "budget exhausted"
        if self.all_ok:
            return f"OK: {self.schedules_run} schedules checked ({coverage})"
        return (
            f"{len(self.violations)} violating schedule(s) out of "
            f"{self.schedules_run} ({coverage}); first decision vector: "
            f"{self.violations[0].schedule}"
        )


def verify_all_schedules(
    make_run: Callable[[Scheduler], Vyrd],
    max_runs: int = 10_000,
    stop_at_first: bool = False,
    check: Optional[Callable[[Vyrd], CheckOutcome]] = None,
) -> ExhaustiveVerification:
    """Run ``make_run`` under every schedule (up to ``max_runs``) and check
    each produced log.

    ``make_run(scheduler)`` must build a *fresh* program each call, run it to
    completion and return its :class:`Vyrd` session.  ``check`` defaults to
    ``vyrd.check_offline()``.
    """
    check = check or (lambda vyrd: vyrd.check_offline())

    def program(scheduler: Scheduler):
        vyrd = make_run(scheduler)
        outcome = check(vyrd)
        if not outcome.ok:
            # surface through the explorer's failure channel, carrying the
            # outcome for the report
            raise _RefinementFailure(outcome)
        return True

    return check_program_all_schedules(
        program, max_runs=max_runs, stop_at_first=stop_at_first, jobs=1
    )


def check_program_all_schedules(
    program,
    max_runs: int = 10_000,
    stop_at_first: bool = False,
    jobs: Optional[int] = 1,
) -> ExhaustiveVerification:
    """Bounded exhaustive checking of a program source, optionally fanned
    out over worker processes.

    ``program`` is a program source for :func:`parallel_exhaustive`: a
    :class:`repro.harness.ProgramSpec` (registry workload + config, with the
    refinement check built in) or a ``program(scheduler)`` callable that
    raises on a violation -- picklable when ``jobs > 1``.  A failure's
    ``details`` becomes ``ScheduleViolation.outcome`` (see
    :class:`ScheduleViolation`).
    """
    explored = parallel_exhaustive(
        program, max_runs=max_runs, stop_on_failure=stop_at_first, jobs=jobs
    )
    result = ExhaustiveVerification(
        schedules_run=explored.num_runs, exhausted=explored.exhausted
    )
    for record in explored.failures:
        details = getattr(record.error, "details", None)
        error = record.error if details is None else None
        result.violations.append(
            ScheduleViolation(record.schedule, details, error)
        )
    return result


def replay_schedule(
    make_run: Callable[[Scheduler], Vyrd],
    schedule: List[int],
) -> Tuple[Vyrd, CheckOutcome]:
    """Re-run one decision vector found by :func:`verify_all_schedules`."""
    vyrd = make_run(ReplayScheduler(decisions=schedule))
    return vyrd, vyrd.check_offline()


class _RefinementFailure(Exception):
    def __init__(self, outcome: CheckOutcome):
        self.details = outcome
        super().__init__(outcome.summary())
