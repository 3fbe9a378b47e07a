"""repro -- a reproduction of VYRD (Elmas, Tasiran, Qadeer; PLDI 2005).

Runtime refinement-violation detection for concurrent data structures:
instrument an implementation to log its actions, then drive an executable,
method-atomic specification along the *witness interleaving* induced by
commit actions, checking I/O refinement (return values) and view refinement
(canonical state abstractions at commit points).

Packages
--------
:mod:`repro.core`
    The checker, log, spec framework and instrumentation.
:mod:`repro.concurrency`
    The deterministic cooperative concurrency simulator (substrate).
:mod:`repro.multiset`, :mod:`repro.javalib`, :mod:`repro.boxwood`,
:mod:`repro.scanfs`
    The evaluated data structures, each with the paper's seeded bugs.
:mod:`repro.harness`
    The randomized test harness and measurement drivers behind Tables 1-3.
:mod:`repro.races`
    Dynamic race detection (vector-clock happens-before and Eraser
    lockset) over the same log; :mod:`repro.atomicity` is the reduction
    baseline sharing its lockset engine.
:mod:`repro.faults`
    Seeded fault injection (worker crashes/hangs, torn and bit-flipped
    logs, slow I/O) plus the campaign driver proving the pipeline recovers
    with serial-identical results (imported lazily -- it pulls in the
    harness).

Quickstart
----------
See ``examples/quickstart.py``; the short version::

    from repro import Vyrd, Kernel
    from repro.multiset import VectorMultiset, MultisetSpec, multiset_view

    vyrd = Vyrd(spec_factory=MultisetSpec, mode="view",
                impl_view_factory=lambda: multiset_view())
    kernel = Kernel(seed=1, tracer=vyrd.tracer)
    vds = vyrd.wrap(VectorMultiset(size=8))
    # ... spawn simulated threads calling `yield from vds.insert(ctx, x)` ...
    kernel.run()
    print(vyrd.check_offline().summary())
"""

from .concurrency import (
    ExplorationResult,
    Kernel,
    Lock,
    PCTScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    RWLock,
    SharedArray,
    SharedCell,
    ThreadCtx,
    explore_exhaustive,
    explore_swarm,
    parallel_exhaustive,
    parallel_swarm,
    run_threads,
    with_lock,
)
from .core import (
    AnyOf,
    AtomizedSpec,
    CheckOutcome,
    ContributionView,
    FunctionView,
    Invariant,
    Log,
    RefinementChecker,
    SpecReject,
    Specification,
    UnitInvariant,
    Violation,
    ViolationKind,
    Vyrd,
    VyrdTracer,
    check_log,
    format_outcome,
    mutator,
    observer,
    operation,
    render_trace,
    render_witness,
)
from .races import Race, RaceChecker, RaceOutcome, check_races

__version__ = "1.0.0"

__all__ = [
    "AnyOf",
    "AtomizedSpec",
    "CheckOutcome",
    "ContributionView",
    "ExplorationResult",
    "FunctionView",
    "Invariant",
    "Kernel",
    "Lock",
    "Log",
    "PCTScheduler",
    "RWLock",
    "Race",
    "RaceChecker",
    "RaceOutcome",
    "RandomScheduler",
    "RefinementChecker",
    "RoundRobinScheduler",
    "SharedArray",
    "SharedCell",
    "SpecReject",
    "Specification",
    "ThreadCtx",
    "UnitInvariant",
    "Violation",
    "ViolationKind",
    "Vyrd",
    "VyrdTracer",
    "check_log",
    "check_races",
    "explore_exhaustive",
    "explore_swarm",
    "format_outcome",
    "mutator",
    "parallel_exhaustive",
    "parallel_swarm",
    "observer",
    "operation",
    "render_trace",
    "render_witness",
    "run_threads",
    "with_lock",
    "__version__",
]
