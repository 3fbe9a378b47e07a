"""The exploration engines: parallel swarm + the frontier exhaustive DFS.

Every run on the deterministic substrate is independently reproducible from
a seed or a decision vector, which makes exploration embarrassingly
parallel.  This module holds the engines behind every campaign; the serial
drivers in :mod:`repro.concurrency.explore` stay as independent references
for the determinism tests:

* :func:`parallel_swarm` -- shards the seed range into contiguous chunks
  (each chunk is an :func:`explore_swarm` call inside a worker).  Chunk
  results are consumed in submission (ascending seed) order, so
  ``stop_on_failure`` reproduces the serial semantics exactly: the campaign
  ends at the lowest failing seed and outstanding chunks are cancelled,
  with the number of never-run seeds recorded on
  :attr:`ExplorationResult.skipped`.
* :func:`parallel_exhaustive` -- the one exhaustive engine, at every job
  count.  A frontier stack (owned by the coordinating process) holds
  unexplored ``(prefix, sleep)`` entries; each entry is one run, and the
  sibling entries it discovers go back on the stack.  ``jobs > 1`` shards
  the stack over a process pool in batches, so no worker idles while the
  tree is uneven; ``jobs <= 1`` runs the same loop in-process, one entry
  at a time, which walks the tree in exactly the order of the reference
  DFS :func:`~repro.concurrency.explore.explore_exhaustive`.

**Frontier protocol.**  An entry ``(P, sleep)`` performs exactly one run:
replay ``P``, then take alternative 0 at every later decision point.  Its
trace is therefore ``P + [0, 0, ...]``.  For every depth ``d >= len(P)``
with ``n`` alternatives, the prefixes ``trace[:d] + [alt]`` for
``alt in 1..n-1`` are pushed onto the frontier.  Every generated prefix ends
in a non-zero decision, and every schedule's decision vector has a unique
such generating prefix (truncate after its last non-zero decision; the
all-zero schedule is the root's own run) -- so each schedule in the tree is
executed exactly once, with no coordination between workers.  With a
``reducer`` the run carries its inherited sleep set and sibling generation
drops (and counts) the subtrees the sleep sets prove redundant -- see
:mod:`repro.concurrency.reduction`; without one every sleep set is empty.

**Program specs.**  Closures do not pickle, so parallel exploration takes a
*program source*: either a picklable callable ``program(scheduler) ->
outcome`` (a module-level function or :func:`functools.partial` thereof) or
any object with a ``resolve_program()`` method -- see
:class:`repro.harness.ProgramSpec`, which names a workload-registry program
plus its configuration and is resolved to a fresh kernel inside each worker.
Outcomes must be picklable; worker-side exceptions are shipped back as
``(type name, message)`` pairs and revived as :class:`RemoteError`.

**Canonical merge order.**  Swarm results are merged in ascending seed
order, exhaustive results in lexicographic decision-vector order -- exactly
the orders the reference drivers produce.  Swarm campaigns, and exhaustive
campaigns that cover their whole space, are therefore bit-identical at
every job count (compare with :meth:`ExplorationResult.signature`).  A
budget-cut or stopped exhaustive campaign matches the reference only at
``jobs <= 1``; at ``jobs > 1`` it is comparable only with other ``jobs > 1``
campaigns.  The determinism suite in ``tests/concurrency/test_parallel.py``
holds the engines to that.

**Fault tolerance.**  At ``jobs > 1`` both drivers dispatch through
:class:`~repro.concurrency.resilient.ResilientPool`: chunks get per-task
wall-clock deadlines (``timeout=``), bounded retries with exponential
backoff and seeded jitter (``max_retries=``/``backoff_base=``), and the
pool survives worker deaths (``BrokenProcessPool``) by salvaging finished
futures, rebuilding the executor and re-dispatching only the lost chunks.
Because every run is a pure function of its seed / decision vector, a
retried chunk reproduces byte-identical records, so recovery never
reorders or duplicates canonical-order merge slots: a campaign that
survived faults has the same :meth:`~ExplorationResult.signature` as one
that never saw any, with the incident trail attached as
:attr:`ExplorationResult.interruptions`.  A schedule that is *genuinely*
stuck (still hung after isolation and retries) is converted into a
diagnosable :class:`ExplorationTimeout` run record carrying the seed or
decision-vector prefix needed to replay it.  ``faults=`` accepts a
:class:`repro.faults.FaultPlan`, whose worker-targeted crash/hang/slow
injections are resolved per dispatched task -- the deterministic test
harness for all of the above.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, List, Optional

from ..obs import merge_snapshots
from .explore import (
    ExplorationResult,
    RunRecord,
    _AlwaysFirst,
    _program_metrics,
    explore_swarm,
)
from .reduction import ReducedReplayScheduler
from .resilient import ResilientPool, RetryPolicy, TaskFailure
from .schedulers import ReplayScheduler, Scheduler


class RemoteError(Exception):
    """Surrogate for an exception raised inside a worker process.

    Arbitrary exceptions (kernel errors holding simulated threads, refinement
    failures holding checker state) are not reliably picklable, so workers
    ship failures home as ``(type name, message, details)`` and the
    coordinator revives them as this class.  ``remote_type`` preserves the
    original exception's type name for campaign-signature comparison against
    in-process runs.
    """

    def __init__(self, remote_type: str, message: str, details=None):
        super().__init__(message)
        self.remote_type = remote_type
        self.details = details

    def __reduce__(self):
        return (RemoteError, (self.remote_type, str(self), self.details))


class RefinementViolation(Exception):
    """Picklable failure raised by spec-driven programs on a refinement miss.

    Carries the outcome summary as the message and, when available, the
    outcome's ``to_dict()`` form in ``details`` so violation reports survive
    the trip back from a worker process.
    """

    def __init__(self, message: str, details: Optional[dict] = None):
        super().__init__(message)
        self.details = details

    def __reduce__(self):
        return (RefinementViolation, (str(self), self.details))


class ExplorationTimeout(Exception):
    """A schedule never completed: hung past the watchdog and every retry.

    The explorers convert a terminally stuck task into a failed
    :class:`~repro.concurrency.explore.RunRecord` carrying this error
    instead of wedging the campaign.  ``schedule`` is the replay handle --
    the swarm seed or the exhaustive decision-vector prefix -- so the hang
    can be reproduced in isolation (e.g. with a debugger attached).
    """

    def __init__(self, schedule, kind: str = "timeout", attempts: int = 0,
                 detail: str = ""):
        self.schedule = schedule
        self.kind = kind
        self.attempts = attempts
        self.detail = detail
        super().__init__(
            f"schedule {schedule!r} abandoned ({kind} after "
            f"{attempts} attempt(s)){': ' + detail if detail else ''}"
        )

    def __reduce__(self):
        return (
            ExplorationTimeout,
            (self.schedule, self.kind, self.attempts, self.detail),
        )


def resolve_program(source) -> Callable[[Scheduler], Any]:
    """Turn a program source into the ``program(scheduler)`` callable.

    Accepts any object with a ``resolve_program()`` method (e.g.
    :class:`repro.harness.ProgramSpec`) or a callable used as-is.  For
    multi-process exploration the *source* must be picklable; resolution
    happens inside each worker, so the resolved callable itself may close
    over fresh per-process state.
    """
    resolver = getattr(source, "resolve_program", None)
    if resolver is not None:
        return resolver()
    if callable(source):
        return source
    raise TypeError(
        f"not an explorable program: {source!r} (expected a callable or an "
        f"object with a resolve_program() method)"
    )


class _OncePickledSource:
    """Campaign-lifetime cache of the pickled program source.

    :class:`ProcessPoolExecutor` pickles the worker partial -- program
    source included -- for **every** dispatched task, so a campaign of N
    chunks walked the spec's object graph N times.  This wrapper serializes
    the source exactly once, up front, and replays the cached bytes into
    each task pickle (``__reduce__`` hands pickle the precomputed payload);
    workers transparently unpickle the original source object.  Also a
    fail-fast: an unpicklable source now raises at campaign start, not
    inside the pool.
    """

    __slots__ = ("source", "_payload")

    def __init__(self, source):
        self.source = source
        self._payload = pickle.dumps(source, protocol=pickle.HIGHEST_PROTOCOL)

    def __reduce__(self):
        return (pickle.loads, (self._payload,))

    def resolve_program(self):
        return resolve_program(self.source)


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None or jobs <= 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return max(1, os.cpu_count() or 1)
    return jobs


def _mp_context(name: Optional[str] = None):
    """Prefer ``fork`` (cheap workers that inherit loaded modules)."""
    if name is not None:
        return multiprocessing.get_context(name)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _wire_error(exc: Optional[BaseException]) -> Optional[tuple]:
    if exc is None:
        return None
    details = getattr(exc, "details", None)
    if not isinstance(details, dict):
        details = None
    return (type(exc).__name__, str(exc), details)


def _revive_error(wire):
    if wire is None:
        return None
    if isinstance(wire, BaseException):
        return wire  # synthesized coordinator-side (e.g. ExplorationTimeout)
    return RemoteError(*wire)


def _fold_pool_counters(metrics: Optional[dict], events: List[dict]) -> Optional[dict]:
    """Count pool incidents (retries, rebuilds, hang kills) into ``metrics``.

    ``pool.*`` counters reflect infrastructure luck, not the program under
    test: a fault-free campaign has none, so the deterministic
    serial==parallel metrics guarantee is untouched.
    """
    if metrics is None or not events:
        return metrics
    counters = metrics["counters"]
    for event in events:
        name = "pool.events." + str(event.get("kind", "unknown"))
        counters[name] = counters.get(name, 0) + 1
    return metrics


def _retry_policy(timeout, max_retries, backoff_base, seed) -> RetryPolicy:
    return RetryPolicy(
        max_retries=max_retries,
        timeout=timeout,
        backoff_base=backoff_base,
        seed=seed,
    )


def _fault_decorator(faults):
    """Adapt a :class:`repro.faults.FaultPlan` to the pool's decorate hook.

    Duck-typed so this module needs no import of :mod:`repro.faults`: any
    object with ``task_faults(serial, attempt) -> picklable | None`` works.
    The returned payload travels to the worker, which applies it at task
    start (crash / hang / slow-down).
    """
    if faults is None:
        return None
    return lambda payload, serial, attempt: faults.task_faults(serial, attempt)


# ---------------------------------------------------------------------------
# Parallel swarm
# ---------------------------------------------------------------------------


def swarm_chunk_size(num_runs: int, jobs: int) -> int:
    """Default swarm chunk size: ~4 chunks per worker balances load
    against per-task dispatch cost."""
    return max(1, -(-num_runs // (jobs * 4)))


def _swarm_chunk(source, stop_on_failure, scheduler_factory, seeds, inject=None):
    """Worker: run one contiguous chunk of seeds, returning picklable wire results.

    The chunk is one :func:`explore_swarm` campaign over ``seeds``; the wire
    shape is ``(records, metrics_snapshot)``: the per-seed
    ``(seed, outcome, wire_error)`` records plus the chunk recorder's
    deterministic counter snapshot (``None`` when the program source does
    not carry metrics).

    ``inject`` is the fault-injection hook resolved for this dispatch (see
    :func:`_fault_decorator`); applied before any real work so a planned
    crash/hang takes the whole chunk down, exactly like a real worker death.
    """
    if inject is not None:
        inject.apply()
    chunk = explore_swarm(
        resolve_program(source),
        num_runs=len(seeds),
        base_seed=seeds[0],
        stop_on_failure=stop_on_failure,
        scheduler_factory=scheduler_factory,
    )
    records = [(r.schedule, r.outcome, _wire_error(r.error)) for r in chunk.runs]
    return records, chunk.metrics


def _split_batch(items) -> Optional[List[list]]:
    return [[item] for item in items] if len(items) > 1 else None


def _concat_chunks(parts: List[tuple]) -> tuple:
    records = [record for part in parts for record in part[0]]
    return records, merge_snapshots(part[1] for part in parts)


def _swarm_give_up(seeds, failure: TaskFailure) -> tuple:
    return [
        (seed, None, ExplorationTimeout(
            seed, kind=failure.kind, attempts=failure.attempts,
            detail=failure.message,
        ))
        for seed in seeds
    ], None


def parallel_swarm(
    program,
    num_runs: int = 100,
    base_seed: int = 0,
    stop_on_failure: bool = False,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    scheduler_factory: Optional[Callable[[int], Scheduler]] = None,
    mp_context: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    faults=None,
) -> ExplorationResult:
    """Multi-process :func:`explore_swarm`: shard the seed range over a pool.

    ``program`` is a program *source* (see :func:`resolve_program`); it and
    ``scheduler_factory`` (if given) must be picklable.  ``jobs=None`` uses
    every available CPU; ``jobs<=1`` runs serially in-process.  Results come
    back in ascending seed order, identical to the serial driver's.

    ``timeout``/``max_retries``/``backoff_base`` configure the fault-
    tolerance layer (see the module docstring); ``faults`` injects a
    :class:`repro.faults.FaultPlan` for deterministic failure testing.
    Recovered incidents are reported on the result's ``interruptions``.
    """
    jobs = _resolve_jobs(jobs)
    if jobs <= 1:
        return explore_swarm(
            resolve_program(program),
            num_runs=num_runs,
            base_seed=base_seed,
            stop_on_failure=stop_on_failure,
            scheduler_factory=scheduler_factory,
        )
    program = _OncePickledSource(program)
    seeds = [base_seed + i for i in range(num_runs)]
    if chunk_size is None:
        chunk_size = swarm_chunk_size(num_runs, jobs)
    chunks = [seeds[i : i + chunk_size] for i in range(0, num_runs, chunk_size)]
    result = ExplorationResult(requested=num_runs)
    context = _mp_context(mp_context)
    pool = ResilientPool(
        functools.partial(_swarm_chunk, program, stop_on_failure, scheduler_factory),
        make_executor=lambda: ProcessPoolExecutor(
            max_workers=jobs, mp_context=context
        ),
        policy=_retry_policy(timeout, max_retries, backoff_base, base_seed),
        split=_split_batch,
        combine=_concat_chunks,
        give_up=_swarm_give_up,
        decorate=_fault_decorator(faults),
    )
    stopped = False
    snapshots: List[Optional[dict]] = []
    try:
        for chunk in chunks:
            pool.submit(chunk)
        # Consume in submission order: chunks are contiguous ascending seed
        # ranges, so the merged record list is already canonically sorted and
        # the first failure seen is the lowest failing seed -- exactly the
        # run the serial driver would have stopped at.  Retried chunks land
        # in their original slot (the pool keys results by submission
        # ordinal), so recovery cannot perturb the order.
        buffered = {}
        for key in range(len(chunks)):
            if stopped:
                break
            while key not in buffered:
                done_key, (records, snapshot) = pool.next_completed()
                buffered[done_key] = records
                snapshots.append(snapshot)
            for seed, outcome, error in buffered.pop(key):
                record = RunRecord(
                    schedule=seed, outcome=outcome, error=_revive_error(error)
                )
                result.runs.append(record)
                if record.failed and stop_on_failure:
                    stopped = True
                    break
    except (BrokenExecutor, OSError) as exc:
        # Unrecoverable infrastructure collapse (executor cannot even be
        # rebuilt): keep every merged outcome and attach the failure rather
        # than losing the campaign.
        result.interruptions.append(
            {"kind": "fatal", "detail": repr(exc), "task": None}
        )
    finally:
        pool.shutdown()
    result.interruptions.extend(pool.events)
    result.skipped = num_runs - len(result.runs)
    result.metrics = _fold_pool_counters(merge_snapshots(snapshots), pool.events)
    return result


# ---------------------------------------------------------------------------
# Exhaustive DFS: the frontier engine
# ---------------------------------------------------------------------------


def _push_order(entry) -> tuple:
    """Stack order for sibling entries: depth ascending, alternative
    descending, so pops walk the deepest decision point first, lowest
    alternative first -- the reference DFS order."""
    prefix = entry[0]
    return len(prefix), -prefix[-1]


def _expand(program, reducer, entry) -> tuple:
    """Run one frontier entry; return ``(record, discovered, pruned)``.

    ``record`` is ``(decision_vector, outcome, error)`` with the live
    exception (or None); ``discovered`` lists the sibling ``(prefix,
    sleep)`` entries below the run (see the frontier protocol in the module
    docstring) in stack push order; ``pruned`` counts the sibling subtrees
    the reducer's sleep sets removed.
    """
    prefix, sleep = entry
    if reducer is None:
        scheduler = ReplayScheduler(decisions=prefix, fallback=_AlwaysFirst())
    else:
        scheduler = ReducedReplayScheduler(
            decisions=prefix, sleep=sleep, reducer=reducer
        )
    outcome = error = None
    try:
        outcome = program(scheduler)
    except Exception as exc:  # outcome of interest, not a crash of ours
        error = exc
    trace = scheduler.trace
    indices = [index for index, _ in trace]
    if reducer is None:
        discovered = [
            (indices[:depth] + [alt], {})
            for depth in range(len(prefix), len(trace))
            for alt in range(trace[depth][0] + 1, trace[depth][1])
        ]
        pruned = 0
    else:
        discovered, pruned = scheduler.siblings()
    discovered.sort(key=_push_order)
    return (indices, outcome, error), discovered, pruned


def _exhaustive_batch(source, reducer, entries, inject=None):
    """Worker: expand a batch of claimed frontier entries (one run each).

    Wire shape: ``(expanded, metrics_snapshot)`` -- the :func:`_expand`
    result of every entry with its error converted to a wire tuple, plus
    the chunk recorder's deterministic counter snapshot (``None`` without
    metrics).
    """
    if inject is not None:
        inject.apply()
    program = resolve_program(source)
    expanded = []
    for entry in entries:
        (schedule, outcome, error), discovered, pruned = _expand(
            program, reducer, entry
        )
        expanded.append(
            ((schedule, outcome, _wire_error(error)), discovered, pruned)
        )
    return expanded, _program_metrics(program)


def _exhaustive_give_up(entries, failure: TaskFailure) -> tuple:
    # The subtree below an abandoned prefix is unexplored: no siblings to
    # report, and the driver marks the campaign non-exhausted.
    return [
        ((list(prefix), None, ExplorationTimeout(
            list(prefix), kind=failure.kind, attempts=failure.attempts,
            detail=failure.message,
        )), [], 0)
        for prefix, _sleep in entries
    ], None


class _InProcessPool:
    """The ``jobs <= 1`` stand-in for :class:`ResilientPool`.

    A submitted batch runs when it is collected, in submission order,
    against the one program resolved for the campaign: nothing is pickled,
    records keep their live exceptions, and no per-batch metrics snapshot
    is taken (the driver reads the program's recorder once, at the end).
    """

    def __init__(self, program, reducer):
        self.program = program
        self.reducer = reducer
        self.events: List[dict] = []
        self._batches: List[list] = []

    @property
    def in_flight(self) -> int:
        return len(self._batches)

    has_pending = in_flight

    def submit(self, batch) -> None:
        self._batches.append(batch)

    def next_completed(self) -> tuple:
        batch = self._batches.pop(0)
        return None, (
            [_expand(self.program, self.reducer, entry) for entry in batch],
            None,
        )

    def shutdown(self) -> None:
        pass


def parallel_exhaustive(
    program,
    max_runs: int = 10_000,
    stop_on_failure: bool = False,
    jobs: Optional[int] = None,
    chunk_size: int = 16,
    mp_context: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    faults=None,
    reducer=None,
) -> ExplorationResult:
    """Exhaustive DFS over the schedule tree: the frontier engine.

    ``jobs <= 1`` runs the frontier loop in-process, one entry at a time:
    the program source is resolved once, nothing is pickled, failed records
    keep their live exceptions, and the runs -- also under a binding
    ``max_runs`` or ``stop_on_failure`` -- are exactly those of the
    reference :func:`~repro.concurrency.explore.explore_exhaustive`, in the
    same order.

    ``jobs > 1`` shards the frontier over a process pool in batches of up
    to ``chunk_size`` entries.  With a budget large enough to exhaust the
    space the merged result (sorted lexicographically by decision vector)
    is identical to the ``jobs <= 1`` one.  Under a binding ``max_runs``
    the pool visits a different subset of the tree, so budget-limited
    results are only comparable with other ``jobs > 1`` campaigns.
    ``stop_on_failure`` stops dispatching new work once any failure is
    observed, drains in-flight batches, and truncates the canonical
    ordering after its first failure.

    ``timeout``/``max_retries``/``backoff_base``/``faults`` configure the
    fault-tolerance layer exactly as for :func:`parallel_swarm`.  A prefix
    that stays hung through isolation and retries becomes a failed record
    with an :class:`ExplorationTimeout` error, and the campaign is marked
    non-exhausted (its subtree was never enumerated).

    ``reducer`` (a picklable
    :class:`repro.concurrency.reduction.StaticReducer`) turns on sleep
    sets: statically redundant sibling subtrees are counted on
    ``result.pruned`` (and ``skipped``) instead of run.  The reduced
    campaign reports the same outcome set as the unreduced one, and every
    campaign satisfies ``requested == num_runs + skipped``.
    """
    jobs = _resolve_jobs(jobs)
    if jobs <= 1:
        resolved = resolve_program(program)
        pool = _InProcessPool(resolved, reducer)
        chunk_size = window = 1
    else:
        program = _OncePickledSource(program)
        context = _mp_context(mp_context)
        pool = ResilientPool(
            functools.partial(_exhaustive_batch, program, reducer),
            make_executor=lambda: ProcessPoolExecutor(
                max_workers=jobs, mp_context=context
            ),
            policy=_retry_policy(timeout, max_retries, backoff_base, max_runs),
            split=_split_batch,
            combine=_concat_chunks,
            give_up=_exhaustive_give_up,
            decorate=_fault_decorator(faults),
        )
        window = jobs * 2
    frontier: List[tuple] = [([], {})]  # a stack, pushed in _push_order
    runs: List[RunRecord] = []
    dispatched = 0
    pruned = 0
    failure_seen = False
    abandoned = False
    interruptions: List[dict] = []
    snapshots: List[Optional[dict]] = []
    try:
        while True:
            while (
                frontier
                and not (stop_on_failure and failure_seen)
                and pool.in_flight < window
                and dispatched < max_runs
            ):
                batch = []
                while frontier and len(batch) < chunk_size and dispatched < max_runs:
                    batch.append(frontier.pop())
                    dispatched += 1
                pool.submit(batch)
            if not pool.has_pending:
                break
            _key, (expanded, snapshot) = pool.next_completed()
            snapshots.append(snapshot)
            for (schedule, outcome, error), discovered, newly_pruned in expanded:
                revived = _revive_error(error)
                record = RunRecord(
                    schedule=schedule, outcome=outcome, error=revived
                )
                runs.append(record)
                if record.failed:
                    failure_seen = True
                if isinstance(revived, ExplorationTimeout):
                    abandoned = True
                frontier.extend(discovered)
                pruned += newly_pruned
    except (BrokenExecutor, OSError) as exc:
        interruptions.append({"kind": "fatal", "detail": repr(exc), "task": None})
        abandoned = True
    finally:
        pool.shutdown()
    runs.sort(key=lambda record: tuple(record.schedule))
    result = ExplorationResult(runs=runs, pruned=pruned, skipped=pruned)
    result.interruptions = interruptions + pool.events
    result.metrics = _fold_pool_counters(
        merge_snapshots(snapshots) if jobs > 1 else _program_metrics(resolved),
        pool.events,
    )
    if stop_on_failure and failure_seen:
        for position, record in enumerate(runs):
            if record.failed:
                del runs[position + 1 :]
                break
    else:
        result.exhausted = not frontier and not abandoned
    result.requested = len(runs) + pruned
    return result
