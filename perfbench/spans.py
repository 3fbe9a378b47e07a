"""Outside-in span tracing for the traced benchmark run.

The program carries no spans of its own for this benchmark, so the traced
run wraps the public entry points of each layer from the outside: every
call becomes a span with a name (the layer), start, end, parent span and
job id.  Spans are kept in memory and written out when the run ends.

Self time is a span's duration minus the time its children cover, so a
layer's cost is the sum of its spans' self times: ``kernel`` is
``Kernel.run`` minus the ``Log.append`` and scheduler calls made inside it.
Spans on the serve daemon's ingest and check threads are rooted at the
job's span on the main thread but keep their own per-thread stacks, so
shares on those threads are taken against each thread's active window.

"Hot" layers are called once per record or per scheduling step.  Storing a
tuple per call would cost more memory than the run itself, so they are
folded into the per-layer totals and their parent's child time only.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "job", "thread")


def thread_role(name: str) -> str:
    if name.startswith("serve-ingest"):
        return "ingest"
    if name.startswith("serve-check"):
        return "check"
    return "main"


class _ThreadState:
    __slots__ = ("role", "stack", "agg", "counts", "windows")

    def __init__(self, role: str):
        self.role = role
        self.stack = []  # [span id, child seconds] per open span
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counts = Counter()
        self.windows = {}  # job -> [first start, last end] of root spans


class SpanTracer:
    """In-memory span recorder with per-thread stacks and layer totals."""

    def __init__(self):
        self.spans = []
        self.jobs = []  # (job id, label, start, end)
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(thread_role(threading.current_thread().name))
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _close(self, state, frame, name, start, end, hot):
        duration = end - start
        stack = state.stack
        stack.pop()
        entry = state.agg[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        else:
            parent_id = self.job
            window = state.windows.get(self.job)
            if window is None:
                state.windows[self.job] = [start, end]
            else:
                window[1] = end
        if not hot:
            self.spans.append(
                (frame[0], name, start, end, parent_id, self.job, state.role)
            )

    def wrap(self, fn, name: str, hot: bool = False, after=None):
        """``fn`` timed as a span of layer ``name``; ``after(counts, args,
        result)`` turns the call's arguments or result into work counts."""
        perf = time.perf_counter
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            state = tracer._state()
            frame = [0 if hot else next(ids), 0.0]
            state.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, frame, name, start, perf(), hot)
            if after is not None:
                after(state.counts, args, result)
            return result

        return shim

    @contextmanager
    def job_span(self, label: str):
        """The root span of one job; layer spans on any thread nest in it."""
        state = self._state()
        job = next(self._ids)
        self.job = job
        frame = [job, 0.0]
        state.stack.append(frame)
        start = time.perf_counter()
        try:
            yield job
        finally:
            end = time.perf_counter()
            state.stack.pop()
            entry = state.agg["job"]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - frame[1]
            self.spans.append((job, "job", start, end, 0, job, state.role))
            self.jobs.append((job, label, start, end))
            self.job = 0

    # -- aggregates -----------------------------------------------------------

    def layer_totals(self):
        """``{(role, layer): [calls, total s, self s]}`` over all threads."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for state in self._states:
            for name, (count, total, self_time) in state.agg.items():
                entry = out[(state.role, name)]
                entry[0] += count
                entry[1] += total
                entry[2] += self_time
        return out

    def counts(self) -> Counter:
        out = Counter()
        for state in self._states:
            out.update(state.counts)
        return out

    def windows(self, role: str) -> dict:
        """Per job, ``(first start, last end)`` over the threads of ``role``."""
        out = {}
        for state in self._states:
            if state.role == role:
                for job, (start, end) in state.windows.items():
                    first, last = out.get(job, (start, end))
                    out[job] = (min(first, start), max(last, end))
        return out

    def active_seconds(self, role: str) -> float:
        """Summed job windows of ``role``: job spans for the main thread,
        first-to-last span of the daemon's threads otherwise."""
        if role == "main":
            return sum(end - start for _job, _label, start, end in self.jobs)
        return sum(end - start for start, end in self.windows(role).values())

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": SPAN_FIELDS, "jobs": self.jobs,
                       "spans": self.spans}, handle)


# -- the shims ------------------------------------------------------------------


def _count_len(key):
    def after(counts, args, _result):
        try:
            counts[key] += len(args[1])
        except TypeError:  # a one-shot iterable: its length is unknown
            pass
    return after


def _after_kernel(counts, args, _result):
    counts["kernel.runs"] += 1
    counts["kernel.steps"] += args[0].steps


def _after_append(counts, _args, _result):
    counts["log.records"] += 1


def _after_linz(counts, _args, outcome):
    counts["linz.nodes"] += outcome.stats.get("nodes", 0)
    counts["linz.memo_hits"] += outcome.stats.get("memo_hits", 0)


def _after_read(counts, _args, data):
    counts["store.bytes"] += len(data)


def shim_table():
    """``(owner, attribute, layer, hot, after)`` for every traced entry point.

    Module-level functions are patched in the module that *calls* them
    (``daemon.log_signature``, ``runner.log_hb_fingerprint``), because
    that module holds its own reference from ``from ... import``."""
    from repro.concurrency import parallel, reduction
    from repro.concurrency.kernel import Kernel
    from repro.core.log import ChainDecoder, Log
    from repro.core.refinement import RefinementChecker
    from repro.harness import runner
    from repro.linz.checker import LinzChecker
    from repro.races.checker import RaceChecker
    from repro.serve import daemon, merge, shard, store

    table = [
        (Kernel, "run", "kernel", False, _after_kernel),
        (Log, "append", "log.append", True, _after_append),
        (RefinementChecker, "feed", "refinement", False,
         _count_len("refinement.records")),
        (RefinementChecker, "finish", "refinement", False, None),
        (LinzChecker, "check", "linz", False, _after_linz),
        (RaceChecker, "feed", "races", False, _count_len("races.records")),
        (RaceChecker, "finish", "races", False, None),
        (shard.ShardTail, "poll", "shard.tail", False, None),
        (ChainDecoder, "feed", "log.decode", False, None),
        (merge.StreamMerger, "push", "merge", False, None),
        (merge.StreamMerger, "pop_ready", "merge", False, None),
        (daemon.BoundedQueue, "put", "queue.put", False, None),
        (daemon.BoundedQueue, "get", "queue.get", False, None),
        (daemon.ServeSession, "run", "daemon.run", False, None),
        (daemon, "log_signature", "log.signature", False, None),
        (daemon, "verify_chain", "log.audit", False, None),
        (runner, "run_program", "harness.run_program", False, None),
        (runner, "log_hb_fingerprint", "harness.fingerprint", False, None),
        (parallel, "parallel_exhaustive", "explore", False, None),
        (reduction.ReducedReplayScheduler, "__init__", "reduction", True, None),
        (reduction.ReducedReplayScheduler, "pick", "reduction", True, None),
        (reduction.ReducedReplayScheduler, "on_step", "reduction", True, None),
        (reduction.ReducedReplayScheduler, "siblings", "reduction", True, None),
        (store.LocalDirectoryStore, "read_range", "store", False, _after_read),
    ]
    for name in ("open_append", "open_read", "size", "list", "put_bytes",
                 "delete", "path"):
        table.append((store.LocalDirectoryStore, name, "store", False, None))
    for name in ("exists", "get_bytes", "put_json", "get_json", "set_flag",
                 "clear_flag", "has_flag"):
        table.append((store.LogStore, name, "store", False, None))
    return table


def install(tracer: SpanTracer):
    """Patch every entry point in :func:`shim_table`; returns the undo."""
    saved = []
    for owner, attr, layer, hot, after in shim_table():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, layer, hot, after))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
