"""Properties of the kernel's incremental bookkeeping.

The kernel keeps its ready list (READY threads in tid order) and its live
count (unfinished non-daemon threads) incrementally instead of rescanning
every thread per step.  Random programs mixing locks, reader-writer locks,
conditions, joins, dynamic spawns, daemons and one crashing thread check
that after every step both equal their from-scratch definitions, and that
the run picks the same threads and ends (normally, or with a deadlock, a
step-limit or a thread failure) at the same step as a reference loop that
recomputes both from scratch on every step.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.concurrency import (
    Condition,
    DeadlockError,
    Kernel,
    Lock,
    RandomScheduler,
    RWLock,
    SharedCell,
    SimThreadError,
    Status,
    StepLimitExceeded,
)

MAX_STEPS = 300

#: One thread's body: a list of these ops, run in order.
OPS = st.one_of(
    st.tuples(st.just("lock"), st.integers(0, 1)),
    st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.sampled_from(["notify", "notify_all"]), st.integers(0, 1)),
    st.tuples(st.just("spawn"), st.integers(0, 2)),
    st.tuples(st.just("join"), st.just(0)),
    st.tuples(st.just("cell"), st.integers(0, 1)),
)

PROGRAMS = st.fixed_dictionaries({
    "threads": st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=4),
    "daemons": st.lists(st.sampled_from(["spin", "wait"]), max_size=2),
    "crash": st.one_of(
        st.none(), st.tuples(st.integers(0, 3), st.integers(0, 5))
    ),
    "seed": st.integers(0, 10_000),
})


class _Recording(RandomScheduler):
    """Seeded random picks, recorded; optionally checks the bookkeeping
    invariants after every executed step."""

    def __init__(self, seed, check):
        super().__init__(seed)
        self.kernel = None
        self.check = check
        self.picks = []

    def pick(self, runnable, step):
        thread = super().pick(runnable, step)
        self.picks.append(thread.tid)
        return thread

    def on_step(self, thread, syscall):
        if self.check:
            assert_bookkeeping(self.kernel)


def assert_bookkeeping(kernel):
    threads = kernel.threads
    assert kernel._ready == [t for t in threads if t.status is Status.READY]
    assert kernel._ready_tids == [t.tid for t in kernel._ready]
    assert kernel._live == sum(
        1 for t in threads if not t.daemon and not t.finished
    )


def build(kernel, program):
    locks = [Lock(f"l{i}") for i in range(2)]
    rwlocks = [RWLock(f"rw{i}") for i in range(2)]
    conds = [Condition(locks[i], f"c{i}") for i in range(2)]
    flags = [False, False]
    cells = [SharedCell(f"x{i}", 0) for i in range(2)]

    def child(ctx, length):
        for _ in range(length):
            yield locks[0].acquire()
            yield ctx.checkpoint()
            yield locks[0].release()
        return length

    def body(ctx, ops, crash_at):
        children = []
        for index, (op, arg) in enumerate(ops):
            if index == crash_at:
                raise RuntimeError("planned crash")
            if op == "lock":
                yield locks[arg].acquire()
                yield ctx.checkpoint()
                yield locks[arg].release()
            elif op == "read":
                yield rwlocks[arg].begin_read()
                yield ctx.checkpoint()
                yield rwlocks[arg].end_read()
            elif op == "write":
                yield rwlocks[arg].begin_write()
                yield ctx.checkpoint()
                yield rwlocks[arg].end_write()
            elif op == "wait":
                yield locks[arg].acquire()
                while not flags[arg]:
                    yield conds[arg].wait()
                yield locks[arg].release()
            elif op in ("notify", "notify_all"):
                yield locks[arg].acquire()
                flags[arg] = True
                if op == "notify":
                    yield conds[arg].notify()
                else:
                    yield conds[arg].notify_all()
                yield locks[arg].release()
            elif op == "spawn":
                children.append(ctx.spawn(child, arg))
            elif op == "join" and children:
                yield ctx.join(children.pop())
            elif op == "cell":
                value = yield cells[arg].read()
                yield cells[arg].write(value + 1)
        if crash_at is not None and crash_at >= len(ops):
            raise RuntimeError("planned crash at exit")

    def spin(ctx):
        while True:
            yield locks[1].acquire()
            yield ctx.checkpoint()
            yield locks[1].release()

    def waiter(ctx):
        yield locks[0].acquire()
        while True:
            yield conds[0].wait()

    crash = program["crash"]
    for index, ops in enumerate(program["threads"]):
        crash_at = crash[1] if crash is not None and crash[0] == index else None
        kernel.spawn(body, ops, crash_at, name=f"app-{index}")
    for kind in program["daemons"]:
        kernel.spawn(spin if kind == "spin" else waiter, daemon=True)
    return locks[0], conds[0]


def reference_run(kernel):
    """The kernel main loop with both quantities recomputed every step."""
    while any(not t.daemon and not t.finished for t in kernel.threads):
        runnable = [t for t in kernel.threads if t.status is Status.READY]
        if not runnable:
            raise DeadlockError([])
        if kernel.steps >= kernel.max_steps:
            raise StepLimitExceeded(kernel.max_steps)
        kernel._step(kernel.scheduler.pick(runnable, kernel.steps))
    kernel._shutdown_daemons()


def execute(program, reference):
    scheduler = _Recording(program["seed"], check=not reference)
    kernel = Kernel(scheduler=scheduler, max_steps=MAX_STEPS)
    scheduler.kernel = kernel
    build(kernel, program)
    assert_bookkeeping(kernel)
    ending = None
    try:
        if reference:
            reference_run(kernel)
        else:
            kernel.run()
    except (DeadlockError, StepLimitExceeded, SimThreadError) as exc:
        ending = type(exc).__name__
    assert_bookkeeping(kernel)
    return ending, kernel.steps, scheduler.picks


@given(PROGRAMS)
@settings(max_examples=150, deadline=None)
def test_incremental_bookkeeping_matches_recomputation(program):
    assert execute(program, reference=False) == execute(program, reference=True)


@given(PROGRAMS)
@settings(max_examples=40, deadline=None)
def test_daemons_retired_at_shutdown_leave_no_trace(program):
    """After a clean run every daemon is finished and off the ready list,
    and a second run on the same kernel can notify, release and re-acquire
    the lock a stopped daemon was waiting on."""
    program = dict(program, crash=None)
    scheduler = _Recording(program["seed"], check=True)
    kernel = Kernel(scheduler=scheduler, max_steps=MAX_STEPS)
    scheduler.kernel = kernel
    lock, cond = build(kernel, program)
    try:
        kernel.run()
    except (DeadlockError, StepLimitExceeded):
        return
    assert all(t.finished for t in kernel.threads)
    assert kernel._ready == [] and kernel._live == 0
    if lock.owner is not None:
        # A daemon was stopped while holding the lock (between acquire and
        # wait, or after a notify handed the lock back); nothing releases
        # a stopped thread's locks, so a second run cannot take it.
        return

    def tail(ctx):
        yield lock.acquire()
        yield cond.notify_all()
        yield lock.release()
        yield lock.acquire()
        yield lock.release()

    kernel.spawn(tail)
    kernel.max_steps = None  # the first run may have used the budget
    kernel.run()
    assert_bookkeeping(kernel)
