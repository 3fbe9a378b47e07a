"""Condition variables: Mesa semantics, notify/notifyAll, misuse errors."""

import pytest

from repro.concurrency import (
    Condition,
    DeadlockError,
    Kernel,
    Lock,
    LockError,
    RandomScheduler,
    RoundRobinScheduler,
    SimThreadError,
    run_threads,
)


def _handoff(seed):
    lock = Lock("m")
    cond = Condition(lock, "ready")
    box = {}
    received = []

    def producer(ctx):
        yield lock.acquire()
        box["value"] = 42
        yield cond.notify()
        yield lock.release()

    def consumer(ctx):
        yield lock.acquire()
        while "value" not in box:
            yield cond.wait()
        received.append(box["value"])
        yield lock.release()

    run_threads([consumer, producer], seed=seed)
    return received


def test_wait_notify_handoff_all_seeds():
    for seed in range(15):
        assert _handoff(seed) == [42]


def test_wait_releases_the_lock():
    lock = Lock("m")
    cond = Condition(lock)
    progress = []

    def waiter(ctx):
        yield lock.acquire()
        yield cond.wait()  # must release the lock while blocked
        progress.append("woken")
        yield lock.release()

    def prober(ctx):
        yield ctx.checkpoint()
        yield lock.acquire()  # succeeds only if wait released it
        progress.append("probed")
        yield cond.notify()
        yield lock.release()

    run_threads([waiter, prober], scheduler=RoundRobinScheduler())
    assert progress == ["probed", "woken"]


def test_notified_waiter_reacquires_before_resuming():
    lock = Lock("m")
    cond = Condition(lock)
    order = []

    def waiter(ctx):
        yield lock.acquire()
        yield cond.wait()
        assert lock.held_by(ctx.tid)  # Mesa: resumed holding the lock
        order.append("waiter")
        yield lock.release()

    def notifier(ctx):
        yield ctx.checkpoint()
        yield lock.acquire()
        yield cond.notify()
        order.append("notifier-still-owns")
        yield lock.release()

    run_threads([waiter, notifier], scheduler=RoundRobinScheduler())
    assert order == ["notifier-still-owns", "waiter"]


def test_notify_all_wakes_everyone():
    lock = Lock("m")
    cond = Condition(lock)
    state = {"go": False}
    woken = []

    def waiter(name):
        def body(ctx):
            yield lock.acquire()
            while not state["go"]:
                yield cond.wait()
            woken.append(name)
            yield lock.release()

        return body

    def broadcaster(ctx):
        for _ in range(3):
            yield ctx.checkpoint()
        yield lock.acquire()
        state["go"] = True
        yield cond.notify_all()
        yield lock.release()

    run_threads(
        [waiter("a"), waiter("b"), waiter("c"), broadcaster],
        scheduler=RandomScheduler(5),
    )
    assert sorted(woken) == ["a", "b", "c"]


def test_single_notify_with_two_waiters_deadlocks_without_rebroadcast():
    """Classic lost-wakeup shape: one notify, two waiters, no more signals
    -> the second waiter blocks forever and the kernel reports deadlock."""
    lock = Lock("m")
    cond = Condition(lock)
    state = {"tokens": 0}

    def waiter(ctx):
        yield lock.acquire()
        while state["tokens"] == 0:
            yield cond.wait()
        state["tokens"] -= 1
        yield lock.release()

    def producer(ctx):
        yield lock.acquire()
        state["tokens"] += 2
        yield cond.notify()  # should have been notify_all / two notifies
        yield lock.release()

    with pytest.raises(DeadlockError):
        run_threads([waiter, waiter, producer], scheduler=RoundRobinScheduler())


def test_wait_without_lock_is_error():
    lock = Lock("m")
    cond = Condition(lock)

    def body(ctx):
        yield cond.wait()

    with pytest.raises(SimThreadError) as excinfo:
        run_threads([body])
    assert isinstance(excinfo.value.__cause__, LockError)


def test_notify_without_lock_is_error():
    lock = Lock("m")
    cond = Condition(lock)

    def body(ctx):
        yield cond.notify()

    with pytest.raises(SimThreadError) as excinfo:
        run_threads([body])
    assert isinstance(excinfo.value.__cause__, LockError)


def test_wait_with_reentrant_depth_rejected():
    lock = Lock("m")
    cond = Condition(lock)

    def body(ctx):
        yield lock.acquire()
        yield lock.acquire()
        yield cond.wait()

    with pytest.raises(SimThreadError) as excinfo:
        run_threads([body])
    assert isinstance(excinfo.value.__cause__, LockError)


def test_notify_with_no_waiters_is_noop():
    lock = Lock("m")
    cond = Condition(lock)

    def body(ctx):
        yield lock.acquire()
        yield cond.notify()
        yield cond.notify_all()
        yield lock.release()
        return "done"

    kernel = Kernel()
    thread = kernel.spawn(body)
    kernel.run()
    assert thread.result == "done"


def test_daemon_stopped_while_waiting_does_not_wedge_a_second_run():
    """A daemon stopped at shutdown stays on the condition's wait queue.
    A later run's notify + release must not hand the lock to it (its tid
    would own the lock forever and the re-acquire would deadlock)."""
    lock = Lock("L")
    cond = Condition(lock, "c")
    trace = []

    def daemon(ctx):
        yield lock.acquire()
        yield cond.wait()

    def first(ctx):
        yield ctx.checkpoint()

    def producer(ctx):
        yield lock.acquire()
        yield cond.notify()
        yield lock.release()
        yield lock.acquire()
        trace.append("reacquired")
        yield lock.release()

    kernel = Kernel(scheduler=RoundRobinScheduler())
    stopped = kernel.spawn(daemon, daemon=True)
    kernel.spawn(first)
    kernel.run()
    assert stopped.finished and list(cond.waiters) == [stopped]
    kernel.spawn(producer)
    kernel.run()
    assert trace == ["reacquired"]
    assert lock.owner is None and not cond.waiters
    assert kernel._ready == [] and kernel._live == 0
