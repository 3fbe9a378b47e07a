"""Synchronization primitives for simulated threads.

All primitives are *passive* objects: their methods return
:class:`~repro.concurrency.kernel.Syscall` values that the simulated thread
must ``yield``; the kernel performs the actual state transition.  This keeps
every blocking decision inside the kernel, where the scheduler (and therefore
the reproducible interleaving) lives.

* :class:`Lock` -- reentrant mutual exclusion, modelling Java ``synchronized``
  and .NET ``lock``.
* :class:`RWLock` -- a reader-writer lock modelling Boxwood's RECLAIMLOCK
  (``BEGINREAD``/``ENDREAD``/``BEGINWRITE``/``ENDWRITE`` in the paper's
  Fig. 8 pseudocode).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .errors import LockError
from .kernel import (
    AcquireSys,
    CondNotifySys,
    CondWaitSys,
    Kernel,
    ReleaseSys,
    RWBeginReadSys,
    RWBeginWriteSys,
    RWEndReadSys,
    RWEndWriteSys,
    SimThread,
)


def _live_head(queue: deque) -> deque:
    """Drop finished threads off the front of a wait queue and return it.

    A daemon stopped at kernel shutdown never leaves the queue it blocked
    on; a later run must neither hand it a lock nor count it as waiting.
    Within one run no queued thread finishes, so this never drops anyone.
    """
    while queue and queue[0].finished:
        queue.popleft()
    return queue


def _pop_live(queue: deque) -> Optional[SimThread]:
    """The first unfinished thread of a wait queue, removed; or ``None``."""
    return queue.popleft() if _live_head(queue) else None


class Lock:
    """A reentrant lock for simulated threads.

    Usage inside a thread body::

        yield lock.acquire()
        try:
            ...
        finally:
            yield lock.release()

    ``release(commit=True)`` marks the release as the method execution's
    commit action (the paper notes the first lock release after the last
    write to ``supp(view)`` is often the right commit point).
    """

    __slots__ = ("name", "owner", "depth", "waiters")

    def __init__(self, name: str = "lock"):
        self.name = name
        self.owner: Optional[int] = None  # owning tid
        self.depth = 0
        self.waiters: deque = deque()

    # -- syscall constructors (yield these) --------------------------------

    def acquire(self) -> AcquireSys:
        return AcquireSys(self)

    def release(self, commit: bool = False) -> ReleaseSys:
        return ReleaseSys(self, commit)

    # -- kernel-side implementation -----------------------------------------

    def _acquire(self, kernel: Kernel, thread: SimThread) -> None:
        if self.owner is None:
            self.owner = thread.tid
            self.depth = 1
            kernel.tracer.on_acquire(thread.tid, self)
        elif self.owner == thread.tid:
            self.depth += 1
        else:
            kernel.block(thread, f"lock({self.name})")
            self.waiters.append(thread)

    def _release(self, kernel: Kernel, thread: SimThread) -> None:
        if self.owner != thread.tid:
            raise LockError(
                f"thread {thread.name!r} released lock {self.name!r} "
                f"owned by tid {self.owner!r}"
            )
        self.depth -= 1
        if self.depth > 0:
            return
        kernel.tracer.on_release(thread.tid, self)
        next_thread = _pop_live(self.waiters)
        if next_thread is not None:
            self.owner = next_thread.tid
            self.depth = 1
            kernel.unblock(next_thread)
            kernel.tracer.on_acquire(next_thread.tid, self)
        else:
            self.owner = None

    def held_by(self, tid: int) -> bool:
        """True if ``tid`` currently owns this lock (used in assertions)."""
        return self.owner == tid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Lock {self.name!r} owner={self.owner} depth={self.depth}>"


class RWLock:
    """A reader-writer lock with writer preference (Boxwood's RECLAIMLOCK).

    Multiple readers may hold the lock simultaneously; a writer excludes
    everyone.  Readers arriving while a writer is active or waiting are
    queued, preventing writer starvation.  Read sections are reentrant per
    thread (a thread may nest ``begin_read`` calls).
    """

    __slots__ = ("name", "readers", "writer", "read_waiters", "write_waiters")

    def __init__(self, name: str = "rwlock"):
        self.name = name
        self.readers: dict = {}  # tid -> nesting depth
        self.writer: Optional[int] = None
        self.read_waiters: deque = deque()
        self.write_waiters: deque = deque()

    # -- syscall constructors ------------------------------------------------

    def begin_read(self) -> RWBeginReadSys:
        return RWBeginReadSys(self)

    def end_read(self) -> RWEndReadSys:
        return RWEndReadSys(self)

    def begin_write(self) -> RWBeginWriteSys:
        return RWBeginWriteSys(self)

    def end_write(self, commit: bool = False) -> RWEndWriteSys:
        return RWEndWriteSys(self, commit)

    # -- kernel-side implementation -------------------------------------------

    def _begin_read(self, kernel: Kernel, thread: SimThread) -> None:
        if thread.tid in self.readers:  # reentrant read
            self.readers[thread.tid] += 1
            return
        if self.writer is None and not _live_head(self.write_waiters):
            self.readers[thread.tid] = 1
            kernel.tracer.on_acquire(thread.tid, self, mode="r")
        else:
            kernel.block(thread, f"rwlock-read({self.name})")
            self.read_waiters.append(thread)

    def _end_read(self, kernel: Kernel, thread: SimThread) -> None:
        depth = self.readers.get(thread.tid)
        if depth is None:
            raise LockError(
                f"thread {thread.name!r} ended a read section of {self.name!r} "
                "it never began"
            )
        if depth > 1:
            self.readers[thread.tid] = depth - 1
            return
        del self.readers[thread.tid]
        kernel.tracer.on_release(thread.tid, self, mode="r")
        self._wake(kernel)

    def _begin_write(self, kernel: Kernel, thread: SimThread) -> None:
        if self.writer is None and not self.readers:
            self.writer = thread.tid
            kernel.tracer.on_acquire(thread.tid, self, mode="w")
        else:
            kernel.block(thread, f"rwlock-write({self.name})")
            self.write_waiters.append(thread)

    def _end_write(self, kernel: Kernel, thread: SimThread) -> None:
        if self.writer != thread.tid:
            raise LockError(
                f"thread {thread.name!r} ended a write section of {self.name!r} "
                f"owned by tid {self.writer!r}"
            )
        self.writer = None
        kernel.tracer.on_release(thread.tid, self, mode="w")
        self._wake(kernel)

    def _wake(self, kernel: Kernel) -> None:
        """Grant the lock to waiters after a release (writer preference)."""
        if self.readers or self.writer is not None:
            return
        next_writer = _pop_live(self.write_waiters)
        if next_writer is not None:
            self.writer = next_writer.tid
            kernel.unblock(next_writer)
            kernel.tracer.on_acquire(next_writer.tid, self, mode="w")
            return
        while True:
            reader = _pop_live(self.read_waiters)
            if reader is None:
                return
            self.readers[reader.tid] = 1
            kernel.unblock(reader)
            kernel.tracer.on_acquire(reader.tid, self, mode="r")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RWLock {self.name!r} readers={sorted(self.readers)} "
            f"writer={self.writer}>"
        )


class Condition:
    """A monitor condition variable with Mesa semantics.

    ``wait()`` atomically releases the associated :class:`Lock` and blocks;
    a notified waiter is moved to the lock's queue and resumes only once it
    has re-acquired the lock.  As with Mesa monitors, waiters must re-check
    their predicate in a loop::

        yield lock.acquire()
        while not predicate():
            yield not_empty.wait()
        ...
        yield lock.release()

    ``wait()`` from a reentrantly-held lock (depth > 1) is rejected -- the
    monitor patterns in this repository never need it and silently dropping
    nested ownership would be a bug factory.
    """

    __slots__ = ("name", "lock", "waiters")

    def __init__(self, lock: Lock, name: str = "cond"):
        self.name = name
        self.lock = lock
        self.waiters: deque = deque()

    # -- syscall constructors ----------------------------------------------

    def wait(self) -> CondWaitSys:
        return CondWaitSys(self)

    def notify(self, count: int = 1) -> CondNotifySys:
        return CondNotifySys(self, count)

    def notify_all(self) -> CondNotifySys:
        return CondNotifySys(self, -1)

    # -- kernel-side implementation -----------------------------------------

    def _wait(self, kernel: Kernel, thread: SimThread) -> None:
        if self.lock.owner != thread.tid:
            raise LockError(
                f"thread {thread.name!r} waited on {self.name!r} without "
                f"holding lock {self.lock.name!r}"
            )
        if self.lock.depth != 1:
            raise LockError(
                f"wait on {self.name!r} with reentrant lock depth "
                f"{self.lock.depth} is not supported"
            )
        self.lock._release(kernel, thread)
        kernel.block(thread, f"cond({self.name})")
        self.waiters.append(thread)

    def _notify(self, kernel: Kernel, thread: SimThread, count: int) -> None:
        if self.lock.owner != thread.tid:
            raise LockError(
                f"thread {thread.name!r} notified {self.name!r} without "
                f"holding lock {self.lock.name!r}"
            )
        while count != 0:  # a negative count never reaches 0: wake all
            waiter = _pop_live(self.waiters)
            if waiter is None:
                return
            # Mesa: the waiter must re-acquire the lock before resuming.
            waiter.waiting_reason = f"lock({self.lock.name})"
            self.lock.waiters.append(waiter)
            count -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Condition {self.name!r} waiters={len(self.waiters)}>"
