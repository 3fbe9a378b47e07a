"""LogWriter(sync=True): acknowledged records survive an abrupt crash.

The producer protocol is write-batch / flush / acknowledge; ``sync=True``
makes the flush an fsync barrier, so a worker killed with the fault
injector's ``os._exit`` crash (no cleanup, no atexit, buffered file data
discarded) can never lose a record that was acknowledged.
"""

import multiprocessing
import os

from repro.core import WriteAction, recover_log
from repro.core.log import LogWriter
from repro.faults import CRASH, Fault, TaskFaults


def _record(i):
    return WriteAction(i % 3, i, f"r{i % 4}", None, i)


def _crashing_writer(path, ack_path, batch, crash_after):
    """Child: write synced batches, acknowledge each flush, crash."""
    writer = LogWriter(path, sync=True)
    for i in range(crash_after):
        writer.write(_record(i))
        if (i + 1) % batch == 0:
            writer.flush()
            with open(ack_path, "w") as handle:
                handle.write(str(i + 1))
                handle.flush()
                os.fsync(handle.fileno())
    # Crash mid-batch with unflushed records, via the campaign's injector:
    # a real abrupt death, not an exception unwind.
    TaskFaults(fault=Fault(CRASH)).apply()


def test_acknowledged_records_survive_worker_crash(tmp_path):
    path = str(tmp_path / "shard.vlog2")
    ack_path = str(tmp_path / "acked")
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_crashing_writer, args=(path, ack_path, 16, 100)
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 13  # the injector's crash exit
    acked = int(open(ack_path).read())
    assert acked == 96  # 6 full batches acknowledged, 4 records in flight
    recovered = recover_log(path)
    # Every acknowledged record is there...
    assert recovered.records >= acked
    # ...and whatever is there is exactly a prefix of what was written.
    expected = [repr(_record(i)) for i in range(100)]
    salvaged = [repr(action) for action in recovered.log]
    assert salvaged == expected[: len(salvaged)]


def test_sync_flush_reaches_the_device(tmp_path, monkeypatch):
    """Every flush under sync=True must fsync the underlying descriptor."""
    import repro.core.log as log_module

    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        log_module.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
    )
    path = str(tmp_path / "synced.vlog2")
    with LogWriter(path, sync=True) as writer:
        for i in range(30):
            writer.write(_record(i))
            if (i + 1) % 10 == 0:
                writer.flush()
    # three explicit batch flushes + the close() flush
    assert len(synced) == 4


def test_unsynced_writer_never_fsyncs(tmp_path, monkeypatch):
    import repro.core.log as log_module

    synced = []
    monkeypatch.setattr(log_module.os, "fsync", lambda fd: synced.append(fd))
    path = str(tmp_path / "unsynced.vlog")
    with LogWriter(path) as writer:
        for i in range(20):
            writer.write(_record(i))
        writer.flush()
    assert synced == []
