"""Properties of the tamper-evident chained log format (``VYRDLOG2``).

Strategy: write a pristine chained file, compute its frame layout
*structurally* (header walk, independent of :class:`ChainDecoder`), apply
one arbitrary tamper operation -- truncation, bit-flip, record splice, or
long-range reorder -- and require :func:`recover_log` to salvage **exactly**
the longest chain-valid prefix the oracle predicts, and
:func:`verify_chain` anchored at the pristine head to flag the file.

One decoder quirk the oracle must encode: a frame's ``seq`` field is
covered by the *next* frame's prev-digest, not by its own CRC, so a
bit-flip confined to the seq field of frame ``i`` surfaces at frame
``i + 1`` -- and a seq-flip in the *last* frame is chain-valid and only
detectable against a recorded head digest.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import (
    WriteAction,
    load_log,
    recover_log,
    verify_chain,
)
from repro.core.log import (
    _CHAIN_HEADER,
    _DIGEST_SIZE,
    _SHARD_PROLOGUE,
    LOG_MAGIC2,
    LogWriter,
)

PROLOGUE = len(LOG_MAGIC2) + _SHARD_PROLOGUE.size
FIXED = _CHAIN_HEADER.size + _DIGEST_SIZE
SEQ_FIELD = 8  # leading <Q of the frame header


def _actions(values):
    return [
        WriteAction(v % 3, i, f"r{v % 4}", None, v)
        for i, v in enumerate(values)
    ]


def _write_chained(path, actions, shard_id=0):
    with LogWriter(path, shard_id=shard_id) as writer:
        writer.write_all(actions)
    return path.read_bytes()


def _spans(data):
    """Frame (start, end) offsets from a raw header walk (the oracle's
    own parser -- deliberately not ChainDecoder)."""
    spans = []
    pos = PROLOGUE
    while pos < len(data):
        _, length, _ = _CHAIN_HEADER.unpack_from(data, pos)
        end = pos + FIXED + length
        spans.append((pos, end))
        pos = end
    assert pos == len(data)
    return spans


values_strategy = st.lists(st.integers(0, 255), min_size=1, max_size=14)


@given(values_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_truncation_salvages_exact_frame_prefix(tmp_path_factory, values, data):
    actions = _actions(values)
    path = tmp_path_factory.mktemp("chain") / "log.vlog2"
    pristine = _write_chained(path, actions)
    spans = _spans(pristine)
    pristine_head = verify_chain(str(path)).head_digest

    cut = data.draw(st.integers(0, len(pristine) - 1))
    path.write_bytes(pristine[:cut])

    if cut < PROLOGUE:
        expected = 0
    else:
        expected = sum(1 for _, end in spans if end <= cut)
    recovered = recover_log(str(path))
    assert recovered.records == expected
    assert list(recovered.log) == actions[:expected]
    boundaries = {PROLOGUE} | {end for _, end in spans}
    if cut >= PROLOGUE:
        # Clean truncation at a frame boundary leaves no decode error --
        # only the head digest betrays it.
        assert recovered.complete == (cut in boundaries)
    report = verify_chain(str(path), expected_head=pristine_head)
    assert report.tampered
    assert report.records == expected


@given(values_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_bitflip_salvages_exact_chain_valid_prefix(
    tmp_path_factory, values, data
):
    actions = _actions(values)
    path = tmp_path_factory.mktemp("chain") / "log.vlog2"
    pristine = _write_chained(path, actions)
    spans = _spans(pristine)
    pristine_head = verify_chain(str(path)).head_digest

    where = data.draw(st.integers(0, len(pristine) - 1))
    bit = data.draw(st.integers(0, 7))
    mutated = bytearray(pristine)
    mutated[where] ^= 1 << bit
    path.write_bytes(bytes(mutated))

    n = len(spans)
    if where < PROLOGUE:
        # Damaged magic or shard id: genesis no longer matches, nothing
        # after an unidentifiable prologue is trusted.
        expected, complete = 0, None  # completeness depends on misparse mode
    else:
        frame = next(
            i for i, (start, end) in enumerate(spans) if start <= where < end
        )
        if where - spans[frame][0] < SEQ_FIELD:
            # seq is covered by the successor's prev-digest, not this
            # frame's CRC: the flip surfaces one frame late, or never
            # (chain-locally) when it hits the last frame.
            expected = n if frame == n - 1 else frame + 1
            complete = frame == n - 1
        else:
            expected, complete = frame, False

    recovered = recover_log(str(path))
    assert recovered.records == expected
    assert list(recovered.log) == actions[:expected]
    if complete is not None:
        assert recovered.complete == complete
    # Anchored verification catches every single-bit flip, including the
    # chain-locally-valid last-frame seq flip.
    report = verify_chain(str(path), expected_head=pristine_head)
    assert report.tampered
    assert report.records == expected


@given(
    values_strategy.filter(lambda v: len(v) >= 2),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_splice_and_reorder_stop_at_first_moved_frame(
    tmp_path_factory, values, data
):
    actions = _actions(values)
    path = tmp_path_factory.mktemp("chain") / "log.vlog2"
    pristine = _write_chained(path, actions)
    spans = _spans(pristine)
    pristine_head = verify_chain(str(path)).head_digest

    n = len(spans)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    frames = [pristine[start:end] for start, end in spans]
    frames[i], frames[j] = frames[j], frames[i]
    path.write_bytes(pristine[:PROLOGUE] + b"".join(frames))

    # Adjacent swap (j == i + 1) is the classic record splice; any j is a
    # long-range reorder.  Either way the chain breaks exactly at i.
    recovered = recover_log(str(path))
    assert recovered.records == i
    assert list(recovered.log) == actions[:i]
    assert not recovered.complete
    assert "chain digest mismatch" in recovered.cause
    report = verify_chain(str(path), expected_head=pristine_head)
    assert report.tampered
    assert report.error_record == i


@given(values_strategy, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_cross_shard_transplant_rejected_at_genesis(
    tmp_path_factory, values, shard_a, shard_b
):
    """Frames are bound to their shard: a whole-body transplant onto a
    different shard's prologue dies at record 0 (genesis-seeded chain)."""
    actions = _actions(values)
    tmp = tmp_path_factory.mktemp("chain")
    body_a = _write_chained(tmp / "a.vlog2", actions, shard_id=shard_a)
    body_b = _write_chained(tmp / "b.vlog2", actions, shard_id=shard_b)
    franken = tmp / "franken.vlog2"
    franken.write_bytes(body_b[:PROLOGUE] + body_a[PROLOGUE:])

    recovered = recover_log(str(franken))
    if shard_a == shard_b:
        assert recovered.complete and recovered.records == len(actions)
    else:
        assert recovered.records == 0
        assert "chain digest mismatch" in recovered.cause


def test_legacy_framed_files_still_auto_detect(legacy_logs):
    """``VYRDLOG1`` files written by earlier versions keep loading: magic
    auto-detection must not be disturbed by the chained format."""
    v1, _bare, records = legacy_logs
    with open(v1, "rb") as handle:
        assert handle.read(8) == b"VYRDLOG1"

    assert list(load_log(v1)) == records
    recovered = recover_log(v1)
    assert recovered.complete
    assert not recovered.chained
    assert list(recovered.log) == records
    # Unchained files carry no integrity claim -- policy, not tampering.
    report = verify_chain(v1)
    assert report.ok and not report.chained


@given(values_strategy)
@settings(max_examples=40, deadline=None)
def test_chained_round_trip_is_lossless(tmp_path_factory, values):
    actions = _actions(values)
    path = tmp_path_factory.mktemp("chain") / "log.vlog2"
    _write_chained(path, actions, shard_id=3)
    assert list(load_log(str(path))) == actions
    report = verify_chain(str(path))
    assert report.ok and report.chained and report.shard_id == 3
    assert report.records == len(actions)
