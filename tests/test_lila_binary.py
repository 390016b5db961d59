"""Tests for the binary trace format."""

import struct
import zlib

import pytest

from repro.core.errors import TraceFormatError
from repro.core.intervals import IntervalKind
from repro.core.samples import ThreadState
from repro.lila.binary import (
    MAGIC,
    VERSION,
    _KIND_CODES,
    _STATE_CODES,
    read_trace_binary,
    write_trace_binary,
)
from repro.lila.writer import write_trace

from helpers import (
    dispatch,
    gc_iv,
    gui_sample,
    listener_iv,
    make_trace,
    paint_iv,
)


def _rich_trace():
    roots = [
        dispatch(0.0, 50.0, [
            listener_iv("a.Click.actionPerformed", 1.0, 49.0, [
                paint_iv("javax.swing.JFrame.paint", 10.0, 40.0,
                         [gc_iv(20.0, 30.0)]),
            ]),
        ]),
        dispatch(100.0, 130.0),
    ]
    samples = [
        gui_sample(5.0),
        gui_sample(15.0, state=ThreadState.BLOCKED,
                   extra_threads=[("worker", ThreadState.RUNNABLE)]),
    ]
    return make_trace(
        roots, samples=samples, e2e_ms=200.0, short_count=42,
        extra_threads={"worker": [gc_iv(20.0, 30.0)]},
    )


def _assert_same_tree(a, b):
    assert (a.kind, a.symbol, a.start_ns, a.end_ns) == (
        b.kind, b.symbol, b.start_ns, b.end_ns,
    )
    assert len(a.children) == len(b.children)
    for child_a, child_b in zip(a.children, b.children):
        _assert_same_tree(child_a, child_b)


class TestBinaryRoundtrip:
    def test_full_roundtrip(self, tmp_path):
        original = _rich_trace()
        path = write_trace_binary(original, tmp_path / "t.lilb")
        loaded = read_trace_binary(path)

        meta_a, meta_b = original.metadata, loaded.metadata
        assert meta_a.application == meta_b.application
        assert meta_a.session_id == meta_b.session_id
        assert meta_a.end_ns == meta_b.end_ns
        assert meta_a.filter_ms == meta_b.filter_ms
        assert loaded.short_episode_count == 42

        assert set(loaded.thread_roots) == set(original.thread_roots)
        for thread in original.thread_roots:
            for a, b in zip(
                original.thread_roots[thread], loaded.thread_roots[thread]
            ):
                _assert_same_tree(a, b)

        assert len(loaded.samples) == len(original.samples)
        for a, b in zip(original.samples, loaded.samples):
            assert a.timestamp_ns == b.timestamp_ns
            for entry_a, entry_b in zip(a.threads, b.threads):
                assert entry_a.thread_name == entry_b.thread_name
                assert entry_a.state == entry_b.state
                assert entry_a.stack == entry_b.stack

    def test_simulated_trace_roundtrip(self, tmp_path):
        from repro.apps.sessions import simulate_session

        original = simulate_session("CrosswordSage", scale=0.05)
        path = write_trace_binary(original, tmp_path / "s.lilb")
        loaded = read_trace_binary(path)
        assert len(loaded.episodes) == len(original.episodes)
        assert loaded.short_episode_count == original.short_episode_count
        assert [e.duration_ns for e in loaded.episodes] == [
            e.duration_ns for e in original.episodes
        ]

    def test_binary_smaller_than_text(self, tmp_path):
        from repro.apps.sessions import simulate_session

        trace = simulate_session("CrosswordSage", scale=0.1)
        text_path = write_trace(trace, tmp_path / "t.lila")
        binary_path = write_trace_binary(trace, tmp_path / "t.lilb")
        text_size = text_path.stat().st_size
        binary_size = binary_path.stat().st_size
        # Interning must win decisively on sample-heavy traces.
        assert binary_size < text_size / 2

    def test_deterministic_bytes(self, tmp_path):
        trace = _rich_trace()
        a = write_trace_binary(trace, tmp_path / "a.lilb").read_bytes()
        b = write_trace_binary(trace, tmp_path / "b.lilb").read_bytes()
        assert a == b


class TestBinaryErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lilb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_trace_binary(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.lilb"
        path.write_bytes(MAGIC + b"\xff\xff")
        with pytest.raises(TraceFormatError, match="unsupported"):
            read_trace_binary(path)

    def test_truncated_file(self, tmp_path):
        full = write_trace_binary(_rich_trace(), tmp_path / "t.lilb")
        data = full.read_bytes()
        truncated = tmp_path / "trunc.lilb"
        truncated.write_bytes(data[: len(data) // 2])
        # Truncation is caught by the CRC footer (or, for a cut inside
        # the header, by the truncation check itself).
        with pytest.raises(TraceFormatError, match="corrupt|truncated"):
            read_trace_binary(truncated)

    def test_any_bit_flip_is_detected(self, tmp_path):
        # The CRC footer catches corruption anywhere in the payload —
        # even flips that land in numeric fields and would otherwise
        # parse into a silently wrong trace.
        full = write_trace_binary(_rich_trace(), tmp_path / "t.lilb")
        data = bytearray(full.read_bytes())
        for offset in (8, len(data) // 2, len(data) - 8):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x01
            corrupt = tmp_path / "corrupt.lilb"
            corrupt.write_bytes(bytes(corrupted))
            with pytest.raises(TraceFormatError):
                read_trace_binary(corrupt)


# -- the error contract for damage the CRC cannot see -------------------

_HEADER = len(MAGIC) + 2


class _Layout:
    """A hand-assembled ``.lilb`` payload that remembers field offsets.

    ``at[name]`` is the absolute file offset of a named field, which is
    where the reader must stamp an error raised while decoding it.
    """

    def __init__(self):
        self.payload = bytearray()
        self.at = {}

    def put(self, fmt, *values, name=None):
        if name is not None:
            self.at[name] = _HEADER + len(self.payload)
        self.payload += struct.pack("<" + fmt, *values)


def _valid_layout():
    """One GUI thread (a dispatch with a GC inside) and one tick."""
    out = _Layout()
    strings = ["App", "s0", "AWT-EventQueue-0", "dispatch.sym",
               "gc.sym", "a.Cls", "run"]
    out.put("I", len(strings), name="string_count")
    for text in strings:
        data = text.encode("utf-8")
        out.put("I", len(data))
        out.payload += data
    out.put("I", 1, name="frame_count")
    out.put("IIB", 5, 6, 0)                      # frame 0: a.Cls#run
    out.put("I", 1)
    out.put("HI", 1, 0)                          # stack 0: [frame 0]
    out.put("III", 0, 1, 2)                      # application, session, gui
    out.put("QQQ", 0, 10_000_000, 1_000_000)     # start, end, period
    out.put("d", 3.0)
    out.put("Q", 0)                              # filtered count
    out.put("I", 0)                              # no extras
    out.put("I", 1)                              # one thread
    out.put("I", 2, name="thread_name")
    out.put("I", 3, name="event_count")
    out.put("B", 1, name="open_tag")
    out.put("Q", 1000)
    out.put("B", _KIND_CODES[IntervalKind.DISPATCH], name="open_kind")
    out.put("I", 3, name="open_symbol")
    out.put("B", 3)
    out.put("QQ", 2000, 3000)
    out.put("I", 4, name="gc_symbol")
    out.put("B", 2)
    out.put("Q", 5000)
    out.put("I", 1, name="samples")              # one tick
    out.put("QH", 1500, 1)
    out.put("I", 2, name="entry_thread")
    out.put("B", _STATE_CODES[ThreadState.RUNNABLE], name="entry_state")
    out.put("I", 0, name="entry_stack")
    return out


def _stamped(payload):
    crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
    return (MAGIC + struct.pack("<H", VERSION) + bytes(payload)
            + struct.pack("<I", crc))


def _damaged(field, fmt, value, cut_at=None):
    """The valid file with one field overwritten and the CRC re-stamped.

    ``cut_at`` names a field where the payload is cut short before the
    footer is re-stamped, so the damage still passes the CRC check.
    """
    layout = _valid_layout()
    payload = layout.payload
    start = layout.at[field] - _HEADER
    struct.pack_into("<" + fmt, payload, start, value)
    if cut_at is not None:
        del payload[layout.at[cut_at] - _HEADER:]
    return _stamped(payload), layout.at


class TestBinaryErrorContract:
    """Messages and offsets for structural damage behind a good CRC."""

    def test_the_undamaged_layout_reads(self, tmp_path):
        path = tmp_path / "ok.lilb"
        path.write_bytes(_stamped(_valid_layout().payload))
        trace = read_trace_binary(path)
        assert [e.duration_ns for e in trace.episodes] == [4000]
        assert len(trace.samples) == 1

    @pytest.mark.parametrize(
        "field, fmt, value, cut_at, message, where",
        [
            ("open_tag", "B", 9, None,
             "unknown event tag 9", "open_tag"),
            ("open_kind", "B", 250, None,
             "unknown interval kind code", "open_kind"),
            ("entry_state", "B", 250, None,
             "unknown thread state code", "entry_state"),
            ("thread_name", "I", 99, None,
             "string id 99 out of range", "thread_name"),
            ("open_symbol", "I", 99, None,
             "string id 99 out of range", "open_symbol"),
            ("gc_symbol", "I", 99, None,
             "string id 99 out of range", "gc_symbol"),
            ("entry_stack", "I", 7, None,
             "stack id 7 out of range", "entry_stack"),
            # The entry's thread is resolved after its stack, so the
            # error sits on the entry's last field.
            ("entry_thread", "I", 99, None,
             "string id 99 out of range", "entry_stack"),
            ("event_count", "I", 4, "samples",
             "truncated binary trace (wanted 1 bytes, got 0)", "samples"),
            ("string_count", "I", 8, "frame_count",
             "truncated binary trace (wanted 4 bytes, got 0)",
             "frame_count"),
        ],
        ids=[
            "event-tag", "kind-code", "state-code", "thread-name-id",
            "open-symbol-id", "gc-symbol-id", "stack-id", "entry-thread-id",
            "event-count-past-payload", "string-count-past-payload",
        ],
    )
    def test_damage_raises_its_message_at_its_offset(
        self, tmp_path, field, fmt, value, cut_at, message, where
    ):
        data, at = _damaged(field, fmt, value, cut_at)
        path = tmp_path / "damaged.lilb"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError) as info:
            read_trace_binary(path)
        error = info.value
        assert str(error) == message
        assert error.path == path
        assert error.offset == at[where]

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"NOPE\x01\x00", "not a binary LiLa trace (bad magic)", 0),
            (b"LI", "truncated binary trace (wanted 4 bytes, got 2)", 0),
            (MAGIC + b"\x01",
             "truncated binary trace (wanted 2 bytes, got 1)", 4),
            (MAGIC + b"\x09\x00", "unsupported binary trace version 9", 4),
            (MAGIC + b"\x01\x00\x00",
             "truncated binary trace (missing CRC)", 4),
            (MAGIC + b"\x01\x00" + b"\x00" * 4 + b"\x01\x00\x00\x00",
             "binary trace is corrupt (CRC 0x2144df1c, expected 0x00000001)",
             4),
        ],
        ids=["magic", "short-magic", "short-version", "version",
             "missing-crc", "crc"],
    )
    def test_header_damage_raises_its_message_at_its_offset(
        self, tmp_path, data, message, offset
    ):
        path = tmp_path / "damaged.lilb"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError) as info:
            read_trace_binary(path)
        assert str(info.value) == message
        assert info.value.offset == offset
