"""One streaming ingestion abstraction over every trace encoding.

A :class:`TraceSource` turns a trace — text file, binary file, or an
in-memory iterable of format lines — into a single validated stream of
records (the ``REC_*`` vocabulary of :mod:`repro.core.store`). Record
syntax is checked as each record is produced, so damage surfaces while
streaming with its position attached: text sources stamp the 1-based
line number, the binary source the byte offset, and both the file path,
onto every :class:`~repro.core.errors.TraceFormatError`.

:func:`build_trace` is the one ingestion driver: it feeds any source
into a :class:`~repro.core.store.ColumnarBuilder` and returns a
:class:`~repro.core.store.FacadeTrace` — the classic ``Trace`` API over
a columnar store, built in one pass without materializing an object per
interval. The legacy entry points (``read_trace``, ``read_trace_lines``,
``read_trace_binary``, ``load_trace``) are thin wrappers over this
module and raise exactly the errors they always did.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.errors import LagAlyzerError, TraceFormatError
from repro.core.intervals import IntervalKind
from repro.core.samples import StackFrame, StackTrace, ThreadState
from repro.core.store import (
    REC_CLOSE,
    REC_ENTRY,
    REC_FILTERED,
    REC_GC,
    REC_META,
    REC_OPEN,
    REC_THREAD,
    REC_TICK,
    ColumnarBuilder,
    ColumnarTrace,
    FacadeTrace,
)
from repro.faults import runtime as faults_runtime
from repro.lila import binary as binary_format
from repro.lila.format import decode_stack, parse_header


class TraceSource:
    """A one-pass, validated record stream over one trace.

    Attributes:
        path: the backing file, or None for in-memory input.
        encoding: ``"text"``, ``"binary"``, or ``"lines"``.
        line: 1-based line number of the record last produced (text).
        offset: byte offset of the field at fault (binary; set on error).
        wrap_errors: whether the ingestion driver should re-type
            nesting/analysis errors as position-carrying
            :class:`TraceFormatError` (the text readers' contract) or
            let them propagate raw (the binary reader's contract).
    """

    encoding = "unknown"
    wrap_errors = True
    path: Optional[Path] = None
    line: Optional[int] = None
    offset: Optional[int] = None

    def records(self) -> Iterator[tuple]:
        """Yield validated ``REC_*`` records in stream order."""
        raise NotImplementedError

    def open_store(self) -> Optional[ColumnarTrace]:
        """A ready-made store, bypassing the record stream, or ``None``.

        Sources whose on-disk layout *is* the columnar store (the
        `.lilac` column file) override this;
        :func:`build_store` then adopts the store directly instead of
        replaying and re-building every record.
        """
        return None

    def annotate(self, error: TraceFormatError) -> TraceFormatError:
        """Stamp this source's position onto ``error`` (idempotent)."""
        if error.path is None:
            error.path = self.path
        if error.line is None and error.offset is None:
            error.line = self.line
            error.offset = self.offset
        return error

    def label(self) -> str:
        """Short human-readable identity for logs and quarantine."""
        return self.path.name if self.path is not None else f"<{self.encoding}>"


def _parse_ns(token: str, line_no: int, path: Optional[Path]) -> int:
    try:
        return int(token)
    except ValueError:
        raise TraceFormatError(
            f"line {line_no}: bad timestamp {token!r}",
            path=path,
            line=line_no,
        ) from None


#: Successful kind/state token lookups, memoized process-wide: the
#: token vocabulary is tiny and hot (one lookup per O and per t record).
_KINDS_BY_TOKEN: Dict[str, IntervalKind] = {}
_STATES_BY_TOKEN: Dict[str, ThreadState] = {}


class _ParseState:
    """Cross-line parser state shared by pull and push text parsing."""

    __slots__ = ("in_tick",)

    def __init__(self) -> None:
        self.in_tick = False


def _parse_body_line(
    source: "TraceSource", line_no: int, line: str, state: _ParseState
) -> Optional[tuple]:
    """Parse one non-header format line into a validated record.

    Returns ``None`` for blank/comment lines; raises line-stamped
    :class:`TraceFormatError` for any damage — exactly the classic text
    reader's contract, shared by the streaming sources and the push-mode
    :class:`RecordFeed` the ingest daemon drives.
    """
    if not line or line.startswith("#"):
        return None
    path = source.path
    stack_cache = source._stack_cache
    in_tick = state.in_tick
    record, _, rest = line.partition(" ")
    if record == "t":
        if not in_tick:
            raise TraceFormatError(
                f"line {line_no}: t record outside a tick",
                path=path,
                line=line_no,
            )
        # Few sample lines are distinct, so each finished record is
        # memoized by its line text; stacks are shared between lines
        # under a 1-tuple of their token, which no line key can equal.
        entry = stack_cache.get(line)
        if entry is not None:
            return entry
        parts = rest.split(" ", 2)
        if len(parts) != 3:
            raise TraceFormatError(
                f"line {line_no}: malformed t record",
                path=path,
                line=line_no,
            )
        thread_state = _STATES_BY_TOKEN.get(parts[1])
        if thread_state is None:
            try:
                thread_state = ThreadState.from_name(parts[1])
            except ValueError as error:
                raise TraceFormatError(
                    f"line {line_no}: {error}", path=path, line=line_no
                ) from None
            _STATES_BY_TOKEN[parts[1]] = thread_state
        token = (parts[2],)
        stack = stack_cache.get(token)
        if stack is None:
            try:
                stack = decode_stack(parts[2])
            except TraceFormatError as error:
                raise source.annotate(error)
            stack_cache[token] = stack
        entry = (REC_ENTRY, parts[0], thread_state, stack)
        stack_cache[line] = entry
        return entry
    elif record == "O":
        parts = rest.split(" ", 2)
        if len(parts) != 3:
            raise TraceFormatError(
                f"line {line_no}: malformed O record",
                path=path,
                line=line_no,
            )
        start_ns = _parse_ns(parts[0], line_no, path)
        kind = _KINDS_BY_TOKEN.get(parts[1])
        if kind is None:
            try:
                kind = IntervalKind.from_name(parts[1])
            except ValueError as error:
                raise TraceFormatError(
                    f"line {line_no}: {error}", path=path, line=line_no
                ) from None
            _KINDS_BY_TOKEN[parts[1]] = kind
        return (REC_OPEN, start_ns, kind, parts[2])
    elif record == "C":
        return (REC_CLOSE, _parse_ns(rest, line_no, path))
    elif record == "P":
        state.in_tick = True
        return (REC_TICK, _parse_ns(rest, line_no, path))
    elif record == "G":
        parts = rest.split(" ", 2)
        if len(parts) != 3:
            raise TraceFormatError(
                f"line {line_no}: malformed G record",
                path=path,
                line=line_no,
            )
        return (
            REC_GC,
            _parse_ns(parts[0], line_no, path),
            _parse_ns(parts[1], line_no, path),
            parts[2],
        )
    elif record == "T":
        thread = rest.strip()
        if not thread:
            raise TraceFormatError(
                f"line {line_no}: empty thread name",
                path=path,
                line=line_no,
            )
        state.in_tick = False
        return (REC_THREAD, thread)
    elif record == "M":
        key, _, value = rest.partition(" ")
        if not key or not value:
            raise TraceFormatError(
                f"line {line_no}: malformed M record",
                path=path,
                line=line_no,
            )
        if key.startswith("x."):
            return (REC_META, key[2:], value, True)
        return (REC_META, key, value, False)
    elif record == "F":
        try:
            count = int(rest)
        except ValueError:
            raise TraceFormatError(
                f"line {line_no}: bad filtered-episode count {rest!r}",
                path=path,
                line=line_no,
            ) from None
        return (REC_FILTERED, count)
    raise TraceFormatError(
        f"line {line_no}: unknown record type {record!r}",
        path=path,
        line=line_no,
    )


def _text_records(
    source: "TraceSource", lines: Iterable[str]
) -> Iterator[tuple]:
    """The shared text-format record generator (strict, line-stamped)."""
    iterator = iter(lines)
    try:
        first = next(iterator)
    except StopIteration:
        raise TraceFormatError("empty trace input", path=source.path) from None
    source.line = 1
    try:
        parse_header(first.rstrip("\n"))
    except TraceFormatError as error:
        raise source.annotate(error)

    state = _ParseState()
    for line_no, raw in enumerate(iterator, start=2):
        source.line = line_no
        record = _parse_body_line(source, line_no, raw.rstrip("\n"), state)
        if record is not None:
            yield record


class RecordFeed(TraceSource):
    """Push-mode text-format parser: feed lines, receive records.

    The pull sources above wrap an iterable that must be complete before
    parsing starts; the ingest daemon instead receives lines a batch at
    a time from a live client and needs records *as they arrive*.
    :meth:`feed` accepts one format line (the first must be the header)
    and returns the validated record it encodes, or ``None`` for the
    header and for blank/comment lines. Validation, error messages, and
    line stamping are identical to :class:`TextTraceSource` — both run
    :func:`_parse_body_line`.
    """

    encoding = "push"
    wrap_errors = True

    def __init__(self, label: Optional[str] = None) -> None:
        self.path = None
        self.line = None
        self.offset = None
        self._label = label
        self._stack_cache: dict = {}
        self._state = _ParseState()
        self._line_no = 0

    def label(self) -> str:
        return self._label if self._label is not None else "<push>"

    def feed(self, raw: str) -> Optional[tuple]:
        """Parse the next format line; return its record (or ``None``)."""
        self._line_no += 1
        line_no = self._line_no
        self.line = line_no
        line = raw.rstrip("\n")
        if line_no == 1:
            try:
                parse_header(line)
            except TraceFormatError as error:
                raise self.annotate(error)
            return None
        return _parse_body_line(self, line_no, line, self._state)


class TextTraceSource(TraceSource):
    """Record stream over a text-format (``.lila``) trace file.

    With ``faults=True`` the ``lila.read`` fault-injection site is armed
    exactly as the classic reader armed it: a pre-read check plus the
    line filter, so injected damage surfaces as line-stamped
    :class:`TraceFormatError` from this source's validation.
    """

    encoding = "text"
    wrap_errors = True

    def __init__(self, path: Union[str, Path], faults: bool = False) -> None:
        self.path = Path(path)
        self.line = None
        self.offset = None
        self._faults = faults
        self._stack_cache: dict = {}

    def records(self) -> Iterator[tuple]:
        if self._faults:
            faults_runtime.check("lila.read", key=self.path.name)
        with self.path.open("r", encoding="utf-8") as handle:
            lines: Iterable[str] = handle
            if self._faults:
                lines = faults_runtime.filter_lines(
                    "lila.read", self.path.name, handle
                )
            yield from _text_records(self, lines)


class LinesTraceSource(TraceSource):
    """Record stream over an in-memory iterable of format lines."""

    encoding = "lines"
    wrap_errors = True

    def __init__(self, lines: Iterable[str]) -> None:
        self.path = None
        self.line = None
        self.offset = None
        self._lines = lines
        self._stack_cache: dict = {}

    def records(self) -> Iterator[tuple]:
        return _text_records(self, self._lines)


class BinaryTraceSource(TraceSource):
    """Record stream over a binary (``.lilb``) trace file.

    The CRC footer is verified before any field is trusted, exactly as
    the classic binary reader did; structural damage that survives the
    CRC (out-of-range ids, unknown codes) raises offset-stamped
    :class:`TraceFormatError`. Nesting and bounds violations propagate
    raw (``wrap_errors`` is False), preserving the binary reader's
    historical error contract.

    Fields are unpacked in place from the file bytes on a local offset,
    one ``unpack_from`` per fixed-width record; :attr:`offset` is set
    only when an error is raised, to the offset of the field at fault.
    """

    encoding = "binary"
    wrap_errors = False

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.line = None
        self.offset = 0

    def _fail(self, offset: int, message: str) -> TraceFormatError:
        self.offset = offset
        return TraceFormatError(message, path=self.path, offset=offset)

    def _short(self, offset: int, wanted: int, end: int) -> TraceFormatError:
        """The error for a ``wanted``-byte field at ``offset`` past ``end``."""
        got = end - offset
        return self._fail(offset, f"truncated binary trace (wanted {wanted} bytes, got {got})")

    def _overrun(self, offset: int, end: int, fmt: str) -> TraceFormatError:
        """The truncation error of the first field of ``fmt`` past ``end``."""
        for code in fmt[1:]:
            width = struct.calcsize("<" + code)
            if offset + width > end:
                break
            offset += width
        return self._short(offset, width, end)

    def records(self) -> Iterator[tuple]:
        data = self.path.read_bytes()
        size = len(data)
        if size < 4:
            raise self._short(0, 4, size)
        if data[:4] != binary_format.MAGIC:
            raise self._fail(0, "not a binary LiLa trace (bad magic)")
        if size < 6:
            raise self._short(4, 2, size)
        (version,) = binary_format._U16.unpack_from(data, 4)
        if version != binary_format.VERSION:
            raise self._fail(4, f"unsupported binary trace version {version}")
        if size < 10:
            raise self._fail(4, "truncated binary trace (missing CRC)")
        end = size - 4
        (expected,) = binary_format._U32.unpack_from(data, end)
        actual = zlib.crc32(memoryview(data)[6:end]) & 0xFFFFFFFF
        if actual != expected:
            raise self._fail(
                4,
                f"binary trace is corrupt (CRC {actual:#010x}, "
                f"expected {expected:#010x})",
            )

        def fields(layout: struct.Struct, at: int) -> tuple:
            if at + layout.size > end:
                raise self._overrun(at, end, layout.format)
            return layout.unpack_from(data, at)

        def count(at: int) -> Tuple[int, int]:
            """The u32 at ``at`` and the offset just past it."""
            return fields(binary_format._U32, at)[0], at + 4

        strings: List[str] = []

        def string(index: int, at: int) -> str:
            if index < len(strings):
                return strings[index]
            raise self._fail(at, f"string id {index} out of range")

        string_count, pos = count(6)
        for _ in range(string_count):
            length, pos = count(pos)
            if pos + length > end:
                raise self._short(pos, length, end)
            strings.append(data[pos:pos + length].decode("utf-8"))
            pos += length

        frame_count, pos = count(pos)
        frames = []
        for _ in range(frame_count):
            class_id, method_id, native = fields(binary_format._FRAME, pos)
            pos += 9
            frames.append(
                StackFrame(string(class_id, pos - 1), string(method_id, pos - 1), native == 1)
            )

        stack_count, pos = count(pos)
        stacks = []
        for _ in range(stack_count):
            (depth,) = fields(binary_format._U16, pos)
            pos += 2
            whole = min(depth, (end - pos) // 4)
            ids = struct.unpack_from(f"<{whole}I", data, pos)
            stacks.append(StackTrace([frames[i] for i in ids]))
            pos += 4 * whole
            if whole < depth:
                raise self._short(pos, 4, end)

        names = []
        for _ in range(3):
            name_id, pos = count(pos)
            names.append(string(name_id, pos - 4))
        application, session_id, gui_thread = names
        start_ns, end_ns, period_ns, filter_ms, short_count = fields(binary_format._META, pos)
        extra_count, pos = count(pos + binary_format._META.size)
        extras = []
        for _ in range(extra_count):
            key_id, value_id = fields(binary_format._PAIR, pos)
            pos += 8
            extras.append((string(key_id, pos - 4), string(value_id, pos - 4)))

        yield (REC_META, "application", application, False)
        yield (REC_META, "session_id", session_id, False)
        yield (REC_META, "start_ns", start_ns, False)
        yield (REC_META, "end_ns", end_ns, False)
        yield (REC_META, "gui_thread", gui_thread, False)
        yield (REC_META, "sample_period_ns", period_ns, False)
        yield (REC_META, "filter_ms", filter_ms, False)
        for key, value in extras:
            yield (REC_META, key, value, True)
        yield (REC_FILTERED, short_count)

        kinds, states = binary_format._KINDS_BY_CODE, binary_format._STATES_BY_CODE
        unpack_open = binary_format._OPEN.unpack_from
        unpack_close = binary_format._U64.unpack_from
        unpack_entry = binary_format._ENTRY.unpack_from

        thread_count, pos = count(pos)
        for _ in range(thread_count):
            name_id, pos = count(pos)
            name = string(name_id, pos - 4)
            event_count, pos = count(pos)
            yield (REC_THREAD, name)
            for _ in range(event_count):
                if pos >= end:
                    raise self._short(pos, 1, end)
                tag = data[pos]
                pos += 1
                if tag == binary_format._TAG_OPEN:
                    if pos + 9 <= end and data[pos + 8] >= len(kinds):
                        raise self._fail(pos + 8, "unknown interval kind code")
                    if pos + 13 > end:
                        raise self._overrun(pos, end, binary_format._OPEN.format)
                    start, code, symbol = unpack_open(data, pos)
                    yield (REC_OPEN, start, kinds[code], string(symbol, pos + 9))
                    pos += 13
                elif tag == binary_format._TAG_CLOSE:
                    if pos + 8 > end:
                        raise self._short(pos, 8, end)
                    yield (REC_CLOSE, unpack_close(data, pos)[0])
                    pos += 8
                elif tag == binary_format._TAG_GC:
                    start, stop, symbol = fields(binary_format._GC, pos)
                    yield (REC_GC, start, stop, string(symbol, pos + 16))
                    pos += 20
                else:
                    raise self._fail(pos - 1, f"unknown event tag {tag}")

        tick_count, pos = count(pos)
        for _ in range(tick_count):
            tick, entry_count = fields(binary_format._TICK, pos)
            pos += 10
            yield (REC_TICK, tick)
            for _ in range(entry_count):
                if pos + 5 <= end and data[pos + 4] >= len(states):
                    raise self._fail(pos + 4, "unknown thread state code")
                if pos + 9 > end:
                    raise self._overrun(pos, end, binary_format._ENTRY.format)
                thread_id, code, stack_id = unpack_entry(data, pos)
                if stack_id >= stack_count:
                    raise self._fail(pos + 5, f"stack id {stack_id} out of range")
                if thread_id >= string_count:
                    raise self._fail(pos + 5, f"string id {thread_id} out of range")
                yield (REC_ENTRY, strings[thread_id], states[code], stacks[stack_id])
                pos += 9


def open_source(
    path: Union[str, Path], faults: bool = False
) -> TraceSource:
    """A :class:`TraceSource` over ``path``, encoding autodetected.

    Raises:
        TraceFormatError: when neither encoding's magic matches.
    """
    from repro.lila.autodetect import detect_format

    path = Path(path)
    encoding = detect_format(path)
    if encoding == "binary":
        return BinaryTraceSource(path)
    if encoding == "lilac":
        from repro.lila.colfile import ColumnTraceSource

        return ColumnTraceSource(path)
    return TextTraceSource(path, faults=faults)


def build_store(source: TraceSource) -> ColumnarTrace:
    """Stream ``source`` into a sealed :class:`ColumnarTrace`.

    This is the single ingestion driver behind every reader. Error
    contract (identical to the pre-columnar readers, message for
    message):

    - record-level damage raises :class:`TraceFormatError` stamped with
      the source's position;
    - for ``wrap_errors`` sources (text), nesting violations raised
      mid-stream are re-typed as line-prefixed ``TraceFormatError``, and
      end-of-stream violations (unclosed intervals, bad bounds) as
      unprefixed ``TraceFormatError``;
    - for binary sources, nesting/bounds errors propagate raw.

    Sources that *are* a serialized store (`.lilac`) short-circuit:
    their :meth:`TraceSource.open_store` result is adopted as-is, with
    no records streamed and no columns copied.
    """
    direct = source.open_store()
    if direct is not None:
        from repro.obs import runtime as obs_runtime

        if obs_runtime.current() is not None:
            obs_runtime.set_gauge("store.bytes", direct.nbytes)
        return direct
    builder = ColumnarBuilder()
    feed = builder.feed
    wrap = source.wrap_errors
    for record in source.records():
        try:
            feed(record)
        except TraceFormatError as error:
            raise source.annotate(error)
        except LagAlyzerError as error:
            if not wrap:
                raise
            # Nesting violations from the columnar builder carry no
            # position; re-typing them here pins the damage to a line.
            raise TraceFormatError(
                f"line {source.line}: {error}",
                path=source.path,
                line=source.line,
            ) from None
    builder.flush_samples()

    try:
        builder.check_required_meta()
        metadata = builder.build_metadata()
    except TraceFormatError as error:
        raise source.annotate(error)
    try:
        store = builder.finish(metadata)
    except TraceFormatError as error:
        raise source.annotate(error)
    except LagAlyzerError as error:
        if not wrap:
            raise
        # Intervals left open by a truncated file (or an impossible
        # structure) surface at finish time; same contract: damage
        # always raises the typed parse error.
        raise TraceFormatError(str(error), path=source.path) from None

    from repro.obs import runtime as obs_runtime

    if obs_runtime.current() is not None:
        obs_runtime.count("lila.records_streamed", builder.record_count)
        obs_runtime.set_gauge("store.bytes", store.nbytes)
    return store


def build_trace(source: TraceSource) -> FacadeTrace:
    """Stream ``source`` into a columnar-backed :class:`FacadeTrace`."""
    return FacadeTrace(build_store(source))
