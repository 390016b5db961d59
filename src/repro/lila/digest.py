"""Stable content digests of session traces.

The engine's result cache (:mod:`repro.engine.cache`) is
content-addressed, keyed by :func:`trace_digest`: one SHA-256 streamed
straight over the columnar store, rendering no record as text. It
hashes the metadata in a fixed encoding (``extra`` sorted by key, then
the filtered-episode count); each thread in canonical order (GUI thread
first, the rest sorted) as name, row count, the little-endian bytes of
``start``/``end``/``kind``/``size`` and the resolved symbols; then the
bytes of ``sample_ts``/``sample_offsets``/``entry_state``, the entry
thread names and the encoded entry stacks. Strings are resolved through
the intern table and each ends in ``"\\n"``, which
:func:`~repro.lila.format.check_symbol` forbids — so the digest is the
same for text, binary, in-memory lines, simulated, `.lilac` (either
byte order), pickled and shared-intern stores, and no dict or set order
reaches it. Symbols the text format cannot hold still raise
:class:`~repro.core.errors.TraceFormatError`.

:func:`file_digest` hashes a file's raw bytes instead (cheaper when the
file is already on disk, but encoding-dependent).
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from pathlib import Path
from typing import Callable, Iterable, List, Sequence, Set, Union

from repro.core.store import ColumnarTrace
from repro.core.trace import Trace

#: Attribute used to memoize a trace's digest. Traces are immutable
#: once built, so the digest never needs invalidation.
_MEMO_ATTR = "_content_digest"

_CHUNK = 1 << 20

#: Rows per hashed slice of a string column: bounds the transient
#: joined text per ``update`` instead of building a whole-thread string.
_ROWS_PER_UPDATE = 1 << 12

_LITTLE_ENDIAN = sys.byteorder == "little"


def trace_digest(trace: Union[Trace, ColumnarTrace]) -> str:
    """Hex digest of a trace's canonical content (see the module doc).

    Accepts a columnar store, a columnar-backed trace, or a plain object
    :class:`Trace` (which is columnarized first). The digest is computed
    once and memoized on the trace and on its store; a store opened from
    a `.lilac` file arrives with the digest from its header.
    """
    memo = getattr(trace, _MEMO_ATTR, None)
    if memo is not None:
        return memo
    from repro.obs import runtime as obs_runtime

    with obs_runtime.maybe_span(
        "lila.trace_digest", metric="lila.digest_ms"
    ):
        is_store = isinstance(trace, ColumnarTrace)
        store = trace if is_store else getattr(trace, "columnar", None)
        if store is None:
            from repro.core.store.build import columnarize

            store = columnarize(trace)
        value = getattr(store, _MEMO_ATTR, None)
        if value is None:
            value = _column_digest(store)
            setattr(store, _MEMO_ATTR, value)
    setattr(trace, _MEMO_ATTR, value)
    return value


def _little_endian(column: Sequence[int]) -> Sequence[int]:
    """``column`` as a buffer of little-endian bytes (zero-copy on
    little-endian hosts)."""
    if _LITTLE_ENDIAN:
        return column
    typecode = column.typecode if isinstance(column, array) else column.format
    swapped = array(typecode, column)
    swapped.byteswap()
    return swapped


def _hash_texts(update: Callable[[bytes], None], ids: Sequence[int],
                text_of: Callable[[int], str]) -> None:
    """Hash ``text_of(id)`` for every id, each terminated by ``"\\n"``."""
    for lo in range(0, len(ids), _ROWS_PER_UPDATE):
        piece = ids[lo:lo + _ROWS_PER_UPDATE]
        update("\n".join(map(text_of, piece)).encode("utf-8"))
        update(b"\n")


def _check_ids(ids: Iterable[int], strings: List[str], checked: Set[int],
               what: str) -> None:
    """:func:`check_symbol` each distinct, not yet checked string id."""
    from repro.lila.format import check_symbol

    for index in sorted(set(ids) - checked):
        check_symbol(strings[index], what)
        checked.add(index)


def _column_digest(store: ColumnarTrace) -> str:
    from repro.lila.format import check_symbol, encode_stack

    digest = hashlib.sha256()
    update = digest.update

    def fields(*values: object) -> None:
        update("".join(f"{value}\n" for value in values).encode("utf-8"))

    meta = store.metadata
    fields(
        check_symbol(meta.application, "application"),
        check_symbol(meta.session_id, "session id"),
        meta.start_ns, meta.end_ns,
        check_symbol(meta.gui_thread, "thread name"),
        meta.sample_period_ns, repr(meta.filter_ms), len(meta.extra),
    )
    for key in sorted(meta.extra):
        fields(
            check_symbol(key, "metadata key"),
            check_symbol(meta.extra[key], "metadata value"),
        )
    fields(store.short_episode_count)

    strings = store.strings
    text_of = strings.__getitem__
    gui = meta.gui_thread
    names = sorted(store._thread_map, key=lambda name: (name != gui, name))
    fields(len(names))
    symbols_checked: Set[int] = set()
    for name in names:
        columns = store.threads[store._thread_map[name]]
        fields(check_symbol(name, "thread name"), len(columns))
        for column in (columns.start, columns.end, columns.kind,
                       columns.size):
            update(_little_endian(column))
        _check_ids(columns.symbol, strings, symbols_checked, "symbol")
        _hash_texts(update, columns.symbol, text_of)

    entry_thread = store.entry_thread
    entry_stack = store.entry_stack
    fields(len(store.sample_ts), len(entry_thread))
    for column in (store.sample_ts, store.sample_offsets, store.entry_state):
        update(_little_endian(column))
    _check_ids(entry_thread, strings, set(), "thread name")
    _hash_texts(update, entry_thread, text_of)
    stacks = store.stacks
    encoded = {key: encode_stack(stacks[key]) for key in set(entry_stack)}
    _hash_texts(update, entry_stack, encoded.__getitem__)
    return digest.hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """Hex digest of a trace file's raw bytes (streamed)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()
