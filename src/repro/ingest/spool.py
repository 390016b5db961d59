"""Per-session spool files: the durable side of the ingest daemon.

A spool is an ordinary LiLa *text* trace file grown by appends. The
daemon writes exactly the record lines a client shipped (header
included), one line at a time, flushing after every batch — so at any
moment the spool is a plain ``.lila`` file that
:func:`repro.lila.source.open_source` reads like any other trace. A
client that disconnected mid-stream leaves everything it got acked
on disk; nothing about the spool format says "partial".

Spool files are named ``{application}-{session}.lila`` with both parts
sanitized to a filesystem-safe alphabet, so a hostile session id cannot
escape the spool directory.

:meth:`SessionSpool.intact` says whether the file still reads back as
exactly the lines this spool appended — the condition under which the
daemon may compact a session from its live analyzer's store instead of
re-parsing the file.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Optional, Sequence, Union

#: Characters allowed verbatim in a spool file name component.
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(part: str, fallback: str) -> str:
    cleaned = _UNSAFE.sub("_", part).strip("._")
    return cleaned or fallback


def spool_name(session: str, application: str = "") -> str:
    """The spool file name for one session."""
    app = _sanitize(application, "app")
    sess = _sanitize(session, "session")
    return f"{app}-{sess}.lila"


class SessionSpool:
    """Append-only LiLa text spool for one ingest session.

    Thread-safe: the daemon's flush thread and an END handler may both
    append (never concurrently for the same batch, but the lock makes
    the file position safe regardless).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        session: str,
        application: str = "",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.session = session
        self.application = application
        self.path = self.directory / spool_name(session, application)
        self._lock = threading.Lock()
        self._file: Optional[object] = None
        #: Record lines durably appended so far.
        self.lines_written = 0
        #: Bytes durably appended so far (by this object, across reopens).
        self.bytes_written = 0
        #: Whether an appended line carried a ``\r``, which a text
        #: reader takes for a line end of its own.
        self.carriage_return = False
        self._position = 0

    def _handle(self) -> object:
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
            self._position = self._file.tell()
        return self._file

    def append(self, lines: Sequence[str]) -> int:
        """Append record lines (newline-terminated) and flush; count written."""
        if not lines:
            return 0
        text = "\n".join(lines) + "\n"
        with self._lock:
            handle = self._handle()
            handle.write(text)
            handle.flush()
            position = handle.tell()
            self.bytes_written += position - self._position
            self._position = position
            self.lines_written += len(lines)
            if "\r" in text:
                self.carriage_return = True
        return len(lines)

    def intact(self) -> bool:
        """Whether the file reads back as exactly the appended lines.

        False when the file held bytes before this spool first opened
        it, was edited or replaced since, is missing, or an appended
        line carries a ``\r``.
        """
        with self._lock:
            if self.carriage_return:
                return False
            try:
                return os.path.getsize(self.path) == self.bytes_written
            except OSError:
                return False

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "SessionSpool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"SessionSpool({str(self.path)!r}, "
            f"{self.lines_written} lines)"
        )
