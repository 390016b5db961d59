"""WAL journal mode for the SQLite stores, switched once per file.

WAL mode is stored in the file, so only the connection that creates a
file has to switch it. The switch takes an exclusive lock and fails at
once with ``database is locked``, without waiting out the busy timeout,
when another connection is creating the same file. So the mode is read
first, switches in one process take turns, and a locked switch is
retried after a short fixed pause unless the file is in WAL by then.
"""

from __future__ import annotations

import sqlite3
import threading
import time

_SWITCH_LOCK = threading.Lock()
_RETRY_PAUSES_S = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


def ensure_wal(connection: sqlite3.Connection) -> None:
    """Put the connection's database file in WAL mode if it is not yet."""
    if connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal":
        return
    with _SWITCH_LOCK:
        for pause in _RETRY_PAUSES_S:
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error):
                    raise
            time.sleep(pause)
            if connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal":
                return
        connection.execute("PRAGMA journal_mode=WAL")
