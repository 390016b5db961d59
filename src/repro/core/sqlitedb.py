"""The SQLite substrate of the study and telemetry warehouses.

:mod:`repro.warehouse` and :mod:`repro.obs.warehouse` each keep one
SQLite file and reach it only through this module:

- **Open.** Every operation opens its own short-lived connection. The
  parent directory is made, the busy handler waits up to
  :data:`BUSY_TIMEOUT_S`, the file is switched to WAL once
  (:func:`ensure_wal`), ``synchronous=NORMAL`` is set, and the store's
  migration chain is walked (:func:`migrate`). A current file is only
  read on open, so opening never takes the write lock and readers are
  never blocked by a writer.
- **Read.** :func:`connected` yields the connection in autocommit and
  always closes it.
- **Write.** :func:`writing` runs its body inside ``BEGIN IMMEDIATE``,
  commits or rolls back, and closes. A read that decides what a write
  changes runs inside the same scope, so check and act are one
  transaction. ``BEGIN IMMEDIATE`` waits on the busy handler; a
  deferred transaction upgraded from a read snapshot may instead fail
  at once with ``database is locked``.

A migration chain is ``(migrations, version_key)``: ``migrations[n]``
upgrades a version-``n`` file to version ``n + 1``, and the file's
version is its ``meta`` row under ``version_key``. The first migration
creates the ``meta`` table.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Sequence, Tuple

from repro.core.errors import LagAlyzerError

#: How long a connection waits on another connection's lock.
BUSY_TIMEOUT_S = 10.0

#: Display bucket widths both warehouses' series queries accept.
BUCKET_WIDTHS: Dict[str, int] = {
    "minute": 60,
    "hour": 3600,
    "day": 86400,
}

#: ``(migrations, version_key)``; see the module docstring.
Chain = Tuple[Sequence[str], str]

_SWITCH_LOCK = threading.Lock()
_RETRY_PAUSES_S = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


class WarehouseError(LagAlyzerError):
    """A warehouse file is unusable or a query is malformed."""


def ensure_wal(connection: sqlite3.Connection) -> None:
    """Put the connection's database file in WAL mode if it is not yet.

    WAL mode is stored in the file, so only the connection that creates
    a file has to switch it. The switch takes an exclusive lock and
    fails at once with ``database is locked``, without waiting out the
    busy timeout, when another connection is creating the same file. So
    the mode is read first, switches in one process take turns, and a
    locked switch is retried after a short fixed pause unless the file
    is in WAL by then.
    """
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


def stored_version(connection: sqlite3.Connection, chain: Chain) -> int:
    """The chain version recorded in the file, 0 for a fresh file."""
    row = connection.execute(
        "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
    ).fetchone()
    if row is None:
        return 0
    row = connection.execute(
        "SELECT value FROM meta WHERE key = ?", (chain[1],)
    ).fetchone()
    return int(row[0]) if row else 0


def _statements(script: str) -> list:
    """The individual statements of a migration script.

    Scripts run statement by statement inside an explicit transaction
    (``executescript`` would commit around itself and break the
    write-lock serialization of :func:`migrate`), so they must not
    contain string literals with semicolons.
    """
    return [part.strip() for part in script.split(";") if part.strip()]


@contextmanager
def transaction(connection: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    """``BEGIN IMMEDIATE`` around the body: commit, or roll back on error."""
    connection.execute("BEGIN IMMEDIATE")
    try:
        yield connection
    except BaseException:
        connection.rollback()
        raise
    connection.commit()


def migrate(connection: sqlite3.Connection, chain: Chain) -> int:
    """Walk ``connection`` up ``chain`` to its last version.

    Returns the version the file started at; a current file is only
    read. Each step runs in its own write transaction: the write lock
    serializes concurrent first opens (the version is read again under
    the lock, so the loser sees the winner's work instead of re-running
    a non-idempotent ``ALTER TABLE``), and a crash mid-chain leaves a
    valid lower-version file that the next open resumes upgrading.

    Raises:
        WarehouseError: the file reports a version newer than the chain.
    """
    migrations, version_key = chain
    start = stored_version(connection, chain)
    if start > len(migrations):
        raise WarehouseError(
            f"warehouse schema v{start} ({version_key}) is newer than this"
            f" code's v{len(migrations)} — upgrade repro or use a fresh file"
        )
    version = start
    while version < len(migrations):
        with transaction(connection):
            version = stored_version(connection, chain)
            if version >= len(migrations):
                break
            for statement in _statements(migrations[version]):
                connection.execute(statement)
            version += 1
            connection.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (version_key, str(version)),
            )
    return start


@contextmanager
def connected(path: Path, chain: Chain) -> Iterator[sqlite3.Connection]:
    """An open, migrated connection to ``path``, closed on exit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_S)
    try:
        ensure_wal(connection)
        connection.execute("PRAGMA synchronous=NORMAL")
        migrate(connection, chain)
        yield connection
    finally:
        connection.close()


@contextmanager
def writing(path: Path, chain: Chain) -> Iterator[sqlite3.Connection]:
    """:func:`connected`, with the body in one :func:`transaction`."""
    with connected(path, chain) as connection, transaction(connection):
        yield connection
