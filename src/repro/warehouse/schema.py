"""Versioned schema and migrations for the study warehouse.

The study warehouse is a durable cross-run dataset: its file outlives
code upgrades, so the schema is an ordered migration chain that
:func:`repro.core.sqlitedb.migrate` walks on every open, one
transaction per step, preserving existing rows. ``MIGRATIONS[n]``
upgrades a version-``n`` file to version ``n + 1``. A file written by a
*newer* code version is refused rather than guessed at.
"""

from __future__ import annotations

from repro.core.sqlitedb import WarehouseError

#: Version this code writes; files at lower versions migrate up on open.
SCHEMA_VERSION = 3

# Version 1: the core study tables — runs, per-session summaries, and
# per-session pattern occurrence rows.
_V1 = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id             TEXT PRIMARY KEY,
    label              TEXT NOT NULL DEFAULT '',
    source             TEXT NOT NULL DEFAULT '',
    config_fingerprint TEXT NOT NULL DEFAULT '',
    threshold_ms       REAL,
    created_ts         REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS sessions (
    run_id             TEXT NOT NULL,
    app                TEXT NOT NULL,
    session_id         TEXT NOT NULL,
    trace_digest       TEXT NOT NULL DEFAULT '',
    config_fingerprint TEXT NOT NULL DEFAULT '',
    ingested_ts        REAL NOT NULL,
    e2e_s              REAL NOT NULL DEFAULT 0,
    in_episode_pct     REAL NOT NULL DEFAULT 0,
    below_filter       REAL NOT NULL DEFAULT 0,
    traced             REAL NOT NULL DEFAULT 0,
    perceptible        REAL NOT NULL DEFAULT 0,
    long_per_min       REAL NOT NULL DEFAULT 0,
    distinct_patterns  REAL NOT NULL DEFAULT 0,
    covered_episodes   REAL NOT NULL DEFAULT 0,
    singleton_pct      REAL NOT NULL DEFAULT 0,
    mean_descendants   REAL NOT NULL DEFAULT 0,
    mean_depth         REAL NOT NULL DEFAULT 0,
    excluded_episodes  INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app, session_id)
);
CREATE INDEX IF NOT EXISTS idx_sessions_app
    ON sessions (app, ingested_ts);
CREATE TABLE IF NOT EXISTS patterns (
    run_id      TEXT NOT NULL,
    app         TEXT NOT NULL,
    session_id  TEXT NOT NULL,
    pattern_key TEXT NOT NULL,
    count       INTEGER NOT NULL DEFAULT 0,
    perceptible INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app, session_id, pattern_key)
);
"""

# Version 2: a records column on sessions (the spool zero-loss count),
# a quarantine table for rows swept aside as corrupt, and a pattern
# index serving the top-N query.
_V2 = """
ALTER TABLE sessions ADD COLUMN records INTEGER NOT NULL DEFAULT 0;
CREATE TABLE IF NOT EXISTS quarantine (
    rowid_src  INTEGER,
    src_table  TEXT NOT NULL,
    reason     TEXT NOT NULL,
    payload    TEXT NOT NULL,
    swept_ts   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_patterns_app_key
    ON patterns (app, pattern_key);
"""

# Version 3: workload families and cause vectors. Sessions carry the
# family that produced them (pre-v3 rows are gui by definition — the
# default backfills them), and the causes table stores each session's
# self-time attribution by cause label, the substrate of `study diff`.
_V3 = """
ALTER TABLE sessions ADD COLUMN family TEXT NOT NULL DEFAULT 'gui';
CREATE TABLE IF NOT EXISTS causes (
    run_id              TEXT NOT NULL,
    app                 TEXT NOT NULL,
    session_id          TEXT NOT NULL,
    label               TEXT NOT NULL,
    total_ns            INTEGER NOT NULL DEFAULT 0,
    episodes            INTEGER NOT NULL DEFAULT 0,
    perceptible_ns      INTEGER NOT NULL DEFAULT 0,
    perceptible_episodes INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app, session_id, label)
);
CREATE INDEX IF NOT EXISTS idx_causes_run_label
    ON causes (run_id, label);
"""

#: ``MIGRATIONS[n]`` migrates a version-``n`` database to ``n + 1``.
MIGRATIONS = (_V1, _V2, _V3)


#: The chain :mod:`repro.core.sqlitedb` walks for a study warehouse file.
CHAIN = (MIGRATIONS, "study_schema_version")

#: Both warehouses raise the substrate's one error type.
StudyWarehouseError = WarehouseError
