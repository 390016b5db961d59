"""Cross-process contention on both warehouse files.

Two processes with two threads each run a mix of writes, retention
(prune, compact) and queries against one study warehouse file or one
telemetry warehouse file. The SQLite substrate must serialize every
write with ``BEGIN IMMEDIATE`` behind the busy handler, so no operation
fails with ``database is locked`` and no row written as "kept" is lost
to a racing prune or compact.

Run as a script, this file is one worker process:
``python tests/test_warehouse_contention.py STORE PATH WORKER READY_DIR``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro.core.statistics import SessionStats
from repro.obs.warehouse import Warehouse
from repro.warehouse.store import StudyWarehouse

PROCESSES = 2
THREADS = 2
ROUNDS = 10
OLD_TS = 1.0

STATS = SessionStats(
    application="App", e2e_s=60.0, in_episode_pct=10.0, below_filter=5.0, traced=10.0,
    perceptible=2.0, long_per_min=0.5, distinct_patterns=3.0,
    covered_episodes=8.0, singleton_pct=20.0, mean_descendants=4.0,
    mean_depth=2.0,
)


def _study_round(wh: StudyWarehouse, tag: str, index: int) -> None:
    """Write one kept and one old session, prune or compact, query."""
    wh.ingest_session(
        f"keep-{tag}", "App", f"s{index}", STATS,
        pattern_counts={f"k{index}": (1, 0)}, trace_digest=f"d{index}",
    )
    wh.ingest_session(
        f"old-{tag}-{index}", "App", "s", STATS,
        pattern_counts={"k": (1, 0)}, trace_digest="d", ts=OLD_TS,
    )
    if index % 2:
        wh.prune(max_age_s=3600.0)
    else:
        wh.compact(older_than_s=3600.0)
    wh.aggregate()
    wh.top_patterns()
    wh.runs()


def _telemetry_round(wh: Warehouse, tag: str, index: int) -> None:
    """Publish one kept and one old flush, prune or compact, query."""
    now = time.time()
    wh.record_delta(f"keep-{tag}", {"counters": {"kept": 1}}, ts=now)
    wh.record_delta(
        f"old-{tag}", {"counters": {"old": 1}}, ts=now - 7 * 86400,
    )
    if index % 2:
        wh.prune(max_age_s=86400.0)
    else:
        wh.compact(older_than_s=86400.0)
    wh.runs()
    wh.totals()
    wh.series("kept")


def _worker(store: str, path: Path, worker: int, ready_dir: Path) -> int:
    """One process: THREADS threads of ROUNDS rounds each, after a
    start signal shared by every process. Prints the errors as JSON."""
    if store == "study":
        wh, one_round = StudyWarehouse(path), _study_round
    else:
        wh, one_round = Warehouse(path), _telemetry_round
    (ready_dir / f"ready-{worker}").touch()
    deadline = time.monotonic() + 30.0
    while not (ready_dir / "go").exists():
        if time.monotonic() > deadline:
            print(json.dumps(["no start signal"]))
            return 1
        time.sleep(0.005)
    errors: list = []

    def run(thread: int) -> None:
        try:
            for index in range(ROUNDS):
                one_round(wh, f"{worker}-{thread}", index)
        except Exception as error:  # reported to the parent process
            errors.append(repr(error))

    threads = [
        threading.Thread(target=run, args=(thread,))
        for thread in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(json.dumps(errors))
    return 1 if errors else 0


def _run_workers(store: str, path: Path, ready_dir: Path) -> list:
    """Start PROCESSES workers, release them together, gather errors."""
    ready_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [
                sys.executable, __file__, store, str(path), str(worker),
                str(ready_dir),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for worker in range(PROCESSES)
    ]
    errors: list = []
    try:
        deadline = time.monotonic() + 60.0
        while len(list(ready_dir.glob("ready-*"))) < PROCESSES:
            assert time.monotonic() < deadline, "workers never got ready"
            assert all(proc.poll() is None for proc in procs)
            time.sleep(0.01)
        (ready_dir / "go").touch()
        for proc in procs:
            out, err = proc.communicate(timeout=120.0)
            assert "locked" not in err, err
            assert proc.returncode in (0, 1), err
            errors.extend(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return errors


def _kept_tags() -> list:
    return [
        f"{worker}-{thread}"
        for worker in range(PROCESSES) for thread in range(THREADS)
    ]


class TestCrossProcessContention:
    def test_study_warehouse(self, tmp_path):
        wh = StudyWarehouse(tmp_path / "study.sqlite")
        # Create the file first: the WAL switch of a file created by
        # two processes at once is the separate first-open race.
        wh.schema_version()
        errors = _run_workers("study", wh.path, tmp_path / "ready")
        assert errors == []
        sessions = {
            record.run_id: record.sessions for record in wh.runs()
        }
        assert {
            tag: sessions.get(f"keep-{tag}") for tag in _kept_tags()
        } == {tag: ROUNDS for tag in _kept_tags()}
        kept = wh.top_patterns(
            n=1000, run_ids=[f"keep-{tag}" for tag in _kept_tags()],
        )
        assert sorted(
            (row.pattern_key, row.occurrences, row.sessions) for row in kept
        ) == sorted(
            (f"k{index}", len(_kept_tags()), len(_kept_tags()))
            for index in range(ROUNDS)
        )

    def test_telemetry_warehouse(self, tmp_path):
        wh = Warehouse(tmp_path / "metrics.db")
        wh.schema_version()
        errors = _run_workers("telemetry", wh.path, tmp_path / "ready")
        assert errors == []
        assert wh.totals().get("kept") == float(len(_kept_tags()) * ROUNDS)
        flushes = {run["run_id"]: run["flushes"] for run in wh.runs()}
        assert {
            tag: flushes.get(f"keep-{tag}") for tag in _kept_tags()
        } == {tag: ROUNDS for tag in _kept_tags()}


if __name__ == "__main__":
    sys.exit(_worker(
        sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]),
    ))
