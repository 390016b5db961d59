"""The three workloads of the benchmark: ``study``, ``analyze`` and ``ingest``.

Each workload generates its inputs from the seed in :meth:`setup`, then
runs whole passes through the program's public API in :meth:`run_pass`.
A pass returns the intervals it timed plus the number of operations it
attempted and how many of them failed a correctness check.
``install_spans`` puts the benchmark's wrappers around the public
functions of every layer the workload crosses; the runner calls it only
for traced passes.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import shutil
import sqlite3
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spans import Tracer

#: Workload sizes. ``full`` is the benchmark of record; ``tiny`` keeps
#: the smoke test to a few seconds.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "study": {"apps": None, "sessions": 1, "scale": 0.3, "warmup_scale": 0.1, "min_passes": 2},
        "analyze": {"apps": None, "sessions": 2, "scale": 0.3, "min_passes": 1},
        "ingest": {
            "apps": None,
            "scale": 0.15,
            "connections": 2,
            "fleet_sessions": 1000,
            "fleet_runs": 8,
            "dashboard_passes": 13,
            # 2 passes keep a run near its --seconds; the session p90 has
            # ten beyond it from 8 passes (112 sessions), --seconds 60.
            "min_passes": 2,
        },
    },
    "tiny": {
        "study": {
            "apps": ("CrosswordSage", "JMol"), "sessions": 1, "scale": 0.02, "warmup_scale": 0.02,
        },
        "analyze": {"apps": ("CrosswordSage", "JMol"), "sessions": 2, "scale": 0.02, "min_passes": 2},
        "ingest": {
            "apps": ("CrosswordSage", "JMol"),
            "scale": 0.02,
            "connections": 2,
            "fleet_sessions": 40,
            "fleet_runs": 2,
            "dashboard_passes": 3,
            "min_passes": 2,
        },
    },
}


@dataclass
class PassResult:
    """What one pass measured and checked.

    ``intervals`` maps a name to raw ``(start, end)`` pairs of
    :func:`time.perf_counter`; ``"pass"`` is the whole timed pass.
    """

    intervals: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Process CPU seconds of the timed pass, all threads.
    cpu_s: float = 0.0
    _cpu_started: float = 0.0

    def begin(self) -> float:
        """Start the timed pass; returns its start on :func:`time.perf_counter`."""
        self._cpu_started = time.process_time()
        return time.perf_counter()

    def finish(self, started: float) -> None:
        """End the timed pass that :meth:`begin` started at ``started``."""
        self.timed("pass", started)
        self.cpu_s = time.process_time() - self._cpu_started

    def timed(self, name: str, started: float) -> float:
        """Record ``name`` as running from ``started`` until now; returns now."""
        now = time.perf_counter()
        self.intervals.setdefault(name, []).append((started, now))
        return now

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _app_names(size: Dict[str, Any]) -> Tuple[str, ...]:
    from repro.apps.catalog import APPLICATION_NAMES

    return tuple(size["apps"] or APPLICATION_NAMES)


def check_golden(root: Path) -> Optional[str]:
    """The golden corpus must still analyze to its checked-in summary.

    Reads ``tests/golden`` and writes nothing there. Returns a problem
    description, or None when the summary matches byte for byte.
    """
    import json

    from repro.core.analyzer import AnalysisConfig, LagAlyzer
    from repro.core.export import analysis_to_dict

    golden = root / "tests" / "golden"
    paths = sorted(golden.glob("CrosswordSage-session-*.lila"))
    if not paths:
        return f"golden corpus missing under {golden}"
    analyzer = LagAlyzer.load(
        paths, config=AnalysisConfig(perceptible_threshold_ms=100.0)
    )
    text = json.dumps(analysis_to_dict(analyzer), indent=2, sort_keys=True) + "\n"
    expected = (golden / "expected_summary.json").read_text(encoding="utf-8")
    if text != expected:
        return "golden corpus summary differs from expected_summary.json"
    return None


# ----------------------------------------------------------------------
# Wrappers shared by the workloads
# ----------------------------------------------------------------------


def _store_rows(trace: Any) -> int:
    store = getattr(trace, "columnar", trace)
    return store.interval_count + store.sample_count


def _wrap_plan_and_reduce(tracer: Tracer) -> None:
    from repro.core.analyses import REGISTRY
    from repro.core.plan import AnalysisPlan

    def episodes(partials: Dict[str, Any], args: tuple, kwargs: dict) -> None:
        stats = partials.get("statistics")
        if stats is not None:
            tracer.count("plan.episodes", int(getattr(stats, "traced", 0)))

    tracer.wrap(AnalysisPlan, "execute", "plan.map", after=episodes)
    wrapped = set()
    for analysis in REGISTRY.values():
        owner = next(
            klass for klass in type(analysis).__mro__ if "reduce" in vars(klass)
        )
        if owner not in wrapped:
            wrapped.add(owner)
            tracer.wrap(owner, "reduce", "engine.reduce")


def _wrap_digest(tracer: Tracer) -> None:
    import repro.engine.engine as engine_module
    import repro.lila.digest as digest_module

    tracer.wrap(digest_module, "trace_digest", "lila.digest")
    tracer.wrap(engine_module, "trace_digest", "lila.digest")


def _wrap_store_build(tracer: Tracer) -> None:
    import repro.lila.source as source_module

    def rows(store: Any, args: tuple, kwargs: dict) -> None:
        tracer.count("store.rows", _store_rows(store))

    tracer.wrap(source_module, "build_store", "store.build", after=rows)
    tracer.wrap_generator(source_module.TextTraceSource, "records", "lila.parse_text")
    tracer.wrap_generator(source_module.BinaryTraceSource, "records", "lila.parse_binary")


# ----------------------------------------------------------------------
# study
# ----------------------------------------------------------------------


class StudyWorkload:
    """``lagalyzer study -o out`` with the result cache bypassed.

    The only workload with the simulator (``repro.vm``/``repro.apps``)
    and columnarization on the timed path. ``use_cache=False``, so a
    change to the engine cache should leave it unchanged.
    """

    name = "study"

    def __init__(self, seed: int, size: Dict[str, Any], workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.apps = _app_names(size)

    def setup(self) -> None:
        from repro.study.runner import StudyConfig, run_study

        self.config = StudyConfig(
            seed=self.seed,
            sessions=self.size["sessions"],
            scale=self.size["scale"],
            applications=self.apps,
        )
        # The study simulates its inputs inside the timed pass, so its
        # set-up is an untimed warm-up study that imports and runs the
        # whole pipeline once.
        warmup = dataclasses.replace(self.config, scale=self.size["warmup_scale"])
        self._render(run_study(warmup, workers=1, use_cache=False), self.workdir / "warmup")
        shutil.rmtree(self.workdir / "warmup")

    def install_spans(self, tracer: Tracer) -> None:
        import repro.study.runner as runner

        def rows(trace: Any, args: tuple, kwargs: dict) -> None:
            count = _store_rows(trace)
            tracer.count("store.rows", count)
            tracer.count("vm.records", count)

        tracer.wrap(runner, "simulate_sessions", "vm.simulate")
        tracer.wrap(runner, "as_columnar", "store.columnarize", after=rows)
        _wrap_plan_and_reduce(tracer)
        _wrap_digest(tracer)

    @staticmethod
    def _render(result: Any, outdir: Path) -> List[Path]:
        from repro.study.html import write_html_report
        from repro.study.report import render_figures, write_experiments_md

        figures = render_figures(result, outdir)
        write_html_report(result, outdir / "report.html")
        write_experiments_md(result, outdir / "EXPERIMENTS.md")
        return figures

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        from repro.study.runner import run_study

        outdir = self.workdir / f"study-{index}"
        outdir.mkdir(parents=True)
        outcome = PassResult()
        started = outcome.begin()
        result = run_study(self.config, workers=1, use_cache=False)
        if tracer is None:
            figures = self._render(result, outdir)
        else:
            with tracer.span("study.render"):
                figures = self._render(result, outdir)
        outcome.finish(started)

        for app in self.apps:
            outcome.check(app in result.apps, f"study: {app} missing from the result")
        quarantined = sorted(result.quarantined)
        outcome.check(not quarantined, f"study: quarantined sessions in {quarantined}")
        outcome.check(
            len(figures) > 0 and (outdir / "report.html").is_file(),
            "study: report not written",
        )
        outcome.counts["viz.svg_bytes"] = sum(path.stat().st_size for path in figures)
        shutil.rmtree(outdir)
        return outcome


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


class AnalyzeWorkload:
    """Load trace files and summarize them through the engine cache.

    Session 0 of each app is written as ``.lila`` text, session 1 as
    ``.lilb`` binary. A pass loads every app and summarizes it twice:
    cold, into a fresh cache directory, then warm, over the same cache.
    No simulator runs on the timed path.
    """

    name = "analyze"

    def __init__(self, seed: int, size: Dict[str, Any], workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.apps = _app_names(size)

    def setup(self) -> None:
        from repro.apps.sessions import simulate_sessions
        from repro.core.analyzer import LagAlyzer
        from repro.lila.binary import write_trace_binary
        from repro.lila.writer import write_trace

        inputs = self.workdir / "analyze-inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        self.files: Dict[str, List[Path]] = {}
        self.reference: Dict[str, bytes] = {}
        for app in self.apps:
            traces = simulate_sessions(
                app, count=self.size["sessions"], seed=self.seed, scale=self.size["scale"]
            )
            self.files[app] = [
                write_trace(trace, inputs / f"{app}-session-{index}.lila")
                if index % 2 == 0
                else write_trace_binary(trace, inputs / f"{app}-session-{index}.lilb")
                for index, trace in enumerate(traces)
            ]
            self.reference[app] = pickle.dumps(LagAlyzer.from_traces(traces).summaries())

    def install_spans(self, tracer: Tracer) -> None:
        import repro.lila.autodetect as autodetect
        from repro.engine.cache import ResultCache

        def load_name(path: Any) -> str:
            return "lila.load_binary" if str(path).endswith(".lilb") else "lila.load_text"

        def read_bytes(trace: Any, args: tuple, kwargs: dict) -> None:
            tracer.count("lila.bytes_read", Path(args[0]).stat().st_size)

        tracer.wrap(autodetect, "load_trace", load_name, after=read_bytes)
        _wrap_store_build(tracer)
        _wrap_digest(tracer)
        _wrap_plan_and_reduce(tracer)
        for attr in ("get", "get_bundle"):
            tracer.wrap(ResultCache, attr, "engine.cache_get")
        for attr in ("put", "put_bundle"):
            tracer.wrap(ResultCache, attr, "engine.cache_put")

    def _summarize(self, engine: Any, outcome: PassResult, label: str) -> int:
        """Load and summarize every app, timing each; returns the records read."""
        from repro.core.analyses import REGISTRY
        from repro.core.analyzer import LagAlyzer

        records = 0
        for app in self.apps:
            started = time.perf_counter()
            analyzer = LagAlyzer.load(self.files[app], workers=1)
            summaries = engine.summarize_all(tuple(REGISTRY), analyzer.traces, analyzer.config)
            outcome.timed(label, started)
            records += sum(_store_rows(trace) for trace in analyzer.traces)
            outcome.check(
                pickle.dumps(summaries) == self.reference[app],
                f"analyze: {label} summaries of {app} differ from the reference",
            )
        return records

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        from repro.engine.engine import AnalysisEngine

        cache_dir = self.workdir / f"cache-{index}"
        cold_engine = AnalysisEngine(workers=1, cache_dir=cache_dir)
        warm_engine = AnalysisEngine(workers=1, cache_dir=cache_dir)
        outcome = PassResult()
        started = outcome.begin()
        records = self._summarize(cold_engine, outcome, "cold")
        self._summarize(warm_engine, outcome, "warm")
        outcome.finish(started)

        hits = lookups = 0
        for engine in (cold_engine, warm_engine):
            stats = engine.cache.stats
            hits += stats.hits + stats.bundle_hits
            lookups += stats.hits + stats.misses + stats.bundle_hits + stats.bundle_misses
        outcome.counts = {
            "records": records,
            "engine.cache_hits": hits,
            "engine.cache_lookups": lookups,
            "engine.cache_bytes": cold_engine.cache.total_bytes()
            + cold_engine.cache.bundle_bytes(),
        }
        shutil.rmtree(cache_dir)
        return outcome


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

#: Application names of the synthetic fleet (the same list the
#: warehouse micro-benchmark fabricates its sessions from).
FLEET_APPLICATIONS = (
    "ArgoUML", "CrosswordSage", "Euclide", "FreeMind", "GanttProject",
    "jEdit", "JFreeChart", "JHotDraw", "JMol", "Jomic",
    "LAoE", "NetBeans", "SweetHome3D", "Zeus",
)


def synthetic_session(rng: random.Random, app: str) -> Tuple[Any, Dict[str, Tuple[int, int]]]:
    """One plausible Table III row plus its pattern tallies.

    The same generator as ``benchmarks/bench_warehouse.py``, kept here
    so an edit to that script cannot change this benchmark's inputs.
    """
    from repro.core.statistics import SessionStats

    traced = rng.randint(40, 400)
    perceptible = rng.randint(0, traced // 4)
    stats = SessionStats(
        application=app,
        e2e_s=rng.uniform(300.0, 1800.0),
        in_episode_pct=rng.uniform(2.0, 40.0),
        below_filter=float(rng.randint(0, 2000)),
        traced=float(traced),
        perceptible=float(perceptible),
        long_per_min=rng.uniform(0.0, 6.0),
        distinct_patterns=float(rng.randint(5, 60)),
        covered_episodes=float(traced - rng.randint(0, traced // 5)),
        singleton_pct=rng.uniform(10.0, 90.0),
        mean_descendants=rng.uniform(1.0, 40.0),
        mean_depth=rng.uniform(1.0, 8.0),
    )
    counts: Dict[str, Tuple[int, int]] = {}
    for _ in range(rng.randint(4, 16)):
        key = f"d(l{rng.randint(0, 199)}(p{rng.randint(0, 9)}))"
        count = rng.randint(1, 20)
        counts[key] = (count, rng.randint(0, count))
    return stats, counts


class IngestWorkload:
    """Live sessions into the daemon, compaction into a populated warehouse.

    Each pass streams every app's session over ``connections`` client
    connections into an incremental :class:`IngestServer`, stops it
    (which compacts the spools through ``.lilac`` files into the study
    warehouse), then runs the dashboard query mix. The warehouse starts
    every pass as a copy of the same pre-filled fleet. No study code
    runs.
    """

    name = "ingest"

    def __init__(self, seed: int, size: Dict[str, Any], workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.apps = _app_names(size)

    def setup(self) -> None:
        from repro.apps.sessions import simulate_sessions
        from repro.lila.writer import trace_to_lines
        from repro.warehouse.store import StudyWarehouse

        self.sessions: List[Tuple[str, List[str]]] = [
            (
                app,
                trace_to_lines(
                    simulate_sessions(app, count=1, seed=self.seed, scale=self.size["scale"])[0]
                ),
            )
            for app in self.apps
        ]
        self.fleet = self.workdir / "fleet.sqlite"
        for stale in self.workdir.glob("fleet.sqlite*"):
            stale.unlink()
        warehouse = StudyWarehouse(self.fleet)
        rng = random.Random(self.seed)
        runs = self.size["fleet_runs"]
        self.fleet_runs = [f"run-{index}" for index in range(runs)]
        for index in range(self.size["fleet_sessions"]):
            app = FLEET_APPLICATIONS[index % len(FLEET_APPLICATIONS)]
            stats, counts = synthetic_session(rng, app)
            warehouse.ingest_session(
                self.fleet_runs[index % runs], app, f"s{index}", stats,
                pattern_counts=counts,
                trace_digest=f"digest-{index}",
                ts=1_000_000.0 + index * 60.0,
            )

    def install_spans(self, tracer: Tracer) -> None:
        import repro.lila.colfile as colfile
        from repro.ingest.client import TraceClient
        from repro.ingest.server import IngestServer
        from repro.warehouse.store import StudyWarehouse

        def rows(changed: bool, args: tuple, kwargs: dict) -> None:
            if changed:
                tracer.count(
                    "warehouse.rows_written",
                    1 + len(kwargs.get("pattern_counts") or {}) + len(kwargs.get("causes") or {}),
                )

        tracer.wrap(TraceClient, "extend", "ingest.send")
        tracer.wrap(TraceClient, "close", "ingest.ack_wait")
        tracer.wrap(IngestServer, "stop", "ingest.stop")
        tracer.wrap(StudyWarehouse, "ingest_spool", "warehouse.compact")
        tracer.wrap(StudyWarehouse, "ingest_trace", "warehouse.ingest_trace")
        tracer.wrap(StudyWarehouse, "ingest_session", "warehouse.write", after=rows)
        tracer.wrap(colfile, "write_column_file", "lila.colfile_write")
        tracer.wrap(colfile, "open_column_trace", "lila.colfile_open")
        _wrap_store_build(tracer)
        _wrap_digest(tracer)
        _wrap_plan_and_reduce(tracer)

    def _stream(self, server: Any, index: int, outcome: PassResult) -> List[Any]:
        from repro.ingest.client import TraceClient

        connections = self.size["connections"]
        clients: List[Any] = []
        errors: List[str] = []
        lock = threading.Lock()

        def connection(items: Sequence[Tuple[str, List[str]]]) -> None:
            for app, lines in items:
                started = time.perf_counter()
                client = TraceClient(server.address, session=f"{app}-{index}", application=app)
                try:
                    client.extend(lines)
                    client.close()
                except Exception as error:  # counted as a failed operation
                    with lock:
                        errors.append(f"ingest: {app} stream failed: {error!r}")
                with lock:
                    clients.append(client)
                    outcome.timed("session", started)

        threads = [
            threading.Thread(target=connection, args=(self.sessions[k::connections],))
            for k in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for error in errors:
            outcome.check(False, error)
        return clients

    def _dashboard(
        self, warehouse: Any, live: str, outcome: PassResult, tracer: Optional[Tracer]
    ) -> None:
        queries = {
            "top": lambda: warehouse.top_patterns(n=10),
            "aggregate": warehouse.aggregate,
            "regression": lambda: warehouse.regression(self.fleet_runs, [live]),
            "series": lambda: warehouse.series(bucket="day"),
            "diff": lambda: warehouse.diff(self.fleet_runs[0], live),
        }
        for _ in range(self.size["dashboard_passes"]):
            started = time.perf_counter()
            for name, query in queries.items():
                query_started = time.perf_counter()
                try:
                    if tracer is None:
                        answer = query()
                    else:
                        with tracer.span(f"warehouse.query_{name}"):
                            answer = query()
                    ok, problem = answer is not None, f"ingest: {name} query returned nothing"
                except Exception as error:  # a failed query is a counted failure
                    ok, problem = False, f"ingest: {name} query raised {error!r}"
                outcome.timed(f"query_{name}", query_started)
                outcome.check(ok, problem)
            outcome.timed("dashboard", started)

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        from repro.ingest.server import IngestServer
        from repro.warehouse.store import StudyWarehouse

        cycle = self.workdir / f"ingest-{index}"
        cycle.mkdir(parents=True)
        warehouse_path = cycle / "warehouse.sqlite"
        shutil.copyfile(self.fleet, warehouse_path)
        live = f"live-{index}"
        server = IngestServer(
            cycle / "spool",
            incremental=True,
            study_warehouse=warehouse_path,
            column_dir=cycle / "columns",
            run_id=live,
        ).start()
        outcome = PassResult()
        started = outcome.begin()
        try:
            clients = self._stream(server, index, outcome)
        finally:
            streamed = outcome.timed("stream", started)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                server.stop()
        outcome.timed("stop", streamed)
        self._dashboard(StudyWarehouse(warehouse_path), live, outcome, tracer)
        outcome.finish(started)

        sent = {f"{app}-{index}": len(lines) for app, lines in self.sessions}
        acked = sum(client.records_sent for client in clients)
        failures = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        outcome.check(not failures, f"ingest: compaction warned: {failures}")
        for client in clients:
            outcome.check(
                client.dropped_records == 0,
                f"ingest: {client.session} dropped {client.dropped_records} records",
            )
        connection = sqlite3.connect(str(warehouse_path))
        try:
            stored = dict(
                connection.execute(
                    "SELECT session_id, records FROM sessions WHERE run_id = ?", (live,)
                ).fetchall()
            )
        finally:
            connection.close()
        for session, lines in sent.items():
            outcome.check(
                stored.get(session) == lines,
                f"ingest: warehouse holds {stored.get(session)} records of {session}, sent {lines}",
            )
        stats = server.stats()
        outcome.counts = {
            "acked": acked,
            "ingest.nacks": sum(client.nacks_received for client in clients),
            "ingest.retries": sum(client.retries for client in clients),
            "ingest.batches_sent": sum(client.batches_sent for client in clients),
            "ingest.records_flushed": stats["records_flushed"],
            "warehouse.write_failures": len(failures),
        }
        shutil.rmtree(cycle)
        return outcome


WORKLOADS = {
    workload.name: workload for workload in (StudyWorkload, AnalyzeWorkload, IngestWorkload)
}
