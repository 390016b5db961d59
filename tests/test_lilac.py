"""The ``.lilac`` mmap column file: format, faults, CLI, and plumbing.

Structural coverage for the zero-copy column file that
``tests/test_columnar_parity.py`` pins semantically: write/open round
trips, digest adoption and the version gate, pickling of file-backed
stores, the ``lila.mmap`` fault site, the ``convert`` CLI, and the
ingest-side column-file plumbing (``ingest_spool(column_file=)`` and
``IngestServer(column_dir=)``).
"""

from __future__ import annotations

import pickle

import pytest

from repro.cli import main
from repro.core.analyzer import AnalysisConfig
from repro.core.errors import TraceFormatError
from repro.lila.autodetect import detect_format, load_trace
from repro.lila.colfile import (
    open_column_store,
    open_column_trace,
    write_column_file,
)
from repro.lila.digest import trace_digest
from repro.lila.source import TextTraceSource, build_store
from repro.lila.writer import write_trace

from helpers import dispatch, gc_iv, gui_sample, listener_iv, make_trace


@pytest.fixture()
def trace_path(tmp_path):
    roots = [
        dispatch(0.0, 50.0, [listener_iv("a.A.m", 0.0, 49.0)]),
        gc_iv(60.0, 80.0),
        dispatch(100.0, 280.0, [listener_iv("b.B.m", 100.0, 279.0)]),
        dispatch(400.0, 420.0),
    ]
    samples = [gui_sample(t) for t in (10.0, 40.0, 70.0, 150.0, 410.0)]
    trace = make_trace(roots, samples=samples, e2e_ms=1000.0, short_count=9)
    return write_trace(trace, tmp_path / "t.lila")


@pytest.fixture()
def column_path(trace_path, tmp_path):
    store = build_store(TextTraceSource(trace_path))
    return write_column_file(store, tmp_path / "t.lilac")


class TestRoundTrip:
    def test_digest_survives_the_column_file(self, trace_path, column_path):
        original = load_trace(trace_path)
        mapped = open_column_trace(column_path)
        assert trace_digest(mapped) == trace_digest(original)

    def test_canonical_content_is_identical(self, trace_path, column_path):
        original = build_store(TextTraceSource(trace_path))
        mapped = open_column_store(column_path)
        assert mapped.canonical_lines() == original.canonical_lines()
        assert mapped.thread_order == original.thread_order
        assert mapped.interval_count == original.interval_count
        assert mapped.sample_count == original.sample_count

    def test_detect_format_sniffs_lilac(self, column_path):
        assert detect_format(column_path) == "lilac"

    def test_load_trace_autodetects_lilac(self, trace_path, column_path):
        assert len(load_trace(column_path).episodes) == len(
            load_trace(trace_path).episodes
        )

    def test_store_is_mmap_backed(self, column_path):
        store = open_column_store(column_path)
        assert store.backing is not None
        assert store.backing.nbytes == column_path.stat().st_size
        assert str(store.backing.path) == str(column_path)

    def test_analyses_match_the_text_path(self, trace_path, column_path):
        from repro.core.plan import build_plan

        config = AnalysisConfig(perceptible_threshold_ms=100.0)
        plan = build_plan(("statistics", "occurrence"))
        text_result = plan.execute(load_trace(trace_path), config)
        mapped_result = plan.execute(open_column_trace(column_path), config)
        assert pickle.dumps(sorted(text_result.items())) == pickle.dumps(
            sorted(mapped_result.items())
        )


class TestHeaderDigest:
    def test_writing_an_unstorable_symbol_raises(self, trace_path, tmp_path):
        store = build_store(TextTraceSource(trace_path))
        store.threads[0].symbol[0] = store.interns.intern("has;separator")
        with pytest.raises(TraceFormatError, match="forbidden character"):
            write_column_file(store, tmp_path / "bad.lilac")
        assert not (tmp_path / "bad.lilac").exists()

    def test_version_1_file_is_refused(self, column_path):
        """Version-1 headers carry the old text digest; they must not
        key the cache, so opening one fails typed."""
        data = bytearray(column_path.read_bytes())
        data[4:6] = (1).to_bytes(2, "little")
        column_path.write_bytes(bytes(data))
        with pytest.raises(
            TraceFormatError, match="unsupported column file version 1"
        ):
            open_column_store(column_path)


class TestPickling:
    def test_file_backed_store_pickles_as_its_path(self, column_path):
        trace = open_column_trace(column_path)
        shipped = pickle.dumps(trace)
        # The columns never travel: a file-backed facade pickles to a
        # couple hundred bytes regardless of trace size.
        assert len(shipped) < 4 * column_path.stat().st_size
        assert str(column_path.name).encode() in shipped
        revived = pickle.loads(shipped)
        assert trace_digest(revived) == trace_digest(trace)
        assert revived.columnar.backing is not None

    def test_unpickling_a_deleted_column_file_is_typed(self, column_path):
        shipped = pickle.dumps(open_column_trace(column_path))
        column_path.unlink()
        with pytest.raises(TraceFormatError):
            pickle.loads(shipped)


class TestFaultSite:
    def test_mmap_error_fault_fires_typed(self, column_path):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, FaultRule
        from repro.faults import runtime as faults_runtime

        plan = FaultPlan(seed=7, rules=(
            FaultRule(kind="mmap_error", at=(column_path.name,)),
        ))
        with faults_runtime.installed(FaultInjector(plan)):
            with pytest.raises(TraceFormatError):
                open_column_store(column_path)

    def test_engine_quarantines_an_unreadable_column_file(
        self, column_path, tmp_path
    ):
        from repro.engine.engine import AnalysisEngine

        cut = tmp_path / "cut.lilac"
        cut.write_bytes(column_path.read_bytes()[:24])
        engine = AnalysisEngine(workers=1, use_cache=False)
        traces = engine.load_traces(
            [column_path, cut], on_error="quarantine"
        )
        assert len(traces) == 1
        assert trace_digest(traces[0]) == trace_digest(
            open_column_trace(column_path)
        )
        assert len(engine.quarantined) == 1
        assert engine.quarantined[0].session_id == "cut.lilac"
        assert "truncated" in engine.quarantined[0].error


class TestConvertCli:
    def test_convert_to_lilac_and_back(self, trace_path, tmp_path, capsys):
        out = tmp_path / "c.lilac"
        assert main([
            "convert", str(trace_path), "--to", "lilac", "-o", str(out)
        ]) == 0
        assert detect_format(out) == "lilac"
        back = tmp_path / "back.lila"
        assert main([
            "convert", str(out), "--to", "text", "-o", str(back)
        ]) == 0
        assert trace_digest(load_trace(back)) == trace_digest(
            load_trace(trace_path)
        )
        assert "wrote" in capsys.readouterr().out

    def test_convert_default_output_swaps_suffix(self, trace_path, capsys):
        assert main(["convert", str(trace_path), "--to", "lilac"]) == 0
        assert trace_path.with_suffix(".lilac").exists()

    def test_convert_unreadable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lila"
        bad.write_bytes(b"not a trace at all")
        assert main(["convert", str(bad), "--to", "lilac"]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_convert_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.lilac"
        assert main(["convert", str(missing), "--to", "text"]) == 2

    def test_convert_refuses_overwriting_input(self, trace_path, capsys):
        assert main([
            "convert", str(trace_path), "--to", "text",
            "-o", str(trace_path),
        ]) == 1
        assert "refusing" in capsys.readouterr().err


class TestIngestPlumbing:
    def test_ingest_spool_writes_and_uses_a_column_file(
        self, trace_path, tmp_path
    ):
        from repro.warehouse import StudyWarehouse

        column_file = tmp_path / "columns" / "s.lilac"
        column_file.parent.mkdir()
        warehouse = StudyWarehouse(tmp_path / "wh.sqlite")
        warehouse.record_run("run-a", source="test")
        changed = warehouse.ingest_spool(
            trace_path, "run-a", AnalysisConfig(),
            session_id="s", column_file=column_file,
        )
        assert changed is True
        assert detect_format(column_file) == "lilac"
        # The stored row matches a plain (no column file) ingestion.
        warehouse_plain = StudyWarehouse(tmp_path / "wh2.sqlite")
        warehouse_plain.record_run("run-a", source="test")
        assert warehouse_plain.ingest_spool(
            trace_path, "run-a", AnalysisConfig(), session_id="s"
        ) is True
        assert warehouse.aggregate() == warehouse_plain.aggregate()
        assert warehouse.top_patterns(5) == warehouse_plain.top_patterns(5)

    def test_server_compaction_fills_the_column_dir(self, tmp_path):
        from repro.ingest.client import TraceClient
        from repro.ingest.server import IngestServer
        from repro.lila.writer import trace_to_lines
        from repro.apps.sessions import simulate_session

        lines = trace_to_lines(
            simulate_session("CrosswordSage", scale=0.05)
        )
        column_dir = tmp_path / "columns"
        with IngestServer(
            spool_dir=tmp_path / "spools",
            study_warehouse=tmp_path / "wh.sqlite",
            column_dir=column_dir,
        ) as server:
            with TraceClient(
                server.address, session="sess-1",
                application="CrosswordSage", batch_records=64,
            ) as client:
                client.extend(lines)
            outcome = server.compact_spools()
        assert outcome["ingested"] == 1
        assert detect_format(column_dir / "sess-1.lilac") == "lilac"
