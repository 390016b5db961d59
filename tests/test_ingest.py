"""The ingest service: protocol, daemon, client, incremental parity.

Covers the wire-level failure modes (truncated frames, bad version
bytes, oversized batches), the flow-control contract (backpressure
nacks, idempotent redelivery, zero loss through END), durability on
mid-stream disconnects, the chaos behaviour under ``ingest.*`` fault
sites, the acceptance-critical property that incremental-mode
summaries are byte-identical to a one-shot analysis of the same
records, and that compacting a session from its live store stores
exactly what compacting it from its spool would.
"""

from __future__ import annotations

import gc
import io
import pickle
import socket
import sqlite3
import struct
import threading
import time
import warnings
import weakref

import pytest

from helpers import dispatch, gui_sample, listener_iv, make_trace
from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.store.facade import FacadeTrace
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults import runtime as faults_runtime
from repro.ingest import (
    IncrementalSessionAnalyzer,
    IngestServer,
    SessionSpool,
    TraceClient,
)
from repro.ingest import protocol
from repro.lila.source import build_store, open_source
from repro.lila.writer import trace_to_lines
from repro.obs import Observer
from repro.obs import runtime as obs_runtime
from repro.warehouse.store import StudyWarehouse


def sample_lines(offset_ms: float = 0.0, session: str = "s0"):
    """A small, fully-featured trace as LiLa text lines."""
    roots = [
        dispatch(offset_ms + 0, offset_ms + 150,
                 [listener_iv("com.example.A.run", offset_ms + 0,
                              offset_ms + 140)]),
        dispatch(offset_ms + 200, offset_ms + 250,
                 [listener_iv("com.example.B.run", offset_ms + 200,
                              offset_ms + 240)]),
        dispatch(offset_ms + 300, offset_ms + 320),
    ]
    samples = [gui_sample(offset_ms + 50.0), gui_sample(offset_ms + 210.0)]
    trace = make_trace(roots, samples=samples)
    trace.metadata.session_id = session
    return trace_to_lines(trace)


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class RawConnection:
    """A hand-driven protocol connection for wire-level tests."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")

    def hello(self, session="raw", application="RawApp"):
        protocol.write_frame(
            self.wfile, protocol.T_HELLO, 0,
            protocol.encode_hello(session, application),
        )
        return protocol.read_frame(self.rfile)

    def send(self, frame_type, seq, payload=b""):
        protocol.write_frame(self.wfile, frame_type, seq, payload)
        return protocol.read_frame(self.rfile)

    def close(self):
        for closer in (self.rfile, self.wfile, self.sock):
            try:
                closer.close()
            except OSError:
                pass


@pytest.fixture
def server(tmp_path):
    with IngestServer(spool_dir=tmp_path / "spools") as srv:
        yield srv


# ----------------------------------------------------------------------
# Protocol codecs
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        buffer = io.BytesIO()
        protocol.write_frame(buffer, protocol.T_BATCH, 7, b"payload")
        buffer.seek(0)
        frame = protocol.read_frame(buffer)
        assert (frame.type, frame.seq, frame.payload) == (
            protocol.T_BATCH, 7, b"payload",
        )
        assert protocol.read_frame(buffer) is None  # clean EOF

    def test_truncated_header_raises(self):
        buffer = io.BytesIO(b"\x01\x02")
        with pytest.raises(protocol.ProtocolError, match="truncated frame header"):
            protocol.read_frame(buffer)

    def test_truncated_payload_raises(self):
        buffer = io.BytesIO()
        protocol.write_frame(buffer, protocol.T_BATCH, 1, b"full payload")
        data = buffer.getvalue()[:-4]
        with pytest.raises(protocol.ProtocolError, match="truncated frame"):
            protocol.read_frame(io.BytesIO(data))

    def test_bad_version_byte_raises(self):
        header = struct.pack("!BBII", 99, protocol.T_BATCH, 1, 0)
        with pytest.raises(
            protocol.ProtocolError, match="unsupported protocol version 99"
        ):
            protocol.read_frame(io.BytesIO(header))

    def test_oversized_frame_drained_and_connection_usable(self):
        buffer = io.BytesIO()
        protocol.write_frame(buffer, protocol.T_BATCH, 3, b"x" * 2048)
        protocol.write_frame(buffer, protocol.T_END, 4)
        buffer.seek(0)
        with pytest.raises(protocol.FrameTooLarge) as excinfo:
            protocol.read_frame(buffer, max_payload=1024)
        assert excinfo.value.seq == 3
        follower = protocol.read_frame(buffer, max_payload=1024)
        assert (follower.type, follower.seq) == (protocol.T_END, 4)

    def test_batch_codec_round_trip(self):
        lines = ["#%lila", "M application App", "T AWT-EventQueue-0"]
        assert protocol.decode_batch(protocol.encode_batch(lines)) == lines
        assert protocol.decode_batch(protocol.encode_batch([])) == []

    def test_batch_codec_rejects_damage(self):
        payload = protocol.encode_batch(["a", "b"])
        with pytest.raises(protocol.ProtocolError, match="not valid gzip"):
            protocol.decode_batch(payload[:4] + b"garbage")
        wrong_count = struct.pack("!I", 9) + payload[4:]
        with pytest.raises(protocol.ProtocolError, match="declared 9"):
            protocol.decode_batch(wrong_count)

    def test_hello_and_nack_codecs(self):
        assert protocol.decode_hello(
            protocol.encode_hello("s-1", "App")
        ) == ("s-1", "App")
        with pytest.raises(protocol.ProtocolError, match="non-empty"):
            protocol.decode_hello(protocol.encode_hello(""))
        assert protocol.decode_nack(
            protocol.encode_nack(250, "backpressure: full")
        ) == (250, "backpressure: full")


# ----------------------------------------------------------------------
# Daemon wire behaviour
# ----------------------------------------------------------------------


class TestServerWire:
    def test_bad_version_byte_answered_with_error(self, server):
        conn = RawConnection(server.address)
        try:
            conn.wfile.write(struct.pack("!BBII", 9, protocol.T_HELLO, 0, 0))
            conn.wfile.flush()
            reply = protocol.read_frame(conn.rfile)
            assert reply is not None and reply.type == protocol.T_ERROR
            assert b"unsupported protocol version" in reply.payload
        finally:
            conn.close()

    def test_truncated_frame_answered_with_error(self, server):
        conn = RawConnection(server.address)
        try:
            assert conn.hello().type == protocol.T_ACK
            conn.wfile.write(b"\x01\x02\x03")  # half a header, then EOF
            conn.wfile.flush()
            conn.sock.shutdown(socket.SHUT_WR)
            reply = protocol.read_frame(conn.rfile)
            assert reply is not None and reply.type == protocol.T_ERROR
            assert b"truncated" in reply.payload
        finally:
            conn.close()

    def test_first_frame_must_be_hello(self, server):
        conn = RawConnection(server.address)
        try:
            reply = conn.send(protocol.T_BATCH, 1, protocol.encode_batch(["x"]))
            assert reply.type == protocol.T_ERROR
            assert b"HELLO" in reply.payload
        finally:
            conn.close()

    def test_oversized_batch_nacked_connection_survives(self, tmp_path):
        with IngestServer(
            spool_dir=tmp_path / "spools", max_payload=1024
        ) as srv:
            conn = RawConnection(srv.address)
            try:
                assert conn.hello(session="big").type == protocol.T_ACK
                reply = conn.send(protocol.T_BATCH, 1, b"z" * 4096)
                assert reply.type == protocol.T_NACK
                _, reason = protocol.decode_nack(reply.payload)
                assert reason.startswith("oversized")
                # The same connection still accepts a well-sized batch.
                lines = sample_lines(session="big")
                reply = conn.send(
                    protocol.T_BATCH, 2, protocol.encode_batch(lines)
                )
                assert reply.type == protocol.T_ACK
                assert conn.send(protocol.T_END, 3).type == protocol.T_ACK
                state = srv.sessions()[0]
                assert state.records_flushed == len(lines)
            finally:
                conn.close()

    def test_duplicate_seq_acked_but_spooled_once(self, server):
        lines = sample_lines(session="dup")
        conn = RawConnection(server.address)
        try:
            assert conn.hello(session="dup").type == protocol.T_ACK
            payload = protocol.encode_batch(lines)
            assert conn.send(protocol.T_BATCH, 1, payload).type == protocol.T_ACK
            # Redelivery of an accepted seq: acked again, not re-spooled.
            assert conn.send(protocol.T_BATCH, 1, payload).type == protocol.T_ACK
            assert conn.send(protocol.T_END, 2).type == protocol.T_ACK
        finally:
            conn.close()
        state = server.sessions()[0]
        assert state.records_flushed == len(lines)
        assert state.spool.path.read_text().splitlines() == lines

    def test_undecodable_batch_nacked_permanently(self, server):
        conn = RawConnection(server.address)
        try:
            assert conn.hello(session="bad").type == protocol.T_ACK
            reply = conn.send(protocol.T_BATCH, 1, b"\x00\x00\x00\x02junk")
            assert reply.type == protocol.T_NACK
            _, reason = protocol.decode_nack(reply.payload)
            assert reason.startswith("bad-batch")
        finally:
            conn.close()

    def test_stopped_daemon_is_freed_without_a_cycle_collection(
        self, tmp_path
    ):
        """The socket server links back to the daemon weakly, so a
        started, used, stopped and dropped daemon is freed by reference
        counting alone."""
        gc.disable()
        try:
            srv = IngestServer(spool_dir=tmp_path / "spools").start()
            conn = RawConnection(srv.address)
            try:
                assert conn.hello(session="gone").type == protocol.T_ACK
                assert conn.send(protocol.T_END, 1).type == protocol.T_ACK
            finally:
                conn.close()
            srv.stop()
            ref = weakref.ref(srv)
            del srv
            assert ref() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Durability and flow control
# ----------------------------------------------------------------------


class TestDurability:
    def test_mid_stream_disconnect_leaves_spool_readable(self, server):
        lines = sample_lines(session="gone")
        conn = RawConnection(server.address)
        assert conn.hello(session="gone", application="App").type == protocol.T_ACK
        reply = conn.send(
            protocol.T_BATCH, 1, protocol.encode_batch(lines)
        )
        assert reply.type == protocol.T_ACK
        conn.close()  # vanish without END
        state = server.sessions()[0]
        assert wait_until(lambda: state.records_flushed == len(lines))
        store = build_store(open_source(state.spool.path))
        assert store.metadata.session_id == "gone"
        assert state.spool.path.read_text().splitlines() == lines

    def test_client_round_trip_zero_loss(self, server):
        lines = sample_lines(session="c0")
        with TraceClient(
            server.address, session="c0", application="App", batch_records=5
        ) as client:
            client.extend(lines)
        assert client.records_sent == len(lines)
        assert client.dropped_records == 0
        state = server.sessions()[0]
        assert state.ended
        assert state.spool.path.read_text().splitlines() == lines

    def test_concurrent_sessions_zero_loss(self, tmp_path):
        import threading

        with IngestServer(
            spool_dir=tmp_path / "spools", queue_limit=2
        ) as srv:
            per_session = {}

            def ship(index: int) -> None:
                session = f"s{index}"
                lines = sample_lines(session=session)
                per_session[session] = lines
                with TraceClient(
                    srv.address, session=session, batch_records=3
                ) as client:
                    client.extend(lines)

            threads = [
                threading.Thread(target=ship, args=(i,)) for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            states = {s.session: s for s in srv.sessions()}
            assert len(states) == 12
            for session, lines in per_session.items():
                assert states[session].ended
                spooled = states[session].spool.path.read_text().splitlines()
                assert spooled == lines

    def test_client_drop_mode_counts_overflow(self, tmp_path):
        # A plan that nacks every delivery of every frame: with
        # max_retries bounded and overflow="drop", the client sheds
        # load gracefully and counts every shed record.
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind="task_error", site="ingest.frame",
                      probability=1.0, times=None),
        ))
        lines = sample_lines(session="shed")
        with faults_runtime.installed(FaultInjector(plan)):
            with IngestServer(spool_dir=tmp_path / "spools") as srv:
                client = TraceClient(
                    srv.address, session="shed", batch_records=4,
                    max_pending_batches=2, overflow="drop", max_retries=2,
                )
                client.extend(lines)
                client.close()
        assert client.records_sent == 0
        assert client.dropped_records == len(lines)
        assert client.dropped_batches > 0
        assert client.nacks_received > 0


# ----------------------------------------------------------------------
# Chaos: the ingest.* fault sites
# ----------------------------------------------------------------------


class TestIngestChaos:
    def test_transient_frame_fault_recovers_on_redelivery(self, tmp_path):
        # times=1 (the transient default): the first delivery of seq 1
        # is nacked, the client's redelivery is accepted. Zero loss.
        plan = FaultPlan(seed=11, rules=(
            FaultRule(kind="task_error", site="ingest.frame",
                      at=("chaos/1", "chaos/3")),
        ))
        lines = sample_lines(session="chaos")
        with faults_runtime.installed(FaultInjector(plan)):
            with IngestServer(spool_dir=tmp_path / "spools") as srv:
                with TraceClient(
                    srv.address, session="chaos", batch_records=5
                ) as client:
                    client.extend(lines)
                state = srv.sessions()[0]
                assert state.ended
                spooled = state.spool.path.read_text().splitlines()
        assert spooled == lines
        assert client.nacks_received >= 2
        assert client.records_sent == len(lines)
        assert client.dropped_records == 0

    def test_transient_flush_fault_retried_next_cycle(self, tmp_path):
        plan = FaultPlan(seed=5, rules=(
            FaultRule(kind="task_error", site="ingest.flush",
                      probability=1.0),  # times=1: first flush fails
        ))
        lines = sample_lines(session="fl")
        with faults_runtime.installed(FaultInjector(plan)):
            with IngestServer(spool_dir=tmp_path / "spools") as srv:
                with TraceClient(
                    srv.address, session="fl", batch_records=50
                ) as client:
                    client.extend(lines)
                state = srv.sessions()[0]
                assert state.flush_attempts >= 1  # the injected failure
                assert state.ended                # ...and full recovery
                assert state.spool.path.read_text().splitlines() == lines
        assert client.dropped_records == 0


# ----------------------------------------------------------------------
# Incremental analysis parity
# ----------------------------------------------------------------------


class TestIncrementalParity:
    def test_rolling_summary_advances_per_episode(self):
        analyzer = IncrementalSessionAnalyzer(config=AnalysisConfig())
        lines = sample_lines(session="inc")
        seen = []
        for line in lines:
            for _episode in analyzer.push_line(line):
                seen.append(analyzer.rolling_summary()["episodes"])
        assert seen == [1, 2, 3]
        summary = analyzer.rolling_summary()
        assert summary["perceptible_episodes"] == 1
        assert summary["distinct_patterns"] == 2
        assert summary["covered_episodes"] == 2
        assert summary["unstructured_episodes"] == 1

    def test_summaries_byte_identical_to_one_shot(self, tmp_path):
        lines = sample_lines(session="parity")
        config = AnalysisConfig()

        analyzer = IncrementalSessionAnalyzer(config=config)
        analyzer.push_lines(lines)
        incremental = analyzer.summaries()

        path = tmp_path / "parity.lila"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        one_shot = LagAlyzer(
            [FacadeTrace(build_store(open_source(path)))], config=config
        ).summaries()

        assert pickle.dumps(incremental) == pickle.dumps(one_shot)

    def test_daemon_incremental_mode_matches_one_shot(self, tmp_path):
        lines = sample_lines(session="live")
        with IngestServer(
            spool_dir=tmp_path / "spools", incremental=True
        ) as srv:
            with TraceClient(
                srv.address, session="live", batch_records=4
            ) as client:
                client.extend(lines)
            state = srv.sessions()[0]
            rolling = srv.rolling_summaries()["live"]
            assert rolling["episodes"] == 3
            incremental = state.analyzer.summaries()
            spool_path = state.spool.path
        one_shot = LagAlyzer(
            [FacadeTrace(build_store(open_source(spool_path)))]
        ).summaries()
        assert pickle.dumps(incremental) == pickle.dumps(one_shot)

    def test_damaged_record_stops_analyzer_not_spool(self, tmp_path):
        lines = sample_lines(session="dmg")
        lines.insert(len(lines) - 1, "Z bogus record")
        with IngestServer(
            spool_dir=tmp_path / "spools", incremental=True
        ) as srv:
            with TraceClient(srv.address, session="dmg") as client:
                client.extend(lines)
            state = srv.sessions()[0]
            assert state.ended
            assert state.analyzer is None
            assert "unknown record type" in (state.analyzer_error or "") or (
                state.analyzer_error
            )
            # The spool still holds every acked record verbatim.
            assert state.spool.path.read_text().splitlines() == lines


# ----------------------------------------------------------------------
# Compaction source: live store or spool
# ----------------------------------------------------------------------


def warehouse_rows(path):
    """Every ``sessions``/``patterns``/``causes`` row, minus ``ingested_ts``."""
    connection = sqlite3.connect(str(path))
    connection.row_factory = sqlite3.Row
    try:
        tables = {}
        for table in ("sessions", "patterns", "causes"):
            rows = []
            for row in connection.execute(f"SELECT * FROM {table}"):
                row = dict(row)
                row.pop("ingested_ts", None)
                rows.append(tuple(sorted(row.items())))
            tables[table] = sorted(rows)
        return tables
    finally:
        connection.close()


def spool_reference(tmp_path, states, run_id):
    """What parsing each session's spool stores: rows and ``.lilac`` bytes."""
    reference = StudyWarehouse(tmp_path / "reference.sqlite")
    columns = tmp_path / "reference-columns"
    columns.mkdir()
    for state in states:
        reference.ingest_spool(
            state.spool.path, run_id, AnalysisConfig(),
            session_id=state.session,
            column_file=columns / f"{state.session}.lilac",
        )
    return warehouse_rows(reference.path), {
        path.name: path.read_bytes() for path in columns.iterdir()
    }


class CompactionRun:
    """An incremental daemon with a study warehouse, under an observer."""

    def __init__(self, tmp_path, run_id="r"):
        self.tmp_path = tmp_path
        self.run_id = run_id
        self.observer = Observer()
        self.warehouse_path = tmp_path / "wh.sqlite"
        self.column_dir = tmp_path / "columns"
        self.server = IngestServer(
            spool_dir=tmp_path / "spools",
            incremental=True,
            study_warehouse=self.warehouse_path,
            column_dir=self.column_dir,
            run_id=run_id,
        )

    def __enter__(self):
        self._installed = obs_runtime.installed(self.observer)
        self._installed.__enter__()
        self.server.start()
        return self

    def __exit__(self, *exc_info):
        try:
            self.server.stop()
        finally:
            self._installed.__exit__(*exc_info)
        return False

    def stream(self, session, lines, application="App", batch_records=5):
        with TraceClient(
            self.server.address, session=session,
            application=application, batch_records=batch_records,
        ) as client:
            client.extend(lines)
        assert client.dropped_records == 0

    def state(self, session):
        return {s.session: s for s in self.server.sessions()}[session]

    def sources(self):
        """``session -> [source, ...]`` over every compaction so far."""
        seen = {}
        for span in self.observer.spans():
            if span.name == "warehouse.compact_session":
                seen.setdefault(span.attrs["session"], []).append(
                    span.attrs["source"]
                )
        return seen

    def reparsed(self):
        return self.observer.metrics.counter_value(
            "ingest.server.compact_reparsed"
        )

    def lilac(self):
        return {
            path.name: path.read_bytes()
            for path in self.column_dir.iterdir()
        }


class TestCompactionSource:
    def test_live_store_compaction_equals_spool_compaction(self, tmp_path):
        from repro.apps.sessions import simulate_session

        apps = ("CrosswordSage", "JMol", "Euclide")
        sessions = {
            f"{app}-0": (app, trace_to_lines(simulate_session(app, scale=0.03)))
            for app in apps
        }
        names = sorted(sessions)
        run = CompactionRun(tmp_path)
        with run:
            def ship(items):
                for session in items:
                    app, lines = sessions[session]
                    run.stream(session, lines, app, batch_records=64)

            threads = [
                threading.Thread(target=ship, args=(names[k::2],))
                for k in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            states = run.server.sessions()
        assert run.sources() == {name: ["live"] for name in names}
        assert run.reparsed() == 0

        rows = warehouse_rows(run.warehouse_path)
        reference_rows, reference_lilac = spool_reference(
            tmp_path, states, "r"
        )
        assert all(rows[table] for table in rows)
        assert rows == reference_rows
        assert run.lilac() == reference_lilac
        assert len(run.lilac()) == 3

        connection = sqlite3.connect(str(run.warehouse_path))
        try:
            stored = dict(connection.execute(
                "SELECT session_id, records FROM sessions"
            ))
            digests = dict(connection.execute(
                "SELECT session_id, trace_digest FROM sessions"
            ))
        finally:
            connection.close()
        for state in states:
            spooled = len(
                state.spool.path.read_text(encoding="utf-8").splitlines()
            )
            assert stored[state.session] == state.records_flushed == spooled
            assert stored[state.session] == len(sessions[state.session][1])
            assert digests[state.session]

    def test_transient_flush_fault_compacts_from_spool(self, tmp_path):
        plan = FaultPlan(seed=5, rules=(
            FaultRule(kind="task_error", site="ingest.flush",
                      probability=1.0),  # times=1: first flush fails
        ))
        run = CompactionRun(tmp_path)
        with faults_runtime.installed(FaultInjector(plan)):
            with run:
                run.stream("fl", sample_lines(session="fl"))
                state = run.state("fl")
                assert state.flush_attempts == 1
                assert state.analyzer is not None
        assert run.sources() == {"fl": ["spool"]}
        assert run.reparsed() == 1
        rows, lilac = spool_reference(tmp_path, [state], "r")
        assert warehouse_rows(run.warehouse_path) == rows
        assert run.lilac() == lilac

    def test_damaged_line_compacts_from_spool_and_warns(self, tmp_path):
        lines = sample_lines(session="dmg")
        lines.insert(len(lines) - 1, "Z bogus record")
        run = CompactionRun(tmp_path)
        with pytest.warns(RuntimeWarning) as caught:
            with run:
                run.stream("dmg", lines)
                state = run.state("dmg")
                assert state.analyzer is None
        messages = [str(w.message) for w in caught]
        assert any(
            "spool compaction failed for session 'dmg'" in message
            and "unknown record type" in message
            and message.endswith(f"spool kept at {state.spool.path}")
            for message in messages
        ), messages
        assert run.sources() == {"dmg": ["spool"]}
        assert run.reparsed() == 1
        assert warehouse_rows(run.warehouse_path)["sessions"] == []

    def test_unsealable_stream_warns_with_the_spool_message(self, tmp_path):
        # The last close never arrives: sealing the live store raises,
        # and the spool's parse reports the damage with its own path.
        lines = sample_lines(session="open")
        lines.remove("C 320000000")
        run = CompactionRun(tmp_path)
        with pytest.warns(RuntimeWarning) as caught:
            with run:
                run.stream("open", lines)
                state = run.state("open")
                assert state.analyzer is not None
        with pytest.raises(Exception) as parse_error:
            StudyWarehouse(tmp_path / "other.sqlite").ingest_spool(
                state.spool.path, "r", AnalysisConfig(), session_id="open",
            )
        expected = (
            f"spool compaction failed for session 'open': "
            f"{parse_error.value} — spool kept at {state.spool.path}"
        )
        assert expected in [str(w.message) for w in caught]
        assert run.sources() == {"open": ["spool"]}
        assert run.reparsed() == 1

    def test_carriage_return_line_compacts_from_spool(self, tmp_path):
        # The live feed reads a \r as part of the symbol; a text reader
        # of the spool takes it for a line end. The spool decides.
        lines = sample_lines(session="cr")
        index = lines.index("O 0 listener com.example.A.run")
        lines[index] = "O 0 listener com.example.A\rrun"
        run = CompactionRun(tmp_path)
        with pytest.warns(RuntimeWarning) as caught:
            with run:
                run.stream("cr", lines)
                state = run.state("cr")
                assert state.analyzer is not None
                assert state.spool.carriage_return
        messages = [str(w.message) for w in caught]
        assert any(
            "spool compaction failed for session 'cr'" in message
            and "unknown record type 'run'" in message
            for message in messages
        ), messages
        assert run.sources() == {"cr": ["spool"]}
        assert run.reparsed() == 1

    def test_preexisting_spool_compacts_from_spool(self, tmp_path):
        from repro.ingest.spool import spool_name

        spools = tmp_path / "spools"
        spools.mkdir()
        (spools / spool_name("pre", "App")).write_text(
            "#%lila 1\n# left by an earlier daemon\n", encoding="utf-8"
        )
        lines = sample_lines(session="pre")
        run = CompactionRun(tmp_path)
        with run:
            run.stream("pre", lines)
            state = run.state("pre")
        assert run.sources() == {"pre": ["spool"]}
        assert run.reparsed() == 1
        [row] = warehouse_rows(run.warehouse_path)["sessions"]
        # The spool's two older lines count: the spool is the truth.
        assert dict(row)["records"] == len(lines) + 2
        assert state.records_flushed == len(lines)

    def test_spool_edited_after_flush_compacts_from_spool(self, tmp_path):
        run = CompactionRun(tmp_path)
        with run:
            for session in ("good", "bad"):
                run.stream(session, sample_lines(session=session))
            run.state("bad").spool.path.write_text(
                "#%lila 1\nthis is not a lila record\n", encoding="utf-8"
            )
            with pytest.warns(
                RuntimeWarning,
                match="spool compaction failed for session 'bad'",
            ):
                counts = run.server.compact_spools()
            assert counts == {"ingested": 1, "skipped": 0, "failed": 1}
            # Detach so shutdown does not re-compact what we just pinned.
            run.server.study_warehouse = None
        assert run.sources() == {"good": ["live"], "bad": ["spool"]}
        assert run.reparsed() == 1
        sessions = warehouse_rows(run.warehouse_path)["sessions"]
        assert [dict(row)["session_id"] for row in sessions] == ["good"]

    def test_mid_session_compaction_never_seals_the_analyzer(self, tmp_path):
        lines = sample_lines(session="mid")
        # The prefix through the first dispatch's close is a whole trace.
        cut = lines.index("C 150000000") + 1
        run = CompactionRun(tmp_path)
        with run:
            client = TraceClient(
                run.server.address, session="mid", batch_records=5
            )
            client.extend(lines[:cut])
            client.flush()

            def flushed_prefix():
                sessions = run.server.sessions()
                return bool(sessions) and sessions[0].records_flushed == cut

            assert wait_until(flushed_prefix)
            state = run.state("mid")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run.server.compact_spools() == {
                    "ingested": 1, "skipped": 0, "failed": 0,
                }
            client.extend(lines[cut:])
            client.close()
            assert client.dropped_records == 0
            assert state.analyzer is not None
            assert state.analyzer_error is None
            assert state.analyzer.lines_fed == len(lines)
            assert state.analyzer.rolling_summary()["episodes"] == 3
        assert run.sources() == {"mid": ["spool", "live"]}
        assert run.reparsed() == 1
        [row] = warehouse_rows(run.warehouse_path)["sessions"]
        assert dict(row)["records"] == len(lines)
        rows, lilac = spool_reference(tmp_path, [state], "r")
        assert warehouse_rows(run.warehouse_path) == rows
        assert run.lilac() == lilac


# ----------------------------------------------------------------------
# Spool
# ----------------------------------------------------------------------


class TestSpool:
    def test_hostile_session_id_cannot_escape_directory(self, tmp_path):
        spool = SessionSpool(tmp_path, "../../etc/passwd", "Evil App")
        assert spool.path.parent == tmp_path
        assert spool.path.name == "Evil_App-etc_passwd.lila"
        assert "/" not in spool.path.name and ".." not in spool.path.name

    def test_append_is_durable_and_counted(self, tmp_path):
        spool = SessionSpool(tmp_path, "s1", "App")
        with spool:
            assert spool.append(["#%lila", "M application App"]) == 2
            assert spool.append([]) == 0
        assert spool.lines_written == 2
        assert spool.path.read_text() == "#%lila\nM application App\n"

    def test_intact_until_the_file_changes_under_it(self, tmp_path):
        spool = SessionSpool(tmp_path, "s1", "App")
        assert not spool.intact()  # nothing written, no file
        with spool:
            spool.append(["#%lila 1", "M application App"])
            assert spool.intact()
        spool.append(["M session_id s1"])  # reopens and keeps counting
        assert spool.intact()
        with open(spool.path, "a", encoding="utf-8") as handle:
            handle.write("# appended from outside\n")
        assert not spool.intact()
        spool.close()

    def test_preexisting_or_carriage_return_spool_is_not_intact(
        self, tmp_path
    ):
        old = SessionSpool(tmp_path, "old", "App")
        old.path.write_text("#%lila 1\n", encoding="utf-8")
        with old:
            old.append(["M application App"])
        assert not old.intact()
        with SessionSpool(tmp_path, "cr", "App") as spool:
            spool.append(["#%lila 1", "M application A\rpp"])
        assert not spool.intact()
