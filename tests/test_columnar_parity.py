"""Text <-> binary <-> column-file ingestion parity over the golden corpus.

Every golden trace is read through all encodings — the text file as
checked in, a binary round-trip of it, and an mmap-backed ``.lilac``
column file — and the paths must be indistinguishable: identical
columnar content (canonical lines and content digest) and identical
results from every registered analysis under several configurations.
The digest legs pin the column digest equal across every
representation (lines, object traces, byte orders, pickles, shared
intern tables, hash seeds) and sensitive to every content field.
Another leg compares the columnar fast path against the materialized
object path, so a drift in either the column kernels or the object
algorithms breaks the bond here. The engine legs pin mmap-vs-in-memory
and sharded-vs-unsharded fan-outs byte-identical across worker pools
and with the numpy kernels on and off.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

import pytest

from repro.core.analyses import REGISTRY
from repro.core.api import AnalysisConfig, LagAlyzer
from repro.core.export import analysis_to_dict
from repro.engine.engine import AnalysisEngine
from repro.lila.binary import write_trace_binary
from repro.lila.colfile import open_column_trace, write_column_file
from repro.lila.digest import trace_digest
from repro.lila.source import (
    BinaryTraceSource,
    LinesTraceSource,
    TextTraceSource,
    build_store,
    build_trace,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: ``PARITY_FAMILY`` narrows the corpus to one workload family's traces
#: (the CI family matrix runs one leg per family); unset runs them all.
_FAMILY_APPS = {
    "gui": "CrosswordSage",
    "io_service": "OrderApi",
    "async_pipeline": "IndexBuilder",
}
_FAMILY = os.environ.get("PARITY_FAMILY", "")
if _FAMILY and _FAMILY not in _FAMILY_APPS:
    raise RuntimeError(
        f"PARITY_FAMILY={_FAMILY!r} is not one of {sorted(_FAMILY_APPS)}"
    )
GOLDEN_TRACES = sorted(
    path
    for path in GOLDEN_DIR.glob("*.lila")
    if not _FAMILY or path.stem.startswith(_FAMILY_APPS[_FAMILY])
)

CONFIGS = {
    "default": AnalysisConfig(perceptible_threshold_ms=100.0),
    "all-threads": AnalysisConfig(
        perceptible_threshold_ms=100.0, all_dispatch_threads=True
    ),
    "with-gc": AnalysisConfig(
        perceptible_threshold_ms=100.0, include_gc_in_patterns=True
    ),
    "low-threshold": AnalysisConfig(perceptible_threshold_ms=5.0),
}


def text_facade(path: Path):
    return build_trace(TextTraceSource(path))


def binary_facade(path: Path, tmp_path: Path):
    """The same trace after a lossless detour through ``.lilb``."""
    trace = text_facade(path)
    binary_path = write_trace_binary(trace, tmp_path / (path.stem + ".lilb"))
    return build_trace(BinaryTraceSource(binary_path))


@pytest.fixture(params=GOLDEN_TRACES, ids=lambda path: path.stem)
def golden_path(request):
    return request.param


def test_corpus_is_present():
    assert GOLDEN_TRACES, "tests/golden holds no .lila traces"


def test_binary_round_trip_is_columnar_identical(golden_path, tmp_path):
    text = text_facade(golden_path)
    binary = binary_facade(golden_path, tmp_path)
    assert text.columnar.interval_count == binary.columnar.interval_count
    assert text.columnar.sample_count == binary.columnar.sample_count
    assert text.columnar.thread_order == binary.columnar.thread_order
    assert text.columnar.canonical_lines() == binary.columnar.canonical_lines()
    assert trace_digest(text) == trace_digest(binary)
    # Parity was established without ever building the object graph.
    assert text.is_materialized is False
    assert binary.is_materialized is False


def summary_of(trace, config) -> dict:
    """Every analysis result of one trace, as comparable plain data."""
    return analysis_to_dict(LagAlyzer.from_traces([trace], config=config))


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_all_analyses_agree_across_encodings(
    golden_path, tmp_path, config_name
):
    config = CONFIGS[config_name]
    text = text_facade(golden_path)
    binary = binary_facade(golden_path, tmp_path)
    assert summary_of(text, config) == summary_of(binary, config), (
        f"analysis summaries drifted between encodings ({config_name})"
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_columnar_path_matches_object_path(golden_path, config_name):
    """The column kernels and the object algorithms are one semantics."""
    config = CONFIGS[config_name]
    fast = text_facade(golden_path)
    slow = text_facade(golden_path)
    slow.thread_roots  # force materialization...
    slow.columnar = None  # ...then hide the store from the dispatchers
    assert summary_of(fast, config) == summary_of(slow, config), (
        f"columnar and object analysis paths disagree ({config_name})"
    )


# ---------------------------------------------------------------------
# Zero-copy column file (.lilac) and intra-trace sharding parity
# ---------------------------------------------------------------------

#: ``REPRO_NUMPY`` values exercised ("1" is inert when numpy is absent,
#: so the leg degrades to a pure-Python re-run rather than skipping).
NUMPY_MODES = ("0", "1")

#: Engine worker settings: 0 = one worker per CPU (pool), 2 = two.
WORKER_MODES = (0, 2)


def lilac_facade(path: Path, tmp_path: Path):
    """The same trace served from an mmap-backed ``.lilac`` file."""
    store = build_store(TextTraceSource(path))
    column_path = write_column_file(store, tmp_path / (path.stem + ".lilac"))
    return open_column_trace(column_path)


@pytest.mark.parametrize("numpy_mode", NUMPY_MODES)
def test_column_file_round_trip_is_columnar_identical(
    golden_path, tmp_path, numpy_mode, monkeypatch
):
    monkeypatch.setenv("REPRO_NUMPY", numpy_mode)
    text = text_facade(golden_path)
    mapped = lilac_facade(golden_path, tmp_path)
    assert text.columnar.interval_count == mapped.columnar.interval_count
    assert text.columnar.sample_count == mapped.columnar.sample_count
    assert text.columnar.thread_order == mapped.columnar.thread_order
    assert text.columnar.canonical_lines() == mapped.columnar.canonical_lines()
    assert trace_digest(text) == trace_digest(mapped)
    assert mapped.columnar.backing is not None, (
        "column file opened into a copy, not an mmap view"
    )


def engine_summaries(trace, workers: int, shards: int = 1) -> bytes:
    """Every analysis summary from one engine fan-out, as pinned bytes."""
    engine = AnalysisEngine(workers=workers, use_cache=False, shards=shards)
    summaries = engine.summarize_all(
        tuple(REGISTRY), [trace], CONFIGS["default"]
    )
    return pickle.dumps(sorted(summaries.items()))


@pytest.mark.parametrize("workers", WORKER_MODES)
@pytest.mark.parametrize("numpy_mode", NUMPY_MODES)
def test_mmap_fanout_matches_in_memory(
    golden_path, tmp_path, workers, numpy_mode, monkeypatch
):
    """A file-backed store must fan out byte-identically to in-memory."""
    monkeypatch.setenv("REPRO_NUMPY", numpy_mode)
    in_memory = engine_summaries(text_facade(golden_path), workers)
    mapped = engine_summaries(lilac_facade(golden_path, tmp_path), workers)
    assert in_memory == mapped, (
        f"mmap-backed fan-out drifted (workers={workers}, "
        f"REPRO_NUMPY={numpy_mode})"
    )


@pytest.mark.parametrize("shards", (2, 3))
@pytest.mark.parametrize("workers", WORKER_MODES)
@pytest.mark.parametrize("numpy_mode", NUMPY_MODES)
def test_sharded_fanout_matches_unsharded(
    golden_path, tmp_path, shards, workers, numpy_mode, monkeypatch
):
    """Row-range shards must merge to the unsharded result, byte for byte."""
    monkeypatch.setenv("REPRO_NUMPY", numpy_mode)
    trace = lilac_facade(golden_path, tmp_path)
    whole = engine_summaries(trace, workers, shards=1)
    sharded = engine_summaries(trace, workers, shards=shards)
    assert whole == sharded, (
        f"sharded fan-out drifted (shards={shards}, workers={workers}, "
        f"REPRO_NUMPY={numpy_mode})"
    )


def test_truncated_column_file_is_typed(golden_path, tmp_path):
    """A cut-off ``.lilac`` raises TraceFormatError naming path+offset."""
    from repro.core.errors import TraceFormatError

    store = build_store(TextTraceSource(golden_path))
    column_path = write_column_file(store, tmp_path / "t.lilac")
    data = column_path.read_bytes()
    for keep in (0, 7, 16, len(data) // 2, len(data) - 9):
        cut = tmp_path / f"cut-{keep}.lilac"
        cut.write_bytes(data[:keep])
        with pytest.raises(TraceFormatError) as error:
            open_column_trace(cut)
        assert str(error.value.path) == str(cut), (
            f"error lost its file provenance: {error.value}"
        )
        assert error.value.offset is not None, (
            f"error lost its byte offset: {error.value}"
        )


def test_subtree_self_times_numpy_parity_synthetic(monkeypatch):
    """The masked per-episode range reduction behind the cause kernel
    is integer-exact across numpy modes, on both sides of the n>32
    crossover."""
    from array import array

    from repro.core.store import accel

    monkeypatch.setenv("REPRO_NUMPY", "1")
    np = accel.get_numpy()
    for n in (1, 2, 5, 32, 33, 200):
        start = array("q")
        end = array("q")
        parent = array("q")
        for k in range(n):
            start.append(1_000_000 + k * 10)
            end.append(1_000_000 + k * 10 + (n - k) * 7 + (k % 3))
            parent.append(-1 if k == 0 else (k - 1) // 2)
        accelerated = accel.subtree_self_times(np, start, end, parent, 0, n)
        reference = accel.subtree_self_times(None, start, end, parent, 0, n)
        assert list(accelerated) == list(reference), f"n={n}"
        assert all(isinstance(value, int) for value in accelerated)


def test_subtree_self_times_numpy_parity_golden(golden_path, monkeypatch):
    """Both modes agree on every real episode subtree of the corpus."""
    from repro.core.store import accel

    monkeypatch.setenv("REPRO_NUMPY", "1")
    np = accel.get_numpy()
    store = build_store(TextTraceSource(golden_path))
    checked = 0
    for columns in store.threads:
        parent = columns.parent
        size = columns.size
        for row in range(len(columns)):
            if parent[row] >= 0:
                continue
            n = size[row]
            accelerated = accel.subtree_self_times(
                np, columns.start, columns.end, parent, row, n
            )
            reference = accel.subtree_self_times(
                None, columns.start, columns.end, parent, row, n
            )
            assert list(accelerated) == list(reference), (
                f"{columns.name} row {row} (n={n})"
            )
            checked += 1
    assert checked, "corpus trace held no episode subtrees"


def test_garbled_column_file_is_typed(golden_path, tmp_path):
    """Flipped header/segment bytes raise TraceFormatError, never crash."""
    from repro.core.errors import TraceFormatError

    store = build_store(TextTraceSource(golden_path))
    column_path = write_column_file(store, tmp_path / "t.lilac")
    data = bytearray(column_path.read_bytes())
    for position in (0, 4, 6, 12, 40, 80):
        garbled = bytearray(data)
        garbled[position] ^= 0xFF
        bad = tmp_path / f"bad-{position}.lilac"
        bad.write_bytes(bytes(garbled))
        try:
            trace = open_column_trace(bad)
            # A flip the header CRC cannot see (e.g. inside a segment)
            # may still load; it must at least stay structurally sound.
            assert trace.columnar.interval_count == store.interval_count
        except TraceFormatError as error:
            assert str(error.path) == str(bad), (
                f"error lost its file provenance: {error}"
            )


# ---------------------------------------------------------------------
# Content digest: one value per content, whatever the representation
# ---------------------------------------------------------------------


def fresh_digest(trace) -> str:
    """``trace_digest`` recomputed from the columns (memos dropped), so
    a `.lilac` leg hashes its mapped columns instead of adopting the
    digest its header carries."""
    store = getattr(trace, "columnar", None) or trace
    store._content_digest = None
    trace._content_digest = None
    return trace_digest(trace)


def byteswapped_lilac_facade(path: Path, tmp_path: Path):
    """The same trace from the ``.lilac`` file a host of the other byte
    order would write: every column segment byteswapped and the
    byteorder flag flipped (it opens as an in-memory copy)."""
    import json
    import struct
    from array import array

    from repro.lila.colfile import _align8

    native = lilac_facade(path, tmp_path).columnar.backing.path
    data = bytearray(native.read_bytes())
    data[6] ^= 1
    header_len = struct.unpack_from("<I", data, 8)[0]
    header = json.loads(bytes(data[16:16 + header_len]))
    base = _align8(16 + header_len)
    for entry in header["segments"]:
        lo = base + entry["offset"]
        hi = lo + entry["nbytes"]
        column = array(entry["typecode"])
        column.frombytes(bytes(data[lo:hi]))
        column.byteswap()
        data[lo:hi] = column.tobytes()
    alien = tmp_path / (path.stem + "-swapped.lilac")
    alien.write_bytes(bytes(data))
    return open_column_trace(alien)


def shared_intern_facade(path: Path):
    """``path``'s trace columnarized on one study-wide intern table,
    after the rest of the corpus, so its string and stack ids differ
    from a per-trace build."""
    from repro.core.store.buffers import InternTable
    from repro.core.store.facade import as_columnar

    interns = InternTable()
    stack_interns = InternTable()
    others = [other for other in GOLDEN_DIR.glob("*.lila") if other != path]
    for other in sorted(others) + [path]:
        facade = as_columnar(
            text_facade(other).columnar.to_trace(),
            interns=interns,
            stack_interns=stack_interns,
        )
    return facade


#: Representations of one trace's content beyond text and binary
#: (pinned in ``test_binary_round_trip_is_columnar_identical``); each
#: must digest alike. "columnarize" is a plain object trace, which
#: ``trace_digest`` columnarizes itself.
DIGEST_LEGS = {
    "lines": lambda path, tmp: build_trace(
        LinesTraceSource(path.read_text(encoding="utf-8").splitlines())
    ),
    "columnarize": lambda path, tmp: text_facade(path).columnar.to_trace(),
    "lilac": lambda path, tmp: lilac_facade(path, tmp),
    "lilac-byteswapped": byteswapped_lilac_facade,
    "pickled-store": lambda path, tmp: pickle.loads(
        pickle.dumps(build_store(TextTraceSource(path)))
    ),
    "shared-interns": lambda path, tmp: shared_intern_facade(path),
}


@pytest.mark.parametrize("leg", sorted(DIGEST_LEGS))
def test_digest_is_identical_across_representations(
    golden_path, tmp_path, leg
):
    expected = trace_digest(text_facade(golden_path))
    trace = DIGEST_LEGS[leg](golden_path, tmp_path)
    if leg.startswith("lilac"):
        # The header carries the digest the file was written with...
        assert trace_digest(trace) == expected
        # ...and the mapped (or byteswap-copied) columns hash to it.
        expect_backed = leg == "lilac"
        assert (trace.columnar.backing is not None) == expect_backed
    assert fresh_digest(trace) == expected, f"{leg} digest drifted"


def _bump_start(store) -> None:
    store.threads[0].start[0] += 1


def _rename_symbol(store) -> None:
    columns = store.threads[0]
    columns.symbol[0] = store.interns.intern("digest.Probe.renamed")


def _change_kind(store) -> None:
    from repro.core.intervals import IntervalKind

    kind = store.threads[0].kind
    kind[0] = (kind[0] + 1) % len(IntervalKind)


def _change_nesting(store) -> None:
    store.threads[0].size[0] += 1


def _change_state(store) -> None:
    from repro.core.samples import ThreadState

    state = store.entry_state
    state[0] = (state[0] + 1) % len(ThreadState)


def _change_frame(store) -> None:
    from repro.core.samples import StackFrame, StackTrace

    stack_id = store.entry_stack[0]
    frames = list(store.stacks[stack_id].frames)
    frames[:1] = [StackFrame("digest.Probe", "swapped")]
    store.stacks[stack_id] = StackTrace(frames)


def _change_extra(store) -> None:
    meta = store.metadata
    meta.extra = dict(meta.extra, seed="0")


#: One-field edits; each must change the digest.
DIGEST_MUTATIONS = {
    "interval-start": _bump_start,
    "symbol": _rename_symbol,
    "kind": _change_kind,
    "nesting": _change_nesting,
    "sample-state": _change_state,
    "stack-frame": _change_frame,
    "metadata-extra": _change_extra,
}


@pytest.mark.parametrize("mutation", sorted(DIGEST_MUTATIONS))
def test_digest_changes_with_every_content_field(golden_path, mutation):
    def copy():
        store = build_store(TextTraceSource(golden_path))
        return pickle.loads(pickle.dumps(store))

    base, mutated = copy(), copy()
    DIGEST_MUTATIONS[mutation](mutated)
    assert trace_digest(base) != trace_digest(mutated), (
        f"digest blind to a {mutation} change"
    )


def test_digest_is_stable_across_hash_seeds():
    """No dict or set iteration order reaches the digest: the corpus
    digests the same, through text, columns and shared intern tables,
    under two ``PYTHONHASHSEED`` values."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.core.store.buffers import InternTable\n"
        "from repro.core.store.facade import as_columnar\n"
        "from repro.lila.digest import trace_digest\n"
        "from repro.lila.reader import read_trace\n"
        "interns, stacks = InternTable(), InternTable()\n"
        "for path in sorted(Path(sys.argv[1]).glob('*.lila')):\n"
        "    text = read_trace(path)\n"
        "    shared = as_columnar(text.columnar.to_trace(),\n"
        "                         interns=interns, stack_interns=stacks)\n"
        "    print(trace_digest(text), trace_digest(shared))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "12345"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))
            ),
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(GOLDEN_DIR)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    lines = outputs[0].split("\n")
    assert outputs[0] == outputs[1]
    assert all(len(set(line.split())) == 1 for line in lines if line)
    assert sum(1 for line in lines if line) == len(
        list(GOLDEN_DIR.glob("*.lila"))
    )


def test_unstorable_symbol_still_raises():
    """A symbol the text format cannot hold fails the digest, typed."""
    from repro.core.errors import TraceFormatError

    store = build_store(TextTraceSource(GOLDEN_TRACES[0]))
    store.threads[0].symbol[0] = store.interns.intern("bad symbol")
    with pytest.raises(TraceFormatError, match="forbidden character"):
        trace_digest(store)
