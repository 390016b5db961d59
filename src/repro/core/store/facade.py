"""The lazy Trace facade and column↔object materialization.

:class:`FacadeTrace` keeps the classic ``Trace``/``Episode``/``Interval``
API alive over a :class:`~repro.core.store.columns.ColumnarTrace`
without building the object graph up front; :func:`to_trace` and
:func:`canonical_lines` are the materialization and serialization halves
that back it (both bit-identical to the pre-columnar reader/writer;
serialization goes through the materialized trace).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.intervals import Interval
from repro.core.samples import Sample, ThreadSample
from repro.core.store.columns import ColumnarTrace, _KINDS, _STATES
from repro.core.trace import Trace

# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------


def canonical_lines(store: ColumnarTrace) -> List[str]:
    """The canonical text serialization:
    :func:`repro.lila.writer.trace_to_lines` over the materialized
    trace. The content digest does not go through it —
    :func:`repro.lila.digest.trace_digest` hashes the columns directly."""
    from repro.lila.writer import trace_to_lines

    return trace_to_lines(to_trace(store))


# ----------------------------------------------------------------------
# Materialization (the facade's backing)
# ----------------------------------------------------------------------


def to_trace(store: ColumnarTrace) -> Trace:
    """Materialize the classic object model from the columns.

    The result is exactly what the pre-columnar reader produced:
    same tree shapes, same thread order, same samples.
    """
    thread_roots: Dict[str, List[Interval]] = {}
    for columns in store.threads:
        nodes: List[Interval] = []
        roots: List[Interval] = []
        kind = columns.kind
        start = columns.start
        end = columns.end
        symbol = columns.symbol
        parent = columns.parent
        strings = store.strings
        for row in range(len(columns)):
            node = Interval(
                _KINDS[kind[row]],
                strings[symbol[row]],
                start[row],
                end[row],
            )
            nodes.append(node)
            parent_row = parent[row]
            if parent_row < 0:
                roots.append(node)
            else:
                parent_node = nodes[parent_row]
                parent_node.children.append(node)
                node.parent = parent_node
        thread_roots[columns.name] = roots

    samples: List[Sample] = []
    strings = store.strings
    stacks = store.stacks
    for tick in range(len(store.sample_ts)):
        entries = [
            ThreadSample(
                strings[store.entry_thread[entry]],
                _STATES[store.entry_state[entry]],
                stacks[store.entry_stack[entry]],
            )
            for entry in range(store.sample_offsets[tick],
                               store.sample_offsets[tick + 1])
        ]
        samples.append(Sample(store.sample_ts[tick], entries))

    return Trace(
        store.metadata,
        thread_roots,
        samples=samples,
        short_episode_count=store.short_episode_count,
    )


class FacadeTrace(Trace):
    """A :class:`Trace` whose object graph is built only on demand.

    Construction stores just the columnar store and the metadata; the
    first access to ``thread_roots``, ``samples``, ``episodes``, or the
    per-thread episode table materializes the classic object model via
    :meth:`ColumnarTrace.to_trace` and caches it on the instance.
    Analyses that understand the columnar store (everything in
    :mod:`repro.core.analyses`) never trigger materialization.
    """

    _LAZY = frozenset(
        ("thread_roots", "samples", "episodes", "_episodes_by_thread")
    )

    def __init__(self, store: ColumnarTrace) -> None:
        # Deliberately not calling Trace.__init__: the whole point is
        # to defer building interval/sample objects.
        self.columnar = store
        self.metadata = store.metadata
        self.short_episode_count = store.short_episode_count

    def __getattr__(self, name: str) -> Any:
        if name in FacadeTrace._LAZY:
            materialized = self.columnar.to_trace()
            self.__dict__["thread_roots"] = materialized.thread_roots
            self.__dict__["samples"] = materialized.samples
            self.__dict__["episodes"] = materialized.episodes
            self.__dict__["_episodes_by_thread"] = (
                materialized._episodes_by_thread
            )
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def is_materialized(self) -> bool:
        """True once the object graph has been built."""
        return "thread_roots" in self.__dict__

    def __reduce__(self) -> tuple:
        return (
            _restore_facade,
            (self.columnar, getattr(self, "_content_digest", None)),
        )

    def __repr__(self) -> str:
        state = "materialized" if self.is_materialized else "columnar"
        return (
            f"FacadeTrace({self.metadata.application!r}, "
            f"{self.columnar.interval_count} intervals, {state})"
        )


def _restore_facade(
    store: ColumnarTrace, digest: Optional[str]
) -> FacadeTrace:
    trace = FacadeTrace(store)
    if digest is not None:
        trace._content_digest = digest
    return trace


def as_columnar(
    trace: Trace,
    interns: Optional[Any] = None,
    stack_interns: Optional[Any] = None,
) -> Trace:
    """``trace`` as a columnar-backed facade (no-op when it already is).

    Used by the study runner so simulated traces ship to workers as
    compact columns, with the memoized content digest carried over.
    ``interns``/``stack_interns`` (:class:`InternTable`) let one study
    run share its string and stack tables across every trace it
    columnarizes — ids are store-internal, so sharing never changes
    what any store serializes (or pickles) to.
    """
    if getattr(trace, "columnar", None) is not None:
        return trace
    store = ColumnarTrace.from_trace(
        trace, interns=interns, stack_interns=stack_interns
    )
    facade = FacadeTrace(store)
    digest = getattr(trace, "_content_digest", None)
    if digest is not None:
        facade._content_digest = digest
    return facade
