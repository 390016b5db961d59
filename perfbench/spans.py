"""In-memory spans recorded by the benchmark around calls into each layer.

The program under test is not modified. In a traced pass the benchmark
replaces a layer's public functions (at the module attribute or class
attribute callers look them up through) with wrappers that open a span
around each call and record counts at the same boundary. The originals
are put back when the pass ends, so untraced passes run the program's
own code with nothing in between.

A layer's self time is its span's duration minus the time its direct
child spans cover. Spans nest per thread; the ingest client's sender
threads and the daemon's handler threads each keep their own stack.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("span_id", "parent_id", "name", "thread", "start", "end", "child_s")

    def __init__(
        self, span_id: int, parent_id: Optional[int], name: str, thread: str, start: float
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration_s - self.child_s)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }


class Tracer:
    """Spans and counts of one traced run, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span = Span(
                self._next_id,
                stack[-1].span_id if stack else None,
                name,
                threading.current_thread().name,
                time.perf_counter(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration_s

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def add_child(self, name: str, seconds: float) -> None:
        """Record ``seconds`` spent in ``name`` inside the current span.

        Used for work that interleaves with its parent record by record
        (a reader's parse inside the store build that consumes it), where
        one span per record would cost more than the work it measures.
        """
        stack = self._stack()
        now = time.perf_counter()
        with self._lock:
            self._next_id += 1
            span = Span(
                self._next_id,
                stack[-1].span_id if stack else None,
                name,
                threading.current_thread().name,
                now - seconds,
            )
            span.end = now
            self.spans.append(span)
        if stack:
            stack[-1].child_s += seconds

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrapping public functions --------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> None:
        """Span every call of ``owner.attr`` until :meth:`unwrap_all`.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``after(result, args, kwargs)`` records counts.
        """
        stored = vars(owner).get(attr)
        function = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name(*args, **kwargs) if callable(name) else name
            with tracer.span(span_name):
                result = function(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        replacement = staticmethod(wrapper) if isinstance(stored, staticmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, stored))

    def wrap_generator(self, owner: type, attr: str, name: str) -> None:
        """Attribute the time spent producing each item of ``owner.attr()``.

        The consumer's own work between items stays with the consumer.
        """
        stored = vars(owner).get(attr)
        original = getattr(owner, attr)
        tracer = self

        def records(self_: Any) -> Iterator[Any]:
            clock = time.perf_counter
            inner = original(self_)
            spent = 0.0
            try:
                while True:
                    started = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        spent += clock() - started
                        return
                    spent += clock() - started
                    yield item
            finally:
                tracer.add_child(name, spent)

        setattr(owner, attr, records)
        self._patches.append((owner, attr, stored))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, stored = self._patches.pop()
            if stored is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, stored)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        install(self)
        try:
            yield self
        finally:
            self.unwrap_all()

    # -- results -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return dict(totals)

    def write(self, path: Path, stamp: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "stamp": stamp,
            "counts": dict(self.counts),
            "self_s": self.self_times(),
            "spans": [span.as_dict() for span in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
