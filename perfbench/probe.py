"""A machine-speed probe that turns wall-clock intervals into steady times.

On a few cores of a shared host the speed a pure-Python program gets
changes by a third or more from one second to the next, as other
tenants load the caches, memory bus and sibling hardware threads; the
process is not descheduled, so its CPU time drifts with its wall time.
The probe measures that speed while the program runs: a timer signal
interrupts the main thread every :data:`INTERVAL_S` seconds and runs a
fixed reference computation, recording the CPU time it took. CPU time,
not wall time: while the program's other threads hold the interpreter
lock the probe waits without working, and that wait is the program's.

For an interval of the program, :meth:`SpeedProbe.nominal_seconds`
(wall time) and :meth:`SpeedProbe.nominal_cpu_seconds` (process CPU
time) remove the probe's own time and divide the rest by how much
slower than nominal the reference ran inside that interval. The result is the
interval's time on a machine of nominal speed, one on which the
reference takes :data:`NOMINAL_S`: work the program adds or removes
still shows in full, while the host's drift largely cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List, Optional, Tuple

#: Seconds between two probes.
INTERVAL_S = 0.1
#: The reference computation's CPU time on a machine of nominal speed;
#: a 2-core share of a busy x86 host under CPython 3.11 typically
#: takes about this long.
NOMINAL_S = 0.002


def reference() -> int:
    """Fixed pure-Python work: integer arithmetic, a small dict's updates,
    and formatting numbers into one string.

    Of the kernels tried, this mix's two halves tracked the study pass's
    slowdown on a shared host best: over 24 passes the normalized times
    spread 3.7 %
    (distance between quartiles over the median) where wall times spread
    15.5 %. Kernels that read or allocate over megabytes tracked worse,
    since the program leaves them a different cache each time.
    """
    counts: dict = {}
    total = 0
    for index in range(7500):
        counts[index & 255] = total
        total += index * 31 % 7
    text = "".join([f"<rect x='{index}' y='{index * 2.5:.1f}'/>" for index in range(1200)])
    return total + len(text)


class SpeedProbe:
    """Times :func:`reference` on a timer signal while it is entered.

    Must be entered from the main thread, which is the thread Python
    runs signal handlers in.
    """

    def __init__(self) -> None:
        #: ``(start, end, cpu_s)`` of every probe: wall clock in
        #: :func:`time.perf_counter`, and the CPU seconds it took.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous: Any = None

    def _probe(self, signum: Optional[int] = None, frame: Any = None) -> None:
        started, cpu = time.perf_counter(), time.thread_time()
        reference()
        self.samples.append((started, time.perf_counter(), time.thread_time() - cpu))

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, interval: Optional[Tuple[float, float]] = None) -> float:
        """Mean probe time over :data:`NOMINAL_S`, inside ``interval`` if given.

        An interval too short to hold a probe gets the run's mean.
        """
        inside = self._inside(interval) if interval is not None else []
        return statistics.fmean(cpu for _, _, cpu in inside or self.samples) / NOMINAL_S

    def nominal_seconds(self, interval: Tuple[float, float]) -> float:
        """``interval``'s time without the probes, at nominal machine speed."""
        start, end = interval
        probed = sum(cpu for _, _, cpu in self._inside(interval))
        return (end - start - probed) / self.slowdown(interval)

    def nominal_cpu_seconds(self, interval: Tuple[float, float], cpu_s: float) -> float:
        """``cpu_s``, the process CPU time spent in ``interval``, without
        the probes', at nominal machine speed."""
        probed = sum(cpu for _, _, cpu in self._inside(interval))
        return (cpu_s - probed) / self.slowdown(interval)

    def _inside(self, interval: Tuple[float, float]) -> List[Tuple[float, float, float]]:
        start, end = interval
        return [sample for sample in self.samples if start <= sample[0] and sample[1] <= end]
