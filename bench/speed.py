"""Host-speed probe: a fixed pure-Python kernel timed while a process works.

The CPU speed this benchmark sees drifts between levels about 1.4x apart
over seconds to minutes (other tenants share the cores), and
``time.process_time`` drifts with it, so longer runs alone do not make
medians agree. A measured process therefore times a fixed kernel every
``INTERVAL`` seconds, from a timer signal, so the samples fall inside long
library calls too. Each measured duration, less the probe time inside it,
is scaled to the speed at which the kernel takes ``REFERENCE_S``::

    normalised = (measured - probe time) * REFERENCE_S / (mean kernel time)

The mean, not the median: the kernel's time is bimodal, and the mean
estimates the share of slow time. The kernel imitates the library's hot
loop (dict points, tuple edges, even-odd crossing, a nearest-vertex
distance) without importing oddkit, so no change to the program can change
it; it tracks the slow spells of object-heavy code far better than an
integer loop does.

The benchmark process probes its own passes. Child processes (the set-up
probes and, through ``childprobe/sitecustomize.py``, the CLI calls) probe
themselves and report their samples, because a probe says nothing about
another process.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time

REFERENCE_S = 0.004
INTERVAL = 0.25
_POLY = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.93), (0.5, 1.0), (0.0, 0.87))


def kernel(n: int = 1500) -> int:
    edges = list(zip(_POLY, _POLY[1:] + _POLY[:1]))
    points = [{"x": (i * 0.618) % 1.2 - 0.1, "y": (i * 0.382) % 1.2 - 0.1} for i in range(n)]
    hits = 0
    for p in points:
        x, y = p["x"], p["y"]
        inside = False
        for (x1, y1), (x2, y2) in edges:
            if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
                inside = not inside
        near = min(math.hypot(x - vx, y - vy) for vx, vy in _POLY)
        hits += inside and near > 0.01
    return hits


def scale(wall: float, took: list[float]) -> float:
    """A wall time less the probes inside it, at the reference speed."""
    return (wall - sum(took)) * REFERENCE_S * len(took) / sum(took)


class SpeedProbe:
    """Kernel timings over a process's life, taken every INTERVAL seconds."""

    def __init__(self):
        self.at: list[float] = []  # probe mid-points, increasing
        self.took: list[float] = []
        self.spent = 0.0  # total probe time, to subtract from enclosing walls

    def take(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection would charge the size of the heap to the kernel
        try:
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.at.append(t0 + took / 2)
        self.took.append(took)
        self.spent += took

    def start(self) -> None:
        """Probe now and then every INTERVAL seconds, from SIGALRM, until stop()."""
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time of the probes in [t0, t1] and the two bracketing it."""
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.at, t1) + 1, len(self.at))
        took = self.took[lo:hi]
        return REFERENCE_S * len(took) / sum(took)
