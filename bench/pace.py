"""The machine's pace while a timing is taken, from a fixed reference
kernel, so that timings can be given at one reference speed.

On a shared host the same code runs up to 1.5x slower for stretches of
seconds to minutes, because other tenants contend for the cores. A
slow stretch slows every kind of Python and numpy work by about the
same factor, and it often covers a whole run, so neither the fastest
nor the median of a run's timings escapes it. `Ticker` runs `kernel`
every INTERVAL_S of wall time, from a SIGALRM handler, in the middle of
whatever the program is doing. `at_reference` cuts each timed window at
the kernel runs, drops their time, and scales each piece by NOMINAL_S
over the kernel's local time (the median of the 2 * HALF_WIDTH + 1
kernel runs around it). The result is the window's time at the pace at
which the kernel takes NOMINAL_S.

The kernel is the benchmark's own code and never changes with the code
under test, so a change to the program moves the scaled time as it
moves the work, whatever the machine's pace.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

clock = time.perf_counter

INTERVAL_S = 0.05
HALF_WIDTH = 5
# The kernel's time on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) in
# its fast stretches. It only sets the scale of the scaled times.
NOMINAL_S = 0.001

_XS = np.arange(64.0)


def kernel() -> float:
    """A fixed mix of interpreted arithmetic, dict stores and small
    numpy calls, as in natwatch's per-flow and per-node code."""
    s = 0.0
    d = {}
    xs = _XS
    for i in range(3000):
        s += xs[i & 63] * 1.5
        d[i & 255] = s
        if i % 30 == 0:
            s += float(xs[xs > (i & 63)].sum())
    return s


class Ticker:
    """Runs the kernel every INTERVAL_S while started and keeps the
    start and end of each run. Only the main thread gets SIGALRM."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts = array("d")
        self.ends = array("d")
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a signal that arrived while the kernel ran
            return
        self._busy = True
        t0 = clock()
        kernel()
        t1 = clock()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def start(self):
        """Start ticking; returns `stop`."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self.stop

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def runs(self) -> int:
        return len(self.ends)


def local_times(durations: np.ndarray, half_width: int = HALF_WIDTH) -> np.ndarray:
    """Each kernel run's local time: the median of the runs within
    half_width places of it (fewer at the ends)."""
    n = len(durations)
    return np.array([np.median(durations[max(0, i - half_width): i + half_width + 1])
                     for i in range(n)])


def at_reference(windows, starts, ends, nominal_s: float = NOMINAL_S,
                 half_width: int = HALF_WIDTH) -> list[tuple[float, float]]:
    """(work, scaled) for each window (t0, t1): `work` is the window's
    time minus the kernel runs that started inside it; `scaled` is the
    sum of its pieces between kernel runs, each scaled by nominal_s over
    the local kernel time of the run just before the piece (just after,
    for a piece before the first run)."""
    s = np.array(starts, dtype=np.float64)
    e = np.array(ends, dtype=np.float64)
    if len(s) == 0:
        raise ValueError("no kernel runs to set the pace")
    scale = nominal_s / local_times(e - s, half_width)
    out = []
    for t0, t1 in windows:
        lo = int(np.searchsorted(s, t0, side="left"))
        hi = int(np.searchsorted(s, t1, side="left"))
        piece_start = np.concatenate(([t0], np.minimum(e[lo:hi], t1)))
        piece_end = np.concatenate((s[lo:hi], [t1]))
        pieces = np.clip(piece_end - piece_start, 0.0, None)
        before = np.clip(np.arange(lo - 1, hi), 0, len(s) - 1)
        out.append((float(pieces.sum()), float((pieces * scale[before]).sum())))
    return out
