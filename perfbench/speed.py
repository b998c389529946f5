"""Machine-speed reference for the end-to-end timings.

The shared machines this benchmark runs on switch between speeds up to 1.7x
apart for tens of seconds at a time, which no affordable run length averages
away. So the worker times a small fixed pure-Python kernel from a SIGALRM
handler every ``PERIOD_S``, on its own thread and CPU, while it measures.
Each run's wall time, less the handler time inside it, is scaled by
``REFERENCE_S`` over the mean kernel time around the run. A "reference
second" is a wall second on a machine that runs the kernel in
``REFERENCE_S``; the kernel does not touch oscswap, so a change to the
program moves reference time as it moves wall time.
"""

import cmath
import math
import signal
from time import perf_counter

REFERENCE_S = 1.2e-4
PERIOD_S = 0.05
WINDOW_S = 0.25  # samples this close to a run also describe it; short runs have none inside


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed reference kernel."""
    start = perf_counter()
    z = 0j
    for i in range(1, 120):
        z = 0.5 * z + cmath.exp(1j * math.lgamma(i % 40 + 1)) * math.exp(-(i % 9))
        if i % 12 == 0:
            f"{z.real:.17g}"
    return perf_counter() - start


class Probe:
    """Kernel samples ``(start, seconds)`` taken from SIGALRM for the length of
    a ``with`` block. Python runs the handler between bytecodes of the main
    thread, so the samples interleave with the measured work."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, kernel_seconds()))

    def __enter__(self):
        self._sample(None, None)  # every interval in the block has samples near it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False


def reference_seconds(samples: list[tuple[float, float]], start: float, wall: float) -> float:
    """Reference seconds of a run that started at ``start`` and took ``wall``.

    The kernel time spent inside the run is taken off first. The speed is
    the mean kernel time within ``WINDOW_S`` of the run, the top and bottom
    tenth dropped.
    """
    end = start + wall
    inside = sum(k for t, k in samples if start <= t < end)
    near = sorted(k for t, k in samples if start - WINDOW_S <= t < end + WINDOW_S)
    if not near:
        raise ValueError(f"no speed samples near the run at {start:.3f}")
    trim = len(near) // 10
    near = near[trim:len(near) - trim]
    return (wall - inside) * REFERENCE_S * len(near) / sum(near)
