"""Host-speed reference for CPU-bound timings.

On a shared host the CPU speed a process gets drifts, by tens of percent
within minutes, with what its neighbours run.  A CPU-bound timing then moves with
the host as much as with the program.  So the benchmark runs a fixed
reference kernel in short slices between units of timed work and reports
CPU-bound times at a nominal host speed::

    nominal_s = raw_s * rate / NOMINAL_RATE

where ``rate`` is the median of the reference units per second the host ran
in the slices taken around that work.  A host running at half speed doubles
``raw_s`` and halves ``rate``, so ``nominal_s`` stays put.  The kernel is
the benchmark's own code (a pure-Python loop and a small single-threaded
matrix product, the two kinds of work a model fit does), so no change to
the program moves it.  Slice time is excluded from the timed work.
"""
from __future__ import annotations

import time

__all__ = ["NOMINAL_RATE", "HostSpeed"]

#: Reference units per second of the nominal host: about what one 2.1 GHz
#: Xeon vCPU, shared with other tenants, runs.
NOMINAL_RATE = 3000.0
#: Seconds of reference work per slice.
SLICE_S = 0.015

_MATRIX = None


def _unit() -> float:
    """One reference unit: ~half interpreted Python, ~half BLAS."""
    s = 0.0
    for _ in range(10):
        for i in range(300):
            s += i * 0.5
    return s + float((_MATRIX @ _MATRIX)[0, 0])


class HostSpeed:
    """Reference slices taken during a run, and the host rate they show."""

    def __init__(self):
        global _MATRIX
        if _MATRIX is None:
            import numpy as np

            _MATRIX = np.random.default_rng(0).random((160, 160))
        self.rates: list = []  # reference units per second, one per slice

    def tick(self) -> float:
        """Run the reference kernel for one slice; return the wall time it took."""
        t0 = time.perf_counter()
        n = 0
        while True:
            _unit()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SLICE_S:
                break
        self.rates.append(n / elapsed)
        return elapsed

    def mark(self) -> int:
        """The slices so far, for :meth:`rate` over what comes after."""
        return len(self.rates)

    def rate(self, since: int = 0) -> float:
        """Median reference rate of the slices taken after ``since``.

        The median, so that a slice the benchmark's own server or query
        thread happened to interrupt does not count: that contention is
        the program's, and the timed work should show it.
        """
        rates = sorted(self.rates[since:])
        if not rates:
            raise RuntimeError("no reference slice was taken")
        mid = len(rates) // 2
        return rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2

    def scale(self, since: int = 0) -> float:
        """Factor from raw seconds to seconds at :data:`NOMINAL_RATE`."""
        return self.rate(since) / NOMINAL_RATE
