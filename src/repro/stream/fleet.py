"""A fleet of drifting streams sharing one registry.

The serving story so far is one model per stream session.  Real
deployments of the paper's models look different: one registry hosts a
model per *application* (bcast, matmul, kripke, ...), each fed by its
own measurement stream, each drifting on its own schedule.  This module
runs that shape in-process:

:class:`DriftingApplication`
    Wraps any ``repro.apps`` application and injects a step change —
    after ``shift_at`` cumulative measured rows, every subsequent
    measurement is scaled by ``factor``.  Deterministic given the
    replay seed, so a drifting fleet replay is reproducible.
:class:`MultiStreamDriver`
    Runs one :class:`~repro.stream.runner.StreamTask` per thread
    against a *shared* registry (``task.run(registry)``, so each stream
    is built exactly as a single stream or a runtime job is), and
    aggregates the session summaries — total promotions, rollbacks,
    published versions — into one fleet report.

Threads rather than processes: a session's heavy steps (fits, sweeps)
run in NumPy with the GIL released, and the registry's on-disk layout
(atomic manifest writes, per-name version counters) already tolerates
concurrent publishers.
"""
from __future__ import annotations

import threading

import numpy as np

__all__ = ["DriftingApplication", "MultiStreamDriver"]


class DriftingApplication:
    """An application whose measurements step-change mid-stream.

    After ``shift_at`` cumulative rows have been measured, every later
    row's runtime is multiplied by ``factor`` (a regime change: new
    firmware, a congested interconnect, a changed input deck).  The
    boundary is row-exact — a batch straddling it gets the old regime
    for its first rows and the new one for the rest.
    """

    def __init__(self, app, shift_at: int, factor: float = 2.0):
        if int(shift_at) < 0:
            raise ValueError("shift_at must be >= 0")
        if not float(factor) > 0:
            raise ValueError("factor must be > 0")
        self.app = app
        self.shift_at = int(shift_at)
        self.factor = float(factor)
        self.n_measured = 0

    @property
    def space(self):
        return self.app.space

    @property
    def name(self) -> str:
        return getattr(self.app, "name", type(self.app).__name__)

    def measure(self, X, rng=None, sigma=None):
        y = np.asarray(self.app.measure(X, rng=rng, sigma=sigma), dtype=float)
        rows = np.arange(self.n_measured, self.n_measured + len(y))
        self.n_measured += len(y)
        return np.where(rows >= self.shift_at, y * self.factor, y)

    def __repr__(self):
        return (
            f"DriftingApplication({self.name}, shift_at={self.shift_at}, "
            f"factor={self.factor})"
        )


class MultiStreamDriver:
    """Run a fleet of stream sessions concurrently against one registry.

    Every task gets its own thread, session, buffer, and drift monitor;
    only the registry is shared.  :meth:`run` blocks until every stream
    finishes and returns the fleet report::

        {"streams": {name: session_summary_or_error},
         "n_streams": ..., "failures": ...,
         "promotions": ..., "rollbacks": ...,
         "published_versions": {name: [...]},
         "rolled_back_versions": {name: [...]}}

    A stream that raises is recorded under its name as ``{"error": ...}``
    and counted in ``failures``; the rest of the fleet completes (one
    diverging application must not sink the others' republishes).
    """

    def __init__(self, registry, tasks):
        tasks = list(tasks)
        names = [t.name for t in tasks]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(
                f"duplicate stream names in fleet: {sorted(dupes)} "
                "(each stream must own its registry name)"
            )
        self.registry = registry
        self.tasks = tasks

    def run(self) -> dict:
        done: dict[str, dict] = {}

        def runner(task):
            try:
                done[task.name] = task.run(self.registry)
            except Exception as exc:  # noqa: BLE001 - reported per stream
                done[task.name] = {"error": f"{type(exc).__name__}: {exc}"}

        threads = [
            threading.Thread(
                target=runner, args=(task,), name=f"stream-{task.name}"
            )
            for task in self.tasks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        streams = {task.name: done[task.name] for task in self.tasks}
        ok = {name: s for name, s in streams.items() if "error" not in s}
        return {
            "streams": streams,
            "n_streams": len(self.tasks),
            "failures": len(streams) - len(ok),
            "promotions": sum(s["promotions"] for s in ok.values()),
            "rollbacks": sum(s["rollbacks"] for s in ok.values()),
            "published_versions": {
                name: s["published_versions"] for name, s in ok.items()
            },
            "rolled_back_versions": {
                name: s["rolled_back_versions"] for name, s in ok.items()
            },
        }
