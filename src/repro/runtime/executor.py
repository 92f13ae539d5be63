"""Job execution: sequential fallback and the process-pool path.

Determinism contract (see DESIGN.md, "Runtime & caching"):

* every randomized quantity a runner consumes is derived from seeds in
  its spec params (the experiment layer already threads explicit seeds
  everywhere), so a job's result is independent of which worker runs it
  and in what order;
* as a belt-and-braces measure the executor additionally seeds numpy's
  *legacy* global RNG per job from the spec hash before invoking the
  runner, so stray ``np.random.*`` calls in model code cannot couple jobs
  through shared process state;
* results are normalized through a JSON round-trip before they are
  returned or cached, so the sequential path, the pool path, and a
  cache-hit or memo-hit replay yield byte-identical records.

Worker-side dataset reuse comes for free: runners go through
``repro.experiments.harness.get_dataset``, whose bounded cache is
process-local, so a worker that executes several jobs for the same
application generates its measurement pool once.
"""
from __future__ import annotations

import copy
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

import numpy as np

from repro.faults import fault_point, retry_call
from repro.runtime.cache import ResultCache
from repro.runtime.spec import JobSpec, resolve_runner, to_jsonable

__all__ = ["Runtime", "execute"]


def _run_one(item):
    """Execute one ``(fn, params, key, retries, retry_delay_s)`` tuple.

    Top-level so it is picklable for the pool path.  Returns
    ``(record, elapsed_seconds)`` — the job's own wall time (last
    attempt only), so cached timings identify slow jobs rather than
    batch averages.

    Transient failures (``OSError`` and subclasses — the I/O class of
    failure) are retried up to ``retries`` times with backoff; each
    attempt re-seeds the legacy global RNG from the spec hash first, so
    a retry replays *exactly* the run that failed (the determinism
    contract survives retries).  Deterministic failures (``TypeError``,
    ``ValueError``, a runner bug) propagate immediately — re-running a
    bug is a waste, and quarantine (below) is the policy for those.
    """
    fn_path, params, key, retries, retry_delay_s = item

    def attempt():
        np.random.seed(int(key[:8], 16) % 2**32)
        fault_point("runtime.job")
        t0 = time.perf_counter()
        result = resolve_runner(fn_path)(**params)
        record = json.loads(json.dumps(to_jsonable(result)))
        return record, time.perf_counter() - t0

    return retry_call(
        attempt,
        attempts=max(int(retries), 0) + 1,
        base_delay_s=retry_delay_s,
        retry_on=(OSError,),
    )


class Runtime:
    """Executes job lists sequentially or on a process pool, with caching.

    Parameters
    ----------
    jobs
        Worker-process count.  ``1`` (the default) preserves the
        historical sequential in-process behaviour exactly — no pool, no
        pickling, just a loop over the runners.
    cache_dir
        Directory for the content-addressed :class:`ResultCache`.  When
        ``None``, nothing is persisted, but each distinct spec still
        executes only once per runtime (see the memo below).
    on_result
        Optional callback ``(spec, record) -> None`` invoked in the
        *driver* process for each job that actually executed (cache and
        memo hits are skipped — their side effects already happened).
        This is the publish-after-fit hook: the serving layer registers a
        callback that pushes freshly fitted models into a
        :class:`repro.serve.ModelRegistry` as sweeps complete (see
        ``run_tune_job``'s ``publish_dir`` for the job-level variant).
    retries, retry_delay_s
        Transient-failure policy: each job gets ``retries`` extra
        attempts (backoff from ``retry_delay_s``, full jitter) when it
        fails with an ``OSError`` — the flaky-filesystem / crashed-
        worker class of failure.  Deterministic exceptions are never
        retried.
    quarantine
        ``False`` (default): a job that exhausts retries fails the
        sweep, exactly the historical behaviour.  ``True``: the failure
        is recorded in :attr:`quarantined` as ``(spec, exception)``, the
        job's slot in the results list stays ``None``, and the rest of
        the sweep completes — one poison job no longer discards an
        afternoon of finished (and cached) work.
    queue_dir, queue_workers
        Elastic work-queue mode (see :mod:`repro.runtime.queue`): pending
        specs are spooled under ``queue_dir`` and executed by
        ``queue_workers`` claimed-lease worker processes instead of a
        process pool.  Results land in the same :class:`ResultCache`
        (``cache_dir`` if given, else ``<queue_dir>/results``), so
        resume/caching semantics are unchanged — a queue sweep and a
        sequential sweep of the same specs produce byte-identical
        records.  Extra workers may join the same spool from other
        processes or hosts at any time.
    queue_lease_ttl_s
        Heartbeat TTL for queue leases; a worker SIGKILLed mid-job stops
        heartbeating, and after this many seconds a surviving worker
        reclaims and re-runs the job (idempotently).

    Every runtime also keeps an in-memory memo of the records of the jobs
    it finished, keyed by :attr:`JobSpec.key` (runners are pure functions
    of their spec).  :meth:`run` answers a spec from the disk cache first,
    then from the memo, and executes it only when both miss; a spec listed
    twice in one call runs once and its later slots are hits.  A memo hit
    is a deep copy, so callers may mutate what they get back.  Failed or
    quarantined jobs are never memoized, and a time-budgeted spec keeps
    the truncation of its first run, as the disk cache does.

    ``hits``/``executed`` count cache or memo hits and actually-run jobs
    across the runtime's lifetime; :meth:`snapshot` lets callers report
    per-sweep deltas.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        on_result=None,
        retries: int = 2,
        retry_delay_s: float = 0.05,
        quarantine: bool = False,
        queue_dir=None,
        queue_workers: int = 2,
        queue_lease_ttl_s: float = 10.0,
    ):
        self.jobs = max(int(jobs), 1)
        self.queue_dir = queue_dir
        self.queue_workers = max(int(queue_workers), 1)
        self.queue_lease_ttl_s = float(queue_lease_ttl_s)
        if cache_dir is None and queue_dir is not None:
            cache_dir = Path(queue_dir) / "results"
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.on_result = on_result
        self.retries = max(int(retries), 0)
        self.retry_delay_s = max(float(retry_delay_s), 0.0)
        self.quarantine = bool(quarantine)
        self.quarantined: list = []
        self.hits = 0
        self.executed = 0
        self._memo: dict = {}

    def snapshot(self) -> tuple:
        """Current ``(hits, executed)`` counters."""
        return (self.hits, self.executed)

    def _lookup(self, spec: JobSpec):
        """A finished record for ``spec`` (disk cache, then memo), or ``None``."""
        if self.cache is not None:
            record = self.cache.get(spec)
            if record is not None:
                return record
        return self._from_memo(spec.key)

    def _from_memo(self, key: str):
        if key not in self._memo:
            return None
        return copy.deepcopy(self._memo[key])

    def _record(self, spec: JobSpec, record, elapsed: float) -> None:
        """Book-keep one job finished in this process (cache write first)."""
        if self.cache is not None:
            self.cache.put(spec, record, elapsed=elapsed)
        self._finished(spec, record)

    def _finished(self, spec: JobSpec, record) -> None:
        """Count, memoize and announce one executed job."""
        self.executed += 1
        self._memo[spec.key] = copy.deepcopy(record)
        if self.on_result is not None:
            self.on_result(spec, record)

    def run(self, specs: list) -> list:
        """Execute ``specs`` and return their records in submission order.

        Jobs answered by the disk cache or the memo execute nothing; the
        remaining distinct specs run sequentially (``jobs == 1``), on a
        process pool, or through the work queue.  Records are cached *as
        each job completes*, so a sweep interrupted or failed mid-batch
        keeps every finished job and resumes from exactly the missing
        ones.  A slot whose job failed under ``quarantine`` stays ``None``,
        and so do its repeats.
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, JobSpec):
                raise TypeError(f"expected JobSpec, got {type(spec).__name__}")
        results: list = [None] * len(specs)
        pending = []  # the first slot of each spec that must run
        repeats = []  # later slots of those specs
        pending_keys = set()
        for i, spec in enumerate(specs):
            if spec.key in pending_keys:
                repeats.append(i)
                continue
            record = self._lookup(spec)
            if record is not None:
                results[i] = record
                self.hits += 1
            else:
                pending_keys.add(spec.key)
                pending.append(i)

        if pending:
            if self.queue_dir is not None:
                self._run_queued(specs, pending, results)
            elif self.jobs == 1 or len(pending) == 1:
                self._run_sequential(specs, pending, results)
            else:
                self._run_pool(specs, pending, results)

        for i in repeats:
            record = self._from_memo(specs[i].key)
            if record is not None:
                results[i] = record
                self.hits += 1
        return results

    def _item(self, spec: JobSpec) -> tuple:
        """The picklable :func:`_run_one` argument for ``spec``."""
        return (spec.fn, spec.params, spec.key, self.retries, self.retry_delay_s)

    def _run_sequential(self, specs: list, pending: list, results: list) -> None:
        # In-process path: the per-job reseeding must not leak into the
        # caller's global RNG stream (historical sequential behaviour).
        saved_rng = np.random.get_state()
        try:
            for i in pending:
                try:
                    record, elapsed = _run_one(self._item(specs[i]))
                except Exception as exc:
                    if not self.quarantine:
                        raise
                    self.quarantined.append((specs[i], exc))
                    continue
                results[i] = record
                self._record(specs[i], record, elapsed)
        finally:
            np.random.set_state(saved_rng)

    def _run_pool(self, specs: list, pending: list, results: list) -> None:
        failure = None
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending))) as pool:
            futures = {pool.submit(_run_one, self._item(specs[i])): i for i in pending}
            for fut in as_completed(futures):
                i = futures[fut]
                try:
                    record, elapsed = fut.result()
                except BaseException as exc:
                    # Keep consuming so finished jobs still get cached;
                    # then either quarantine the failures or surface
                    # the first one (historical behaviour).
                    if self.quarantine and isinstance(exc, Exception):
                        self.quarantined.append((specs[i], exc))
                    elif failure is None:
                        failure = exc
                    continue
                results[i] = record
                self._record(specs[i], record, elapsed)
        if failure is not None:
            raise failure

    def _run_queued(self, specs: list, pending: list, results: list) -> None:
        """Execute the pending slots through a spooled work queue.

        The driver submits, spawns local workers, and waits for the spool
        to drain; results are read back from the shared cache (the same
        records a worker on another host would have pushed).  A failed
        job either quarantines or raises, mirroring the in-process paths.
        """
        from repro.runtime.queue import WorkQueue

        queue = WorkQueue(
            self.queue_dir, cache=self.cache, lease_ttl_s=self.queue_lease_ttl_s
        )
        keys = queue.submit(specs[i] for i in pending)
        workers = queue.spawn_workers(self.queue_workers)
        try:
            queue.drain(keys, workers=workers)
        finally:
            for worker in workers:
                worker.join(timeout=10.0)
                if worker.is_alive():  # pragma: no cover - wedged worker
                    worker.terminate()
        failures = queue.failures()
        failure = None
        for i in pending:
            spec = specs[i]
            record = self.cache.get(spec)
            if record is not None:
                results[i] = record
                self._finished(spec, record)
                continue
            error = failures.get(spec.key, {}).get("error", "no result record")
            exc = RuntimeError(f"queue job {spec.describe()} failed: {error}")
            if self.quarantine:
                self.quarantined.append((spec, exc))
            elif failure is None:
                failure = exc
        if failure is not None:
            raise failure

    def __repr__(self):
        where = self.cache.root if self.cache is not None else None
        return f"Runtime(jobs={self.jobs}, cache_dir={where!r})"


def execute(specs: list, runtime: Runtime | None = None) -> list:
    """Run ``specs`` through ``runtime``, or a sequential uncached default.

    This is the single entry point figure drivers use; passing
    ``runtime=None`` reproduces the pre-runtime sequential behaviour.
    """
    return (runtime if runtime is not None else Runtime()).run(specs)
