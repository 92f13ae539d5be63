"""Parallel, resumable experiment runtime.

The paper's evaluation is a large sweep — ~10 model families x
hyper-parameter grids x 6 applications x several training-set sizes,
re-fitted per figure.  This package turns that workload into declarative
*jobs* that can be executed in parallel and cached on disk:

:class:`~repro.runtime.spec.JobSpec`
    A declarative job: the import path of a runner function plus a
    JSON-canonical parameter dict.  Content-addressed via a SHA-256 of the
    canonical spec (:attr:`JobSpec.key`).
:class:`~repro.runtime.cache.ResultCache`
    On-disk result store keyed by spec hash; one JSON record per job, so
    sweeps are resumable and incrementally re-runnable.
:class:`~repro.runtime.executor.Runtime`
    Sequential or process-pool executor with deterministic per-job
    seeding, an in-memory memo that runs each distinct spec once per
    runtime, and per-worker dataset reuse (workers share the harness's
    process-local dataset cache).
:class:`~repro.runtime.queue.WorkQueue`
    Elastic work-queue executor: specs are spooled to a shared
    directory, and any number of worker processes (local or on other
    hosts sharing the filesystem) claim them via O_CREAT|O_EXCL lease
    files with heartbeat + stale-lease reclaim.  ``Runtime(queue_dir=,
    queue_workers=)`` and ``python -m repro.experiments --queue DIR
    --queue-workers N`` run whole sweeps through it.

Figure drivers build job lists (``build_jobs``) and submit them through
:func:`~repro.runtime.executor.execute`; ``python -m repro.experiments``
exposes the ``--jobs`` and ``--cache-dir`` knobs.  Streaming replays are
jobs too: :func:`repro.stream.runner.stream_job_spec` wraps the fields
of one :class:`~repro.stream.runner.StreamTask` (a whole drift-monitored
stream session, deterministic given its seed) as one cacheable spec, so
sweeps over streaming scenarios resume like any other sweep.  A spec
that names a ``journal`` resumes from it when run.
"""
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Runtime, execute
from repro.runtime.queue import WorkQueue, run_queue_worker
from repro.runtime.spec import CACHE_SCHEMA_VERSION, JobSpec, canonical, to_jsonable

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "JobSpec",
    "ResultCache",
    "Runtime",
    "WorkQueue",
    "canonical",
    "execute",
    "run_queue_worker",
    "to_jsonable",
]
