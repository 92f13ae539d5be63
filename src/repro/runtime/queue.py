"""Elastic work-queue executor: N processes claim JobSpecs from a spool.

The process-pool path (:class:`~repro.runtime.executor.Runtime`) scales
to the cores of one machine and dies with its driver.  The work queue
scales past both: the driver *submits* content-addressed JobSpecs into a
shared **spool directory**, and any number of worker processes — spawned
by the driver, started by hand on other hosts sharing the filesystem, or
added mid-sweep — claim specs, run them, and push the results as
ordinary :class:`~repro.runtime.cache.ResultCache` records.  Resume,
caching, and byte-identical replay therefore work exactly as they do for
the sequential and pool paths: the queue changes *who* runs a job, never
what the job produces.

Spool layout (everything under one directory)::

    <spool>/specs/<key>.json    submitted specs (atomic writes, idempotent)
    <spool>/leases/<key>.lease  claim files (O_CREAT|O_EXCL + heartbeat mtime)
    <spool>/failed/<key>.json   terminal failure records
    <spool>/results/...         default ResultCache root (driver may override)

Lease protocol
--------------
* **Claim**: a worker owns a spec iff it created ``leases/<key>.lease``
  with ``O_CREAT|O_EXCL`` — the one filesystem operation that is atomic
  everywhere.  Exactly one racer wins; losers move on.
* **Heartbeat**: while the job runs, a daemon thread bumps the lease
  mtime every ``lease_ttl_s / 4``.  The mtime is the liveness signal.
* **Stale reclaim**: a lease whose mtime is older than ``lease_ttl_s``
  belongs to a dead worker (SIGKILL, OOM, power loss — no cleanup ran).
  A reclaimer atomically *renames* the stale lease to a tombstone (only
  one renamer can win) before claiming fresh, so two workers can never
  both reclaim the same death.
* **Duplicate execution is safe, not prevented**: runners are pure and
  cache writes are atomic, so the worst outcome of a reclaimed-but-alive
  worker (a very long GC pause, say) is the same record written twice.
  Correctness never depends on the lease — only efficiency does.

Failures mirror :class:`Runtime`'s policy: transient ``OSError``\\ s are
retried in-worker by ``_run_one``; a deterministic failure writes a
``failed/`` record so the sweep can finish and the driver can raise or
quarantine, and so other workers stop re-claiming a poison spec.
"""
from __future__ import annotations

import json
import os
import time
import threading
import multiprocessing
from pathlib import Path

from repro.faults import fault_point, install_from_env, active
from repro.runtime.cache import ResultCache
from repro.runtime.spec import JobSpec
from repro.utils.files import atomic_write

__all__ = ["WorkQueue", "run_queue_worker", "probe_job"]

#: Lease mtimes older than this many seconds mark their owner dead.
DEFAULT_LEASE_TTL_S = 10.0


def probe_job(value=0, sleep_s: float = 0.0, fail: bool = False) -> dict:
    """A trivial pure runner for queue tests and throughput benchmarks.

    Returns ``{"value": value}`` after sleeping ``sleep_s`` (simulated
    work); ``fail=True`` raises deterministically (the poison-job case —
    never retried, lands in ``failed/``).
    """
    if fail:
        raise ValueError(f"probe_job failed on demand (value={value})")
    if sleep_s > 0:
        time.sleep(float(sleep_s))
    return {"value": value}


class _Heartbeat:
    """Daemon thread bumping a lease file's mtime while a job runs."""

    def __init__(self, path: Path, interval_s: float):
        self.path = path
        self.interval_s = max(float(interval_s), 0.01)
        self._stop = threading.Event()
        self.lost = False  # lease vanished: someone reclaimed us
        self._thread = threading.Thread(
            target=self._run, name="repro-queue-heartbeat", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                fault_point("queue.heartbeat")
                os.utime(self.path)
            except FileNotFoundError:
                # Reclaimed out from under us (we looked dead).  The job
                # keeps running — its result is idempotent — but the
                # lease is no longer ours to refresh.
                self.lost = True
                return
            except OSError:
                # A transient utime failure just skips one beat; the TTL
                # gives us several beats of slack before we look dead.
                continue

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class WorkQueue:
    """A spool of content-addressed JobSpecs shared by driver and workers.

    Parameters
    ----------
    spool
        The shared spool directory (created on first use).
    cache
        :class:`ResultCache` receiving finished records.  Defaults to
        ``<spool>/results`` — pass the sweep's own cache directory to
        make queue results land where resume expects them.
    lease_ttl_s
        Seconds without a heartbeat after which a lease is considered
        abandoned and may be reclaimed.
    poll_interval_s
        Worker sleep between scans that found no claimable work.
    """

    def __init__(
        self,
        spool,
        cache: ResultCache | None = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = 0.1,
    ):
        self.spool = Path(spool)
        self.specs_dir = self.spool / "specs"
        self.leases_dir = self.spool / "leases"
        self.failed_dir = self.spool / "failed"
        for d in (self.specs_dir, self.leases_dir, self.failed_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.cache = cache if cache is not None else ResultCache(self.spool / "results")
        self.lease_ttl_s = max(float(lease_ttl_s), 0.1)
        self.poll_interval_s = max(float(poll_interval_s), 0.005)
        self.claimed = 0
        self.reclaimed = 0

    # -- submission (driver side) ----------------------------------------------

    def submit(self, specs) -> list[str]:
        """Write spec files for every job not already answered by the cache.

        Idempotent: submitting the same spec twice writes one file, and a
        spec whose result is already cached is not spooled at all (the
        driver answers it as a cache hit).  Submitting a spec that an
        earlier submission left in ``failed/`` re-arms it, just as a
        sequential rerun re-executes a failed job.  Returns the submitted
        keys.
        """
        submitted = []
        for spec in specs:
            if not isinstance(spec, JobSpec):
                raise TypeError(f"expected JobSpec, got {type(spec).__name__}")
            if self.cache.get(spec) is not None:
                continue
            (self.failed_dir / f"{spec.key}.json").unlink(missing_ok=True)
            path = self.specs_dir / f"{spec.key}.json"
            if not path.exists():
                payload = json.dumps(
                    {"fn": spec.fn, "params": spec.params},
                    indent=1,
                    default=_json_default,
                )
                atomic_write(path, payload)
            submitted.append(spec.key)
        return submitted

    def load_spec(self, key: str) -> JobSpec:
        record = json.loads((self.specs_dir / f"{key}.json").read_text())
        return JobSpec(record["fn"], record["params"])

    # -- state scans -----------------------------------------------------------

    def _spec_keys(self) -> list[str]:
        return sorted(
            p.stem for p in self.specs_dir.glob("*.json") if not p.stem.startswith(".")
        )

    def is_done(self, key: str) -> bool:
        """Whether ``key`` has a finished record (cache writes are atomic,
        so existence implies completeness)."""
        return self.cache.path_for(key).exists()

    def is_failed(self, key: str) -> bool:
        return (self.failed_dir / f"{key}.json").exists()

    def pending(self) -> list[str]:
        """Submitted keys with neither a result nor a failure record."""
        return [
            k for k in self._spec_keys() if not self.is_done(k) and not self.is_failed(k)
        ]

    def failures(self) -> dict:
        """``key -> failure record`` for every failed spec."""
        out = {}
        for path in sorted(self.failed_dir.glob("*.json")):
            try:
                out[path.stem] = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                out[path.stem] = {"error": "unreadable failure record"}
        return out

    # -- the lease protocol ----------------------------------------------------

    def _lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.lease"

    def try_claim(self, key: str) -> bool:
        """Atomically claim ``key``; ``True`` iff this caller now owns it."""
        fault_point("queue.claim")
        try:
            fd = os.open(self._lease_path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(
                fd,
                json.dumps(
                    {
                        "pid": os.getpid(),
                        "host": os.uname().nodename,
                        "claimed": time.time(),
                    }
                ).encode(),
            )
        finally:
            os.close(fd)
        self.claimed += 1
        return True

    def lease_owner(self, key: str) -> dict | None:
        """The claim record of ``key``'s current lease (``None`` if unleased)."""
        try:
            return json.loads(self._lease_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def release(self, key: str) -> None:
        try:
            os.unlink(self._lease_path(key))
        except FileNotFoundError:
            pass

    def sweep_leases(self) -> int:
        """Drop leases whose spec already has a terminal record.

        A worker killed *after* pushing its result leaves a lease for a
        finished key; the pending scan never revisits finished keys, so
        the debris would persist.  Removal is safe even against a slow
        duplicate runner that still holds the lease: its result push is
        idempotent, and its heartbeat treats the missing file as a
        benign reclaim.  Returns how many leases were removed.
        """
        removed = 0
        for path in self.leases_dir.glob("*.lease"):
            key = path.stem
            if self.is_done(key) or self.is_failed(key):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def reclaim_if_stale(self, key: str) -> bool:
        """Tear down ``key``'s lease iff its heartbeat expired.

        The rename is the atomic arbiter: of N workers that all observed
        the same stale mtime, exactly one wins the rename (the rest get
        ``FileNotFoundError``) — so one death is reclaimed once.  Returns
        ``True`` when this caller did the teardown; the lease is then
        free to claim again.
        """
        path = self._lease_path(key)
        try:
            age = time.time() - path.stat().st_mtime
        except FileNotFoundError:
            return False
        if age < self.lease_ttl_s:
            return False
        fault_point("queue.reclaim")
        tombstone = (
            self.leases_dir / f".reclaim-{key}-{os.getpid()}-{time.monotonic_ns()}"
        )
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return False  # another reclaimer (or the owner's release) won
        try:
            os.unlink(tombstone)
        except FileNotFoundError:  # pragma: no cover - nothing else names it
            pass
        self.reclaimed += 1
        return True

    # -- worker loop -----------------------------------------------------------

    def work(self, max_jobs: int | None = None, retries: int = 2,
             retry_delay_s: float = 0.05) -> int:
        """Claim and run pending specs until the spool drains; return the
        number of jobs this call completed (results *and* failures).

        One pass of the loop scans the pending set in key order, claiming
        whatever is free (reclaiming whatever is stale).  When a scan
        finds nothing claimable but work remains — every pending spec is
        leased to a live peer — the worker sleeps ``poll_interval_s`` and
        rescans: if a peer dies, its leases go stale and this worker
        finishes the sweep.
        """
        from repro.runtime.executor import _run_one

        done = 0
        while max_jobs is None or done < max_jobs:
            progress = False
            for key in self.pending():
                if max_jobs is not None and done >= max_jobs:
                    break
                try:
                    claimed = self.try_claim(key)
                    if not claimed:
                        claimed = self.reclaim_if_stale(key) and self.try_claim(key)
                except OSError:
                    # A transient claim/reclaim failure (EIO on the lease
                    # dir, an injected queue.claim fault) skips this key
                    # for this scan — a peer, or the next pass, gets it.
                    continue
                if not claimed:
                    continue
                if self.is_done(key) or self.is_failed(key):
                    # Claimed a lease a dying worker left *after* it had
                    # already pushed its record: nothing to run.
                    self.release(key)
                    continue
                spec = self.load_spec(key)
                heartbeat = _Heartbeat(
                    self._lease_path(key), self.lease_ttl_s / 4.0
                ).start()
                try:
                    record, elapsed = _run_one(
                        (spec.fn, spec.params, key, retries, retry_delay_s)
                    )
                except Exception as exc:
                    self._mark_failed(key, exc)
                else:
                    self.cache.put(spec, record, elapsed=elapsed)
                finally:
                    heartbeat.stop()
                    self.release(key)
                done += 1
                progress = True
            if not self.pending():
                break
            if not progress:
                time.sleep(self.poll_interval_s)
        self.sweep_leases()
        return done

    def _mark_failed(self, key: str, exc: Exception) -> None:
        atomic_write(
            self.failed_dir / f"{key}.json",
            json.dumps(
                {"key": key, "error": f"{type(exc).__name__}: {exc}", "pid": os.getpid()}
            ),
        )

    # -- driver orchestration --------------------------------------------------

    def spawn_workers(self, n: int) -> list:
        """Start ``n`` local worker processes over this spool.

        Fork-based (where available) so an installed
        :class:`~repro.faults.FaultPlan` is inherited — the chaos suite's
        lease/claim faults reach the workers without env plumbing.
        """
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        workers = []
        for _ in range(max(int(n), 1)):
            proc = ctx.Process(
                target=run_queue_worker,
                args=(str(self.spool),),
                kwargs={
                    "cache_dir": str(self.cache.root),
                    "lease_ttl_s": self.lease_ttl_s,
                    "poll_interval_s": self.poll_interval_s,
                },
                daemon=True,
            )
            proc.start()
            workers.append(proc)
        return workers

    def drain(self, keys, workers: list | None = None, timeout_s: float | None = None):
        """Block until every key in ``keys`` has a result or failure record.

        ``workers`` (processes from :meth:`spawn_workers`) are monitored:
        if *all* of them exit while work remains unleased and unclaimed
        past a TTL, the drain raises rather than spinning forever —
        killing one worker mid-batch is survivable (its peers reclaim),
        killing the whole fleet is an error the driver must surface.
        """
        keys = list(keys)
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            remaining = [
                k for k in keys if not self.is_done(k) and not self.is_failed(k)
            ]
            if not remaining:
                self.sweep_leases()
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"queue drain timed out with {len(remaining)} job(s) remaining"
                )
            if workers is not None and not any(w.is_alive() for w in workers):
                raise RuntimeError(
                    f"all {len(workers)} queue workers exited with "
                    f"{len(remaining)} job(s) unfinished"
                )
            time.sleep(self.poll_interval_s)

    def __repr__(self):
        return (
            f"WorkQueue({str(self.spool)!r}, pending={len(self.pending())}, "
            f"ttl={self.lease_ttl_s})"
        )


def _json_default(obj):
    """Spec params already passed JobSpec canonicalization; this only
    handles numpy scalars that json.dumps cannot emit natively."""
    from repro.runtime.spec import to_jsonable

    return to_jsonable(obj)


def run_queue_worker(
    spool,
    cache_dir=None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_interval_s: float = 0.1,
) -> int:
    """Entry point for one worker process (used by :meth:`spawn_workers`
    and runnable by hand on any host that shares the spool filesystem).

    Installs any :data:`~repro.faults.ENV_VAR` fault plan if none was
    inherited (fork children already carry the driver's plan), then works
    the spool until it drains.
    """
    if active() is None:
        install_from_env()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    queue = WorkQueue(
        spool, cache=cache, lease_ttl_s=lease_ttl_s, poll_interval_s=poll_interval_s
    )
    return queue.work()
