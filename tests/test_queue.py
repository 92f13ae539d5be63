"""Tests for the elastic work-queue executor (``repro.runtime.queue``).

The contract under test: the queue changes *who* runs a job, never what
the job produces.  Claims are exactly-once among racers (O_CREAT|O_EXCL),
stale leases are reclaimed by exactly one peer, a SIGKILLed worker loses
nothing, and a queue run of a sweep is record-identical to a sequential
run of the same specs — including under an injected fault storm.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.runtime import JobSpec, ResultCache, Runtime, WorkQueue

_PROBE = "repro.runtime.queue:probe_job"

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="queue workers are forked"
)


def probe_specs(n: int, sleep_s: float = 0.0) -> list[JobSpec]:
    return [JobSpec(_PROBE, {"value": i, "sleep_s": sleep_s}) for i in range(n)]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.clear()


class TestClaimProtocol:
    def test_racing_threads_claim_exactly_once(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool")
        (key,) = queue.submit(probe_specs(1))
        barrier = threading.Barrier(8)
        wins = []

        def racer():
            barrier.wait()
            if queue.try_claim(key):
                wins.append(threading.get_ident())

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert queue.lease_owner(key)["pid"] == os.getpid()

    @needs_fork
    def test_racing_processes_claim_exactly_once(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool")
        keys = queue.submit(probe_specs(16))
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()

        def racer():
            mine = [k for k in keys if WorkQueue(tmp_path / "spool").try_claim(k)]
            results.put(mine)

        procs = [ctx.Process(target=racer) for _ in range(2)]
        for p in procs:
            p.start()
        won = [results.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        # Every key claimed by exactly one racer, none by both.
        assert sorted(won[0] + won[1]) == sorted(keys)
        assert not set(won[0]) & set(won[1])

    def test_release_frees_the_lease(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool")
        (key,) = queue.submit(probe_specs(1))
        assert queue.try_claim(key)
        assert not queue.try_claim(key)
        queue.release(key)
        assert queue.try_claim(key)


class TestStaleReclaim:
    def _backdate(self, queue, key, by_s: float) -> None:
        path = queue._lease_path(key)
        old = time.time() - by_s
        os.utime(path, (old, old))

    def test_fresh_lease_is_not_reclaimable(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool", lease_ttl_s=5.0)
        (key,) = queue.submit(probe_specs(1))
        assert queue.try_claim(key)
        assert not queue.reclaim_if_stale(key)

    def test_stale_lease_reclaimed_once(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool", lease_ttl_s=1.0)
        (key,) = queue.submit(probe_specs(1))
        assert queue.try_claim(key)
        self._backdate(queue, key, by_s=10.0)
        assert queue.reclaim_if_stale(key)
        # The lease is gone: the second reclaimer finds nothing.
        assert not queue.reclaim_if_stale(key)
        assert queue.try_claim(key)
        assert queue.reclaimed == 1

    def test_racing_reclaimers_one_winner(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool", lease_ttl_s=0.5)
        (key,) = queue.submit(probe_specs(1))
        assert queue.try_claim(key)
        self._backdate(queue, key, by_s=10.0)
        barrier = threading.Barrier(6)
        wins = []

        def racer():
            barrier.wait()
            if queue.reclaim_if_stale(key):
                wins.append(1)

        threads = [threading.Thread(target=racer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        # No tombstone debris left behind.
        assert list(queue.leases_dir.glob(".reclaim-*")) == []

    def test_heartbeat_keeps_lease_fresh(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool", lease_ttl_s=0.4)
        specs = probe_specs(1, sleep_s=1.0)
        (key,) = queue.submit(specs)
        done = queue.work(max_jobs=1)
        # The job slept 2.5x the TTL; without heartbeats the driver-side
        # scan below would have been able to reclaim mid-run.
        assert done == 1
        assert queue.cache.get(specs[0]) == {"value": 0}
        assert queue.lease_owner(key) is None


class TestWorkLoop:
    def test_submit_is_idempotent_and_cache_aware(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool")
        specs = probe_specs(3)
        assert len(queue.submit(specs)) == 3
        assert len(queue.submit(specs)) == 3  # same keys, same files
        assert len(list(queue.specs_dir.glob("*.json"))) == 3
        queue.work()
        # Everything cached: nothing left to submit or run.
        assert queue.submit(specs) == []
        assert queue.pending() == []

    def test_work_drains_and_leaves_no_leases(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool")
        specs = probe_specs(8)
        queue.submit(specs)
        assert queue.work() == 8
        for i, spec in enumerate(specs):
            assert queue.cache.get(spec) == {"value": i}
        assert list(queue.leases_dir.iterdir()) == []

    def test_poison_spec_fails_once_and_stops_spreading(self, tmp_path):
        queue = WorkQueue(tmp_path / "spool")
        bad = JobSpec(_PROBE, {"value": 7, "fail": True})
        queue.submit(probe_specs(2) + [bad])
        assert queue.work() == 3
        failures = queue.failures()
        assert list(failures) == [bad.key]
        assert "probe_job failed on demand" in failures[bad.key]["error"]
        # The failure record parks the spec: later workers skip it.
        assert queue.pending() == []
        assert queue.work() == 0


class TestSpoolWrites:
    def test_failed_writes_leave_no_temp_file(self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path / "spool")
        (spec,) = probe_specs(1)

        def broken_replace(src, dst):
            raise OSError("injected write failure")

        with monkeypatch.context() as m:
            m.setattr(os, "replace", broken_replace)
            with pytest.raises(OSError, match="injected"):
                queue.submit([spec])
            with pytest.raises(OSError, match="injected"):
                queue._mark_failed(spec.key, ValueError("poison"))
        assert list(queue.specs_dir.iterdir()) == []
        assert list(queue.failed_dir.iterdir()) == []


class TestRuntimeIntegration:
    def _result_map(self, cache: ResultCache, specs) -> dict:
        return {s.key: cache.get(s) for s in specs}

    def test_queue_run_matches_sequential_run(self, tmp_path):
        specs = probe_specs(12)
        seq = Runtime(jobs=1, cache_dir=tmp_path / "seq")
        seq_results = seq.run(specs)

        spool = tmp_path / "spool"
        queued = Runtime(queue_dir=spool, queue_workers=2, queue_lease_ttl_s=5.0)
        queue_results = queued.run(specs)

        assert json.dumps(queue_results, sort_keys=True) == json.dumps(
            seq_results, sort_keys=True
        )
        # Record-for-record identical payloads in both caches.
        assert self._result_map(seq.cache, specs) == self._result_map(
            ResultCache(spool / "results"), specs
        )
        assert queued.executed == 12
        # Warm re-run: all hits, no worker ever spawned.
        warm = Runtime(queue_dir=spool, queue_workers=2)
        assert warm.run(specs) == seq_results
        assert warm.hits == 12 and warm.executed == 0

    def test_queue_failure_surfaces_the_job_error(self, tmp_path):
        bad = JobSpec(_PROBE, {"value": 1, "fail": True})
        runtime = Runtime(queue_dir=tmp_path / "spool", queue_workers=1)
        with pytest.raises(RuntimeError, match="probe_job failed on demand"):
            runtime.run(probe_specs(2) + [bad])

    def test_queue_quarantine_keeps_good_results(self, tmp_path):
        bad = JobSpec(_PROBE, {"value": 1, "fail": True})
        runtime = Runtime(
            queue_dir=tmp_path / "spool", queue_workers=1, quarantine=True
        )
        results = runtime.run(probe_specs(2) + [bad])
        assert results[0] == {"value": 0} and results[1] == {"value": 1}
        assert results[2] is None
        assert len(runtime.quarantined) == 1


@needs_fork
class TestWorkerFleet:
    def test_sigkill_mid_batch_loses_nothing(self, tmp_path):
        """Kill one of two workers mid-sweep: the survivor reclaims the
        victim's stale lease and the sweep completes with every record
        present and correct — the acceptance invariant."""
        queue = WorkQueue(
            tmp_path / "spool", lease_ttl_s=1.0, poll_interval_s=0.02
        )
        specs = probe_specs(10, sleep_s=0.15)
        keys = queue.submit(specs)
        workers = queue.spawn_workers(2)
        try:
            time.sleep(0.3)  # let both workers claim and start jobs
            os.kill(workers[0].pid, signal.SIGKILL)
            queue.drain(keys, workers=[workers[1]], timeout_s=120.0)
        finally:
            for w in workers:
                w.terminate()
                w.join(timeout=10)
        for i, spec in enumerate(specs):
            assert queue.cache.get(spec) == {"value": i}
        assert queue.failures() == {}
        # The victim's lease was reclaimed, not leaked.
        leases = [p for p in queue.leases_dir.iterdir()]
        assert leases == []

    def test_all_workers_dead_raises(self, tmp_path):
        queue = WorkQueue(
            tmp_path / "spool", lease_ttl_s=0.5, poll_interval_s=0.02
        )
        keys = queue.submit(probe_specs(4, sleep_s=5.0))
        workers = queue.spawn_workers(2)
        try:
            time.sleep(0.2)
            for w in workers:
                os.kill(w.pid, signal.SIGKILL)
            for w in workers:
                w.join(timeout=10)
            with pytest.raises(RuntimeError, match="queue workers exited"):
                queue.drain(keys, workers=workers, timeout_s=30.0)
        finally:
            for w in workers:
                w.terminate()
                w.join(timeout=10)


@needs_fork
class TestQueueChaos:
    """Lease-expiry storms under ``REPRO_FAULTS``-seeded injection."""

    def _chaos_run(self, spool, plan: FaultPlan) -> dict:
        """One full 2-worker sweep with ``plan`` active; returns
        ``key -> result`` for every spec."""
        faults.install(plan)
        try:
            # Short TTL + suppressed heartbeats = constant reclaim churn.
            queue = WorkQueue(spool, lease_ttl_s=0.3, poll_interval_s=0.02)
            specs = probe_specs(8, sleep_s=0.2)
            keys = queue.submit(specs)
            workers = queue.spawn_workers(2)  # fork: plan inherited
            try:
                queue.drain(keys, workers=workers, timeout_s=120.0)
            finally:
                for w in workers:
                    w.terminate()
                    w.join(timeout=10)
            return {s.key: queue.cache.get(s) for s in specs}
        finally:
            faults.clear()

    def test_lease_expiry_storm_replays_bit_identically(self, tmp_path):
        plan_json = (
            FaultPlan(seed=0)
            .on("queue.heartbeat", "error", prob=0.8)
            .on("queue.claim", "error", prob=0.2)
            .to_json()
        )
        runs = []
        for i in range(2):
            plan = FaultPlan.from_json(plan_json)
            assert json.loads(plan_json) == json.loads(plan.to_json())
            runs.append(self._chaos_run(tmp_path / f"spool{i}", plan))
        assert all(r is not None for r in runs[0].values())
        # Same seed, same storm, same records — byte-for-byte at the
        # canonical-JSON level.
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(
            runs[1], sort_keys=True
        )

    def test_reclaim_fault_does_not_lose_work(self, tmp_path):
        faults.install(FaultPlan(seed=1).on("queue.reclaim", "error", prob=0.5))
        queue = WorkQueue(
            tmp_path / "spool", lease_ttl_s=0.2, poll_interval_s=0.02
        )
        specs = probe_specs(6, sleep_s=0.05)
        queue.submit(specs)
        # Pre-plant a stale lease so the loop must reclaim through faults.
        stale = specs[0].key
        assert queue.try_claim(stale)
        old = time.time() - 60
        os.utime(queue._lease_path(stale), (old, old))
        queue.work()
        for i, spec in enumerate(specs):
            assert queue.cache.get(spec) == {"value": i}
