"""Fleet serving SLO benchmark: aggregate qps and tail latency vs workers.

Closed-loop load generation against a live :class:`~repro.serve.ServeFleet`
over HTTP: N persistent client connections each issue a fixed number of
chunked predict requests, so the measured wall-clock covers transport
parsing, microbatching, admission control and the engine — the full
worker stack.  The same workload runs against a 1-worker and a 4-worker
fleet; per-request latencies give p50/p99 and the elapsed seconds give
aggregate throughput.

Records append to ``results/BENCH_fleet.json`` (the ``elapsed_s`` fields
are gated by ``benchmarks/_compare.py``).  Where perf asserts are enabled,
every config's ``p50_ms`` must stay under the 40 ms delayed-ACK timer, so
a transport stall cannot hide behind ``elapsed_s``.  The >= 2.5x 4-worker
scaling assertion only runs where it can physically hold: perf asserts
enabled *and* at least 4 CPU cores — on a 1-core runner every worker
shares one core and the fleet can only tie, so the numbers are still
recorded but not asserted.
"""
import http.client
import json
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.apps import Broadcast
from repro.core import CPRModel
from repro.datasets import generate_dataset
from repro.serve import ModelRegistry, ServeFleet
from repro.serve import shm_store

from _report import perf_asserts_enabled, report, report_perf, run_once

N_TRAIN = 4096
CHUNK = 128          # rows per JSON request
N_CLIENTS = 8        # persistent connections
REQS_PER_CLIENT = 20
WORKER_COUNTS = (1, 4)
P50_LIMIT_MS = 40.0  # the client's delayed-ACK timer: a stall shows at the p50

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and shm_store.shared_memory_available()),
    reason="fleet needs fork + multiprocessing.shared_memory",
)


def _worker_pss_mb(pids) -> float:
    """Mean proportional-set-size per worker (MB); 0.0 when unreadable.

    PSS splits shared pages across their mappers, so per-worker PSS
    staying flat as workers scale is the direct signature of the shm
    store working (RSS would double-count the shared factor matrices).
    """
    sizes = []
    for pid in pids:
        try:
            text = open(f"/proc/{pid}/smaps_rollup").read()
            for line in text.splitlines():
                if line.startswith("Pss:"):
                    sizes.append(int(line.split()[1]) / 1024.0)
                    break
        except OSError:
            return 0.0
    return round(sum(sizes) / len(sizes), 1) if sizes else 0.0


def _drive(port, chunks_per_client):
    """Run the closed loop; return (elapsed_s, latencies, errors)."""
    latencies: list = []
    errors: list = []
    lock = threading.Lock()

    def client(chunks):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        local = []
        try:
            for x in chunks:
                t0 = time.perf_counter()
                conn.request("POST", "/", json.dumps({"op": "predict", "x": x}))
                resp = conn.getresponse()
                body = json.loads(resp.read())
                dt = time.perf_counter() - t0
                if resp.status != 200 or not body.get("ok"):
                    with lock:
                        errors.append(body)
                else:
                    local.append(dt)
        finally:
            conn.close()
            with lock:
                latencies.extend(local)

    threads = [
        threading.Thread(target=client, args=(chunks,))
        for chunks in chunks_per_client
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, latencies, errors


def _warm(port, x, attempts=100):
    """One request per connection attempt until a worker answers."""
    last = None
    for _ in range(attempts):
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("POST", "/", json.dumps({"op": "predict", "x": x}))
                body = json.loads(conn.getresponse().read())
                assert body.get("ok"), body
                return
            finally:
                conn.close()
        except (ConnectionError, OSError) as exc:
            last = exc
            time.sleep(0.05)
    raise last


def _run():
    app = Broadcast()
    train = generate_dataset(app, N_TRAIN, seed=0)
    queries = generate_dataset(app, N_CLIENTS * REQS_PER_CLIENT * CHUNK, seed=1)
    model = CPRModel(space=app.space, cells=16, rank=4, seed=0).fit(
        train.X, train.y
    )
    expect = model.predict(queries.X[:CHUNK])

    rows = queries.X.tolist()
    chunks_per_client = [
        [
            rows[(c * REQS_PER_CLIENT + r) * CHUNK : (c * REQS_PER_CLIENT + r + 1) * CHUNK]
            for r in range(REQS_PER_CLIENT)
        ]
        for c in range(N_CLIENTS)
    ]
    total = N_CLIENTS * REQS_PER_CLIENT * CHUNK

    records = []
    with tempfile.TemporaryDirectory() as root:
        ModelRegistry(root).publish("bcast-cpr", model)
        for workers in WORKER_COUNTS:
            fleet = ServeFleet(
                root, workers=workers, default_model="bcast-cpr",
                max_inflight=256, poll_interval_s=0.5,
            )
            with fleet:
                _warm(fleet.port, rows[:CHUNK])
                # Sanity: the fleet's answers are the model's answers.
                conn = http.client.HTTPConnection("127.0.0.1", fleet.port, timeout=60)
                try:
                    conn.request(
                        "POST", "/",
                        json.dumps({"op": "predict", "x": rows[:CHUNK]}),
                    )
                    body = json.loads(conn.getresponse().read())
                finally:
                    conn.close()
                np.testing.assert_allclose(body["y"], expect, rtol=1e-10)

                elapsed, lat, errors = _drive(fleet.port, chunks_per_client)
                assert not errors, errors[:3]
                assert len(lat) == N_CLIENTS * REQS_PER_CLIENT
                lat_ms = np.sort(np.asarray(lat)) * 1e3
                records.append({
                    "config": f"fleet_w{workers}",
                    "workers": workers,
                    "clients": N_CLIENTS,
                    "queries": total,
                    "chunk": CHUNK,
                    "elapsed_s": round(elapsed, 4),
                    "qps": round(total / elapsed),
                    "p50_ms": round(float(np.percentile(lat_ms, 50)), 3),
                    "p99_ms": round(float(np.percentile(lat_ms, 99)), 3),
                    "worker_pss_mb": _worker_pss_mb(fleet.worker_pids()),
                })
    base = records[0]
    for r in records[1:]:
        r["speedup_vs_w1"] = round(base["elapsed_s"] / r["elapsed_s"], 2)
    return records


def test_fleet_throughput(benchmark):
    records = run_once(benchmark, _run)
    report("fleet_throughput", {
        "headers": ["workers", "seconds", "queries/s", "p50 ms", "p99 ms",
                    "PSS/worker MB"],
        "rows": [
            [r["workers"], r["elapsed_s"], r["qps"], r["p50_ms"], r["p99_ms"],
             r["worker_pss_mb"]]
            for r in records
        ],
        "notes": "4 workers >= 2.5x 1-worker qps on >= 4 cores; "
                 "per-worker PSS flat (shared shm model)",
    })
    report_perf("fleet", records)

    if not perf_asserts_enabled():
        return
    for r in records:
        assert r["p50_ms"] < P50_LIMIT_MS, records
    by_workers = {r["workers"]: r for r in records}
    if (os.cpu_count() or 1) >= 4 and 4 in by_workers:
        assert by_workers[4]["qps"] >= 2.5 * by_workers[1]["qps"], records
