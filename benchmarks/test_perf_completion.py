"""Throughput benchmark: batched completion kernels vs reference loops.

Times ALS and AMN fits for both kernel backends (``reference`` per-row
loops as the baseline, and ``numpy_batched``)
plus fused-blend prediction throughput at small / medium / large
grid-rank combinations, and appends the records to
``results/BENCH_completion.json`` so future PRs inherit a perf
trajectory.  The large configuration (64 cells per mode, rank 16,
order 4) is the paper-scale setting the batched rewrite targets: the
assertions require the vectorized kernels to hold at least a 5x fit
speedup there.  The sweep configuration (8 cells per mode, rank 4,
order 9) is the shape of the paper pipeline's most frequent fits, where
per-call overhead rather than arithmetic sets the ALS sweep cost.  Each
fit time is the best of 5 runs, with the backends timed round-robin
(reference, numpy_batched, reference, ...) so that a burst of host noise
hits both sides of a speedup ratio.
"""
import time

import numpy as np

from repro.core import CPRModel
from repro.core.completion import complete_als, complete_amn

from _report import perf_asserts_enabled, report, report_perf, run_once

# (name, cells-per-mode, order, rank, observations)
CONFIGS = [
    ("small", 16, 3, 4, 1024),
    ("medium", 32, 4, 8, 2048),
    ("large", 64, 4, 16, 512),
    # The perfbench sweep's hot fits: high order, few cells, ~1k cells seen.
    ("sweep", 8, 9, 4, 1024),
]
_ALS_SWEEPS = 10
_AMN_OPTS = dict(max_sweeps=1, newton_iters=8, barrier_min=1e-2)
BACKENDS = ("reference", "numpy_batched")


def _problem(cells, order, rank, nnz, seed=0, positive=False):
    rng = np.random.default_rng(seed)
    shape = (cells,) * order
    idx = np.stack([rng.integers(0, I, nnz) for I in shape], axis=1)
    vals = rng.normal(size=nnz) * 0.5 + 2.0
    if positive:
        vals = np.exp(vals * 0.5)
    return shape, idx, vals


def _best_of(fn, repeats=3):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _best_of_interleaved(fns, repeats=5):
    """Best time and last result per name, timing ``fns`` round-robin.

    Each round runs every function once, so a burst of host noise lands
    on all sides of a speedup ratio instead of on one side's repeats.
    """
    best = {name: np.inf for name in fns}
    out = {}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            out[name] = fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best, out


def _fit_records():
    records = []
    for name, cells, order, rank, nnz in CONFIGS:
        shape, idx, vals = _problem(cells, order, rank, nnz)
        pshape, pidx, pvals = _problem(cells, order, rank, nnz, positive=True)
        row = {"config": name, "cells": cells, "order": order, "rank": rank,
               "observations": nnz}
        for opt, args in (
            ("als", (shape, idx, vals)),
            ("amn", (pshape, pidx, pvals)),
        ):
            fns = {}
            for backend in BACKENDS:
                if opt == "als":
                    fn = lambda k=backend: complete_als(
                        *args, rank=rank, max_sweeps=_ALS_SWEEPS, tol=0.0,
                        seed=1, kernel=k,
                    )
                else:
                    fn = lambda k=backend: complete_amn(
                        *args, rank=rank, tol=1e-6, seed=1, kernel=k,
                        **_AMN_OPTS,
                    )
                fn()  # warm-up (buffer setup, BLAS spin-up)
                fns[backend] = fn
            times, results = _best_of_interleaved(fns)
            hist = {k: res.history[-1] for k, res in results.items()}
            for backend in BACKENDS:
                row[f"{opt}_{backend}_s"] = round(times[backend], 4)
            for backend in BACKENDS:
                if backend == "reference":
                    continue
                # every backend optimizes the identical problem identically
                np.testing.assert_allclose(
                    hist[backend], hist["reference"], rtol=1e-6,
                    err_msg=f"{opt}/{name}: {backend} diverged from reference",
                )
                row[f"{opt}_{backend}_speedup"] = round(
                    times["reference"] / times[backend], 2
                )
        records.append(row)
    return records


def _predict_record():
    """Fused Eq. 5 blend throughput on a fitted paper-scale model."""
    rng = np.random.default_rng(5)
    n_train, n_query = 4096, 20000
    X = np.exp(rng.uniform(0, np.log(100), size=(n_train, 4)))
    y = 1e-2 * X[:, 0] ** 1.2 * X[:, 1] ** 0.4 * (1 + X[:, 2] / 50) * X[:, 3] ** 0.1
    model = CPRModel(cells=64, rank=16, seed=0, max_sweeps=10).fit(X, y)
    Xq = np.exp(rng.uniform(0, np.log(100), size=(n_query, 4)))
    model.predict(Xq)  # warm-up
    dt, _ = _best_of(lambda: model.predict(Xq))
    return {
        "config": "predict_large", "cells": 64, "order": 4, "rank": 16,
        "queries": n_query, "predict_s": round(dt, 4),
        "queries_per_s": round(n_query / dt),
    }


def _run():
    return _fit_records() + [_predict_record()]


def test_perf_completion(benchmark):
    records = run_once(benchmark, _run)
    headers = ["config", "als ref (s)", "als numpy (s)", "als x",
               "amn ref (s)", "amn numpy (s)", "amn x"]
    rows = [
        [r["config"], r["als_reference_s"], r["als_numpy_batched_s"],
         r["als_numpy_batched_speedup"], r["amn_reference_s"],
         r["amn_numpy_batched_s"], r["amn_numpy_batched_speedup"]]
        for r in records if "als_numpy_batched_speedup" in r
    ]
    pred = [r for r in records if r["config"] == "predict_large"][0]
    report("perf_completion", {
        "headers": headers,
        "rows": rows,
        "notes": f"predict: {pred['queries_per_s']}/s; vectorized >= 5x at 'large'",
    })
    report_perf("completion", records)

    # Wall-clock ratios are only meaningful on reasonably quiet machines;
    # shared CI runners record the trajectory and gate via _compare.py.
    if not perf_asserts_enabled():
        return
    large = [r for r in records if r["config"] == "large"][0]
    # Acceptance: order-of-magnitude-class speedup at the paper-scale
    # configuration (64 cells, rank 16, order 4) for both optimizers.
    assert large["als_numpy_batched_speedup"] >= 5.0, large
    assert large["amn_numpy_batched_speedup"] >= 5.0, large
    # Smaller configurations must never regress below the reference path.
    for r in records:
        for key, val in r.items():
            if key.endswith("_speedup"):
                assert val > 1.0, (key, r)
