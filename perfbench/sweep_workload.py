"""``sweep``: the paper pipeline, offline and closed loop.

A fixed list of ``tune_job_spec`` jobs runs sequentially through one
``repro.runtime.Runtime`` with no result cache, the way ``python -m
repro.experiments`` runs its drivers: CPR (smoke grid, ALS) on all six
applications in a figure6-shaped group, a figure7-shaped group that
repeats six of those specs, one ``loss="mlogq2"`` CPR grid (AMN) on amg,
and SGR on matmul (low-dimensional) and exafmm (high-dimensional).  Each
pass runs that list on datasets of its own.  There is no time budget, so
every job's record is a pure function of its spec.

Why: the completion kernels, SGR (``SparseGridBasis.evaluate``) and the
runtime's duplicated jobs do the work here; serving does none.

The work is CPU-bound, so its times are reported at the nominal host speed
of :mod:`hostspeed`, from a reference slice taken after every job.
"""
from __future__ import annotations

import json
import math
import time

from harness import BENCH_DIR, median, tail
from hostspeed import HostSpeed

APPS = ("matmul", "qr", "bcast", "exafmm", "amg", "kripke")
FIGURE6_SIZES = (512, 1024)
FIGURE7_SIZE = 1024
#: The extrapolation model's settings (as in the figure8 driver), two grid sizes.
AMN_GRID = [
    {"loss": "mlogq2", "rank": 2, "cells": c, "regularization": 1e-5,
     "max_sweeps": 2, "newton_iters": 15}
    for c in (8, 16)
]
#: Nominal seconds per pass on a 2-core host; ``--seconds`` sets the pass count.
PASS_S = 6.0
#: Pass ``k`` of a run with seed ``s`` draws its datasets from seed
#: ``s * PASS_SEEDS + k``: a run averages over several datasets (which model
#: wins a grid, and so its size, depends on them), and pass 0 of seed 0 is
#: the stored reference.
PASS_SEEDS = 1000
REFERENCE = BENCH_DIR / "reference" / "sweep_seed0.json"
REFERENCE_SEED = 0
#: Relative tolerance for floats against the stored reference: absorbs
#: summation-order differences between BLAS builds, not modelling changes.
REL_TOL = 1e-9


def build_groups(seed: int) -> list:
    """``(label, specs)`` groups of one pass, in execution order."""
    from repro.experiments.config import n_test, tuning_grid
    from repro.experiments.harness import tune_job_spec

    test = n_test("smoke")
    cpr = tuning_grid("cpr", "smoke")
    sgr = tuning_grid("sgr", "smoke")

    def job(app, model, n, grid):
        return tune_job_spec(app=app, model=model, n_train=n, n_test=test,
                             grid=grid, seed=seed)

    return [
        ("figure6", [job(a, "cpr", n, cpr) for a in APPS for n in FIGURE6_SIZES]),
        ("figure7", [job(a, "cpr", FIGURE7_SIZE, cpr) for a in APPS]),
        ("amn", [job("amg", "cpr", FIGURE7_SIZE, AMN_GRID)]),
        ("sgr", [job(a, "sgr", FIGURE7_SIZE, sgr) for a in ("matmul", "exafmm")]),
    ]


def strip_timing(record: dict) -> dict:
    """A job record without its per-configuration fit times."""
    out = dict(record)
    out["results"] = [row[:3] for row in record.get("results", [])]
    return out


def _close(a, b) -> bool:
    """Structural equality, with floats compared to ``REL_TOL``."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


class State:
    def __init__(self, seed, passes):
        from repro.runtime import Runtime

        self.passes = [build_groups(seed * PASS_SEEDS + k) for k in range(passes)]
        self.runtime = Runtime()


def setup(ctx):
    from repro.core.completion import resolve_backend

    resolve_backend()
    return State(ctx.seed, max(1, int(ctx.seconds // PASS_S)))


def measure(ctx, state):
    host = HostSpeed()
    last = host.mark()
    host.tick()
    runs = []  # one list of (spec, record) per pass
    pass_s = []  # raw seconds of job work per pass
    nominal_pass_s = []  # the same at the nominal host speed
    fit_s = []  # per-configuration fit times at the nominal host speed
    for groups in state.passes:
        done = []
        raw = nominal = 0.0
        for _, specs in groups:
            # One job per call (an uncached sequential Runtime runs a list the
            # same way), with a host-speed slice after each.
            for spec in specs:
                t0 = time.perf_counter()
                (record,) = state.runtime.run([spec])
                job_s = time.perf_counter() - t0
                since, last = last, host.mark()
                host.tick()
                scale = host.scale(since)  # the slices just before and after the job
                raw += job_s
                nominal += job_s * scale
                if record:
                    # Fit times as the harness records them in each job.
                    fit_s.extend(row[3] * scale for row in record["results"])
                done.append((spec, record))
        pass_s.append(raw)
        nominal_pass_s.append(nominal)
        runs.append(done)
    ctx.end_timed()

    first = runs[0]
    wrong = set()
    by_key = {}
    for p, done in enumerate(runs):
        for i, (spec, record) in enumerate(done):
            if record is None or record.get("skipped"):
                ctx.violate(f"sweep pass {p}: job {spec.describe()} was skipped")
                wrong.add((p, i))
                continue
            # The figure7 group repeats figure6 specs: the same spec must
            # give the same record.
            if spec.key in by_key and strip_timing(record) != strip_timing(by_key[spec.key]):
                ctx.violate(f"sweep pass {p}: repeated spec {spec.describe()} "
                            "gave another record")
                wrong.add((p, i))
            by_key.setdefault(spec.key, record)
    if ctx.seed == REFERENCE_SEED:
        expected = json.loads(REFERENCE.read_text())["records"]
        got = [strip_timing(r) for _, r in first]
        if len(expected) != len(got):
            ctx.violate("sweep: job list length differs from the stored reference")
            wrong.update((0, i) for i in range(len(got)))
        for i, (want, have) in enumerate(zip(expected, got)):
            if not _close(want, have):
                ctx.violate(f"sweep: {first[i][0].describe()} differs from the reference")
                wrong.add((0, i))

    distinct = list(by_key.values())
    configs = [sum(len(r.get("results", [])) for _, r in done if r) for done in runs]
    p, tail_s = tail(fit_s)
    return {
        "attempted": sum(len(done) for done in runs),
        "failed": len(wrong),
        "metrics": {
            "ops_per_s": median([c / s for c, s in zip(configs, nominal_pass_s)]),
            "latency_p50_ms": 1e3 * median(fit_s),
            "latency_tail_ms": 1e3 * tail_s,
            "mlogq": sum(r["best_error"] for r in distinct) / len(distinct),
            # Per pass, as each pass has its own datasets.
            "cpr_model_bytes": sum(r["best_size_bytes"] for r in distinct
                                   if r["model"] == "cpr") / len(runs),
        },
        "layers": {
            "runtime.jobs": state.runtime.executed,
            "runtime.unique_ratio": len(by_key) / max(state.runtime.executed, 1),
        },
        "detail": {
            "passes": len(runs),
            "jobs_per_pass": len(first),
            "configs_per_pass": configs,
            "pass_s": pass_s,
            "host_scale": [n / r for n, r in zip(nominal_pass_s, pass_s)],
            "raw_ops_per_s": median([c / s for c, s in zip(configs, pass_s)]),
            "latency_tail_percentile": p,
            "latency_samples": len(fit_s),
        },
    }


def layers(ctx, state, child_records) -> dict:
    return {}


def teardown(ctx, state):
    return {}


def write_reference() -> None:
    """Regenerate the stored reference records for the default seed."""
    from repro.runtime import Runtime

    runtime = Runtime()
    records = []
    for _, specs in build_groups(REFERENCE_SEED):
        records.extend(strip_timing(r) for r in runtime.run(specs))
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({"seed": REFERENCE_SEED, "records": records},
                                    indent=1) + "\n")
