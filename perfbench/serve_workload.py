"""``serve``: open-loop ``predict`` traffic against one published CPR model.

Setup fits a CPR model on exafmm, publishes it to a fresh registry and
starts ``python -m repro.serve --http 0`` on that registry.  Requests of
128 rows each then follow a fixed arrival schedule over two keep-alive
connections: random arrivals (independent users, drawn from the seed) at
the reference rate for ``--seconds`` seconds, then a doubling ladder of
rates, each step stopping early once it has missed the latency limit
(requests it never sent count as misses).

Why: the transport, protocol, microbatcher and engine do the work here;
the completion kernels and publishing do none.  A transport stall (such as
a delayed-ACK wait on every response) shows in every latency figure.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np

from client import OpenLoopClient, request_once, wait_ready
from harness import CONFIG, ServerProcess, median, quantiles, tail, tail_percentile

APP = "exafmm"
MODEL = "exafmm-cpr"
N_TRAIN = 2048
#: Distinct request bodies, cycled through by every schedule.
POOL = 64


def finite_list(y) -> list:
    """Predictions as the server's JSON encodes them (non-finite as null)."""
    return [v if math.isfinite(v) else None for v in y.tolist()]


class State:
    pass


def start_server(ctx, registry_root) -> ServerProcess:
    """The server child on ``registry_root``, answering pings."""
    server = ServerProcess(registry_root, ctx.run_dir, trace_out=ctx.child_trace_path)
    try:
        wait_ready(server.host, server.port)
    except BaseException:
        server.stop()
        raise
    return server


def setup(ctx):
    from repro.apps import get_application
    from repro.core import CPRModel
    from repro.core.completion import resolve_backend
    from repro.datasets import generate_dataset
    from repro.serve import ModelRegistry

    resolve_backend()
    s = State()
    app = get_application(APP)
    train = generate_dataset(app, N_TRAIN, seed=ctx.seed)
    model = CPRModel(space=app.space, cells=16, rank=4, seed=ctx.seed)
    model.fit(train.X, train.y)
    registry = ModelRegistry(ctx.run_dir.sub("registry"))
    s.version = registry.publish(MODEL, model).version
    # The served version as the server will load it: its bytes, not the
    # in-memory object that was published.
    s.served = registry.load(MODEL, s.version)
    rows = CONFIG["rows_per_request"]
    rng = np.random.default_rng(ctx.seed + 1)
    s.batches = [app.space.sample(rows, rng=rng) for _ in range(POOL)]
    s.truth = [app.measure(X, rng=rng) for X in s.batches]
    s.predicted = [s.served.predict(X) for X in s.batches]
    s.expected = [finite_list(y) for y in s.predicted]
    s.payloads = [
        json.dumps({"op": "predict", "model": MODEL, "x": X.tolist()})[1:].encode()
        for X in s.batches
    ]
    s.arrival_rng = np.random.default_rng(ctx.seed + 2)
    s.server = start_server(ctx, registry.root)
    return s


def _body(state, tag) -> bytes:
    rid, idx = tag
    return b'{"rid": %d, ' % rid + state.payloads[idx]


class Step:
    """One rate of the schedule and what came back."""

    def __init__(self, rate: float, duration_s: float, early_stop: bool):
        self.rate = rate
        self.n = max(int(round(rate * duration_s)), 1)
        self.percentile = tail_percentile(self.n)
        self.allowed = int(self.n * (100.0 - self.percentile) / 100.0)
        self.early_stop = early_stop
        self.misses = 0
        self.outcomes: list = []
        self.elapsed_s = 0.0


def arrivals(rng, rate: float, n: int, start: float) -> list:
    """Due times of ``n`` random arrivals (independent users) at ``rate`` per second.

    Each second gets ``rate`` arrivals at uniformly random instants: locally
    Poisson-like, but with no multi-second bursts, so the tail latency does
    not hinge on one seed's largest burst.
    """
    per_s = int(rate)
    due = [second + u for second in range((n + per_s - 1) // per_s)
           for u in np.sort(rng.uniform(0.0, 1.0, per_s))]
    return [start + d for d in due[:n]]


def _run_step(ctx, state, client, step: Step, rid0: int, limit_ms: float) -> None:
    def on_done(out):
        rid, idx = out.tag
        good = out.ok
        if good:
            body = out.body
            if body.get("model") != f"{MODEL}@v{state.version}":
                ctx.violate(f"serve: request {rid} answered by {body.get('model')}")
                good = False
            elif body.get("y") != state.expected[idx]:
                ctx.violate(f"serve: request {rid} predictions differ from "
                            "the served version's in-process predict")
                good = False
        else:
            ctx.violate(f"serve: request {rid} failed: "
                        f"{out.error or (out.status, out.body)}")
        out.good, out.body = good, None
        if not good or out.latency_ms > limit_ms:
            step.misses += 1

    start = time.perf_counter()
    dues = arrivals(state.arrival_rng, step.rate, step.n, start)
    schedule = [(due, (rid0 + i, (rid0 + i) % POOL)) for i, due in enumerate(dues)]
    step.outcomes = client.run(
        schedule, lambda tag: _body(state, tag), on_done,
        should_stop=lambda: step.early_stop and step.misses > step.allowed,
    )
    step.elapsed_s = time.perf_counter() - start


def _judge(step: Step, limit_ms: float) -> dict:
    sent = [o for o in step.outcomes if o.sent is not None]
    good = [o for o in sent if o.good]
    failed = len(sent) - len(good)
    # Unsent (stopped) and failed requests miss the limit by definition.
    lat = [o.latency_ms for o in good] + [math.inf] * (step.n - len(good))
    _, tail_ms = tail(lat)
    last = sorted(sent, key=lambda o: o.due)[-10:]
    backlog = any(1e3 * (o.sent - o.due) > limit_ms for o in last)
    return {
        "rate": step.rate,
        "scheduled": step.n,
        "sent": len(sent),
        "succeeded": len(good),
        "failed": failed,
        "stopped": step.n - len(sent),
        "tail_percentile": step.percentile,
        "tail_ms": tail_ms,
        "growing_backlog": backlog,
        "ok": failed == 0 and len(sent) == step.n and tail_ms <= limit_ms and not backlog,
    }


def measure(ctx, state):
    from repro.metrics import mlogq

    limit = CONFIG["latency_limit_ms"]
    reference = Step(CONFIG["reference_rps"], ctx.seconds, early_stop=False)
    ladder_s = ctx.seconds * CONFIG["ladder_step_share"]
    ladder = [Step(r, ladder_s, early_stop=True) for r in CONFIG["ladder_rps"]]
    rid = 0
    with OpenLoopClient(state.server.host, state.server.port,
                        connections=CONFIG["connections"]) as client:
        for step in [reference, *ladder]:
            _run_step(ctx, state, client, step, rid, limit)
            rid += step.n
    ctx.end_timed()
    state.stats = request_once(state.server.host, state.server.port, {"op": "stats"})
    steps = [_judge(step, limit) for step in [reference, *ladder]]

    ref_ok = [o for o in reference.outcomes if o.good]
    if not ref_ok:
        raise RuntimeError("serve: no correct answer at the reference rate; "
                           + "; ".join(ctx.violations[:3]))
    lat = [o.latency_ms for o in ref_ok]
    p, tail_ms = tail(lat)
    attempted = sum(s["sent"] for s in steps)
    failed = sum(s["failed"] for s in steps)
    ok_rates = [s["rate"] for s in steps if s["ok"]]
    state.service_ms = {o.tag[0]: o.service_ms for o in ref_ok}
    lateness = [1e3 * (o.queued - o.due) for o in reference.outcomes if o.queued]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": len(ref_ok) / reference.elapsed_s,
            "latency_p50_ms": median(lat),
            "latency_tail_ms": tail_ms,
            "mlogq": sum(mlogq(state.predicted[o.tag[1]], state.truth[o.tag[1]])
                         for o in ref_ok) / len(ref_ok),
            "cpr_model_bytes": float(state.served.size_bytes),
        },
        "layers": {
            "max_ok_rps": max(ok_rates, default=0.0),
            "failed_frac": failed / max(attempted, 1),
            "gen.lateness_ms": tail(lateness)[1],
            "serve.admission.shed": state.stats["admission"]["shed"],
        },
        "detail": {"latency_tail_percentile": p, "latency_samples": len(lat),
                   "latency_ms": quantiles(lat),
                   "steps": steps},
    }


def transport_ms(service_ms: dict, child_records: list) -> float:
    """Median client send-to-answer time minus the server's ``handle`` time."""
    handle = {r["rid"]: 1e3 * (r["end"] - r["start"]) for r in child_records
              if r["name"] == "serve.server.handle" and r["rid"] is not None}
    gaps = [ms - handle[rid] for rid, ms in service_ms.items() if rid in handle]
    return median(gaps) if gaps else 0.0


def layers(ctx, state, child_records) -> dict:
    return {"serve.transport_ms": transport_ms(state.service_ms, child_records)}


def teardown(ctx, state):
    server = getattr(state, "server", None)
    return {"server_peak_mb": server.stop()} if server is not None else {}
