"""``stream``: drifting observation streams republishing into a served registry.

Three ``StreamSession`` replays (kripke, amg and bcast, each with a step
drift halfway through) are driven closed loop and round-robin on the main
thread.  Drift is scored by the in-process model, so which batches refit
is a pure function of the seed.  Every refit publishes a new version into
the registry that a child ``python -m repro.serve --http 0`` serves.  A
second thread sends open-loop ``name@latest`` queries at the reference
rate, below the server's capacity, for as long as the streams run.

Why: this workload writes (refit, publish, hot-swap) beside reads, so a
gain for reads that costs publishing, or the reverse, shows here.

Absorbing observations is CPU-bound, so ``ops_per_s`` is reported at the
nominal host speed of :mod:`hostspeed`, from a reference slice taken
every few batches.  Query latencies are not scaled.
"""
from __future__ import annotations

import json
import threading
import time

from client import OpenLoopClient, request_once
from harness import CONFIG, median, quantiles, tail
from hostspeed import HostSpeed
from serve_workload import arrivals, finite_list, start_server, transport_ms

APPS = ("kripke", "amg", "bcast")
BATCH = 32
QUERY_ROWS = 32
#: Query bodies per stream, cycled through by the query schedule.
POOL = 16
#: Nominal batches absorbed per second; ``--seconds`` sets the stream length.
BATCHES_PER_S = 16.0
DRIFT_FACTOR = 2.0
#: A host-speed slice after every this-many batches.
TICK_EVERY = 4
#: Every this-many-th answered query is re-predicted in-process.
SPOT_CHECK_EVERY = 8


class Stream:
    """One application's session, its observation generator and query bodies."""

    def __init__(self, app, session, rng, queries, payloads):
        self.app, self.session, self.rng = app, session, rng
        self.name = session.name
        self.queries, self.payloads = queries, payloads
        #: version -> (observe() start, observe() return) of the publishing call
        self.published: dict = {}

    def observe(self, records: list) -> None:
        X = self.app.space.sample(BATCH, rng=self.rng)
        y = self.app.measure(X, rng=self.rng)
        start = time.perf_counter()
        record = self.session.observe(X, y)
        end = time.perf_counter()
        if record.get("published_version") is not None:
            self.published[record["published_version"]] = (start, end)
        records.append(record)


class State:
    pass


def setup(ctx):
    import numpy as np

    from repro.core.completion import resolve_backend
    from repro.serve import ModelRegistry
    from repro.stream import StreamTask

    resolve_backend()
    s = State()
    s.registry = ModelRegistry(ctx.run_dir.sub("registry"))
    per_stream = max(int(round(ctx.seconds * BATCHES_PER_S / len(APPS))), 2)
    s.batches = per_stream * len(APPS)
    s.streams = []
    for k, app_name in enumerate(APPS):
        task = StreamTask(app_name, n=per_stream * BATCH, batch=BATCH, seed=ctx.seed + k,
                          shift_at=per_stream * BATCH // 2, drift_factor=DRIFT_FACTOR)
        app, session = task.build_session(s.registry)
        qrng = np.random.default_rng(ctx.seed + 100 + k)
        queries = [app.space.sample(QUERY_ROWS, rng=qrng) for _ in range(POOL)]
        payloads = [json.dumps({"op": "predict", "model": f"{session.name}@latest",
                                "x": X.tolist()})[1:].encode() for X in queries]
        s.streams.append(Stream(app, session, np.random.default_rng(ctx.seed + k),
                                queries, payloads))
    # The first batch of each stream fits and publishes version 1.
    s.setup_records = []
    for stream in s.streams:
        stream.observe(s.setup_records)
    s.arrival_rng = np.random.default_rng(ctx.seed + 3)
    s.server = start_server(ctx, s.registry.root)
    return s


def _query_loop(state, client, outcomes: list, stop: threading.Event) -> None:
    rate = CONFIG["reference_rps"]
    n_streams = len(state.streams)
    # A horizon far past the streams' expected end; ``stop`` ends it early.
    horizon = int(rate * 20 * max(state.batches / BATCHES_PER_S, 1.0))
    dues = arrivals(state.arrival_rng, rate, horizon, time.perf_counter())
    schedule = [(due, (i, i % n_streams, (i // n_streams) % POOL))
                for i, due in enumerate(dues)]

    def body(tag):
        rid, k, idx = tag
        return b'{"rid": %d, ' % rid + state.streams[k].payloads[idx]

    def on_done(out):
        rid, k, idx = out.tag
        if out.ok and rid % SPOT_CHECK_EVERY:
            out.body = {"ok": True, "model": out.body.get("model")}

    try:
        outcomes.extend(client.run(schedule, body, on_done, should_stop=stop.is_set))
    except Exception as exc:  # re-raised on the main thread after join()
        outcomes.append(exc)


def _version(ref: str, name: str):
    prefix = f"{name}@v"
    if not isinstance(ref, str) or not ref.startswith(prefix):
        return None
    try:
        return int(ref[len(prefix):])
    except ValueError:
        return None


def _check(ctx, state, outcomes: list) -> list:
    """Gate every answer; return the answered outcomes that passed."""
    good = []
    last = {}  # (connection, stream) -> last version seen
    for out in sorted((o for o in outcomes if o.sent is not None), key=lambda o: o.done):
        rid, k, idx = out.tag
        stream = state.streams[k]
        if not out.ok:
            why = out.error or (out.status, out.body)
            ctx.violate(f"stream: query {rid} failed: {why}")
            continue
        version = _version(out.body.get("model"), stream.name)
        if version is None or version not in stream.published:
            ctx.violate(f"stream: query {rid} named an unpublished model "
                        f"{out.body.get('model')!r}")
            continue
        if stream.published[version][0] > out.done:
            ctx.violate(f"stream: query {rid} saw {stream.name} v{version} "
                        "before its publish began")
            continue
        key = (out.conn, k)
        if version < last.get(key, 0):
            ctx.violate(f"stream: connection {out.conn} went back from "
                        f"v{last[key]} to v{version} of {stream.name}")
            continue
        last[key] = version
        out.tag = (rid, k, idx, version)
        good.append(out)
    return good


def _spot_check(ctx, state, good: list) -> int:
    """Re-predict sampled answers with the named version in-process."""
    wrong = 0
    models = {}
    for out in good:
        rid, k, idx, version = out.tag
        if rid % SPOT_CHECK_EVERY:
            continue
        stream = state.streams[k]
        key = (stream.name, version)
        if key not in models:
            models[key] = state.registry.load(stream.name, version)
        want = finite_list(models[key].predict(stream.queries[idx]))
        if out.body.get("y") != want:
            ctx.violate(f"stream: query {rid} differs from {stream.name} "
                        f"v{version}'s in-process predict")
            wrong += 1
    return wrong


def _freshness(state, good: list) -> list:
    """Per published version: observe() return to the first due query answered
    by that version or a later one."""
    fresh = []
    for k, stream in enumerate(state.streams):
        answers = sorted((o for o in good if o.tag[1] == k), key=lambda o: o.due)
        for version, (_, returned) in sorted(stream.published.items()):
            for out in answers:
                if out.due >= returned and out.tag[3] >= version:
                    fresh.append(1e3 * (out.done - returned))
                    break
    return fresh


def measure(ctx, state):
    records: list = []
    outcomes: list = []
    stop = threading.Event()
    host = HostSpeed()
    ticks_s = 0.0
    with OpenLoopClient(state.server.host, state.server.port,
                        connections=CONFIG["connections"]) as client:
        reader = threading.Thread(target=_query_loop, name="perfbench-queries",
                                  args=(state, client, outcomes, stop))
        reader.start()
        try:
            host.tick()
            t0 = time.perf_counter()
            for i in range(state.batches - len(state.streams)):
                state.streams[i % len(state.streams)].observe(records)
                if i % TICK_EVERY == TICK_EVERY - 1:
                    ticks_s += host.tick()
            elapsed = time.perf_counter() - t0 - ticks_s
        finally:
            stop.set()
            reader.join()
    if outcomes and isinstance(outcomes[-1], Exception):
        raise RuntimeError("the query thread failed") from outcomes[-1]
    ctx.end_timed()
    state.stats = request_once(state.server.host, state.server.port, {"op": "stats"})

    good = _check(ctx, state, outcomes)
    if not good:
        raise RuntimeError("stream: no query was answered correctly; "
                           + "; ".join(ctx.violations[:3]))
    sent = [o for o in outcomes if o.sent is not None]
    wrong = _spot_check(ctx, state, good)
    failed = len(sent) - len(good) + wrong
    lat = [o.latency_ms for o in good]
    p, tail_ms = tail(lat)
    state.service_ms = {o.tag[0]: o.service_ms for o in good}
    fresh = _freshness(state, good)
    fp, fresh_tail = tail(fresh)
    errors = [r["batch_error"] for r in records if r.get("batch_error") is not None]
    trainers = [s.session.summary()["trainer"] for s in state.streams]
    flushes = len(records) + len(state.setup_records)
    refits = sum(t["refit"] for t in trainers)
    final_bytes = sum(state.registry.load(s.name).size_bytes for s in state.streams)
    lateness = [1e3 * (o.queued - o.due) for o in outcomes if o.queued]
    return {
        "attempted": len(sent),
        "failed": failed,
        "metrics": {
            "ops_per_s": len(records) * BATCH / (elapsed * host.scale()),
            "latency_p50_ms": median(lat),
            "latency_tail_ms": tail_ms,
            "mlogq": sum(errors) / len(errors),
            "cpr_model_bytes": float(final_bytes),
        },
        "layers": {
            "failed_frac": failed / max(len(sent), 1),
            "gen.lateness_ms": tail(lateness)[1],
            "stream.fresh_p50_ms": median(fresh),
            "stream.fresh_tail_ms": fresh_tail,
            "stream.trainer.partials": sum(t["partial"] for t in trainers),
            "stream.trainer.refits": refits,
            "stream.trainer.refit_share": refits / flushes,
            "serve.admission.shed": state.stats["admission"]["shed"],
        },
        "detail": {
            "batches": flushes,
            "measured_s": elapsed,
            "host_scale": host.scale(),
            "raw_ops_per_s": len(records) * BATCH / elapsed,
            "queries_answered": len(good),
            "latency_tail_percentile": p,
            "latency_ms": quantiles(lat),
            "fresh_tail_percentile": fp,
            "fresh_samples": len(fresh),
            "published": {s.name: len(s.published) for s in state.streams},
            "trainers": trainers,
        },
    }


def layers(ctx, state, child_records) -> dict:
    return {"serve.transport_ms": transport_ms(state.service_ms, child_records)}


def teardown(ctx, state):
    server = getattr(state, "server", None)
    return {"server_peak_mb": server.stop()} if server is not None else {}
