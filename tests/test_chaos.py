"""Chaos suite: tier-1 invariants replayed under injected faults.

Every test here follows the same shape: install a deterministic
:class:`repro.faults.FaultPlan` against one or more named injection
sites, run a scenario the ordinary test suite already proves correct,
and assert the *same* invariants hold — exact per-version predictions,
journal-resume bookkeeping, registry cache coherence — while the fault
fires.

Fault classes exercised:

1. **I/O errors** — registry blob write/read, runtime job execution
   (absorbed by ``retry_call``; persistent job failures quarantined).
2. **Torn writes** — a version manifest truncated mid-file (latest
   resolution falls back to the newest readable predecessor).
3. **Hangs** — a wedged predict (per-request 504 + flush-worker
   replacement).
4. **Refit/publish failures** — the streaming trainer keeps serving the
   incumbent, backs off, and recovers.

Killed processes are the work queue's failure mode and are tested there
(``tests/test_queue.py`` SIGKILLs a worker mid-batch).

``REPRO_CHAOS_SEED`` selects the plan seed (CI pins it; default 0) —
per-site RNG streams are sha256-derived, so a given seed reproduces the
same schedule on any machine.
"""
from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.apps import Broadcast
from repro.core import CPRModel
from repro.datasets import generate_dataset
from repro.faults import FaultPlan, retry_call
from repro.runtime import JobSpec, Runtime
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ModelServer,
    PredictTimeout,
)
from repro.serve.server import Overloaded  # noqa: F401  (protocol sibling)
from repro.stream import DriftMonitor, IncrementalTrainer, StreamSession
from repro.stream.buffer import ObservationBuffer
from repro.stream.runner import make_model_factory

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def plan(**kwargs) -> FaultPlan:
    return FaultPlan(seed=CHAOS_SEED, **kwargs)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """No test may leave a plan installed for its neighbours."""
    yield
    faults.clear()


@pytest.fixture(scope="module")
def bcast_data():
    app = Broadcast()
    train = generate_dataset(app, 256, seed=0)
    test = generate_dataset(app, 16, seed=1)
    return app, train, test


def _fit(app, train, seed=0, rank=2):
    return CPRModel(
        space=app.space, cells=4, rank=rank, seed=seed, max_sweeps=5
    ).fit(train.X, train.y)


@pytest.fixture(scope="module")
def fitted(bcast_data):
    app, train, _ = bcast_data
    return _fit(app, train)


def _factory(app, **kw):
    params = dict(cells=4, rank=2, max_sweeps=5, seed=0)
    params.update(kw)
    return make_model_factory(app.space, **params)


# -- the fault framework itself ------------------------------------------------


class TestFaultPlan:
    def test_disabled_is_inert(self):
        assert faults.active() is None
        faults.fault_point("nowhere")  # no plan: must be a no-op
        assert faults.mangle("nowhere", b"abc") == b"abc"

    def test_deterministic_schedule_per_seed(self):
        def schedule(seed):
            p = FaultPlan(seed=seed).on(
                "x", "error", prob=0.5, max_fires=None
            )
            fired = []
            for _ in range(32):
                try:
                    p.check("x")
                    fired.append(0)
                except OSError:
                    fired.append(1)
            return fired

        assert schedule(CHAOS_SEED) == schedule(CHAOS_SEED)
        assert 0 < sum(schedule(CHAOS_SEED)) < 32  # actually probabilistic
        # The firing stream is site-keyed, not hit-order-keyed: another
        # site's draws cannot perturb this one's.
        p = FaultPlan(seed=CHAOS_SEED)
        p.on("x", "error", prob=0.5, max_fires=None)
        p.on("y", "error", prob=0.5, max_fires=None)
        fired = []
        for _ in range(32):
            try:
                p.check("y")
            except OSError:
                pass
            try:
                p.check("x")
                fired.append(0)
            except OSError:
                fired.append(1)
        assert fired == schedule(CHAOS_SEED)

    def test_after_and_max_fires_budget(self):
        p = plan().on("s", "error", after=2, max_fires=2)
        outcomes = []
        for _ in range(6):
            try:
                p.check("s")
                outcomes.append("ok")
            except OSError:
                outcomes.append("boom")
        assert outcomes == ["ok", "ok", "boom", "boom", "ok", "ok"]
        assert p.hits("s") == 6 and p.fires("s") == 2

    def test_torn_truncates_bytes(self):
        p = plan().on("w", "torn", keep_fraction=0.25)
        data = bytes(range(64))
        torn = p.corrupt("w", data)
        assert torn == data[:16]
        assert p.corrupt("w", data) == data  # budget spent: clean again

    def test_json_roundtrip_and_env_transport(self):
        p = plan().on("a", "error", error="timeout", max_fires=3)
        p.on("b", "hang", delay_s=0.5)
        clone = FaultPlan.from_json(p.to_json())
        assert clone.seed == p.seed and clone.sites() == ["a", "b"]
        try:
            faults.install_from_env({faults.ENV_VAR: p.to_json()})
            assert faults.active().sites() == ["a", "b"]
            with pytest.raises(TimeoutError):
                faults.fault_point("a")
        finally:
            faults.clear()
        assert faults.install_from_env({}) is None
        assert faults.active() is None  # an empty env never clears... or installs

    def test_injected_scopes_and_restores(self):
        outer = faults.install(plan())
        try:
            with faults.injected(plan().on("q", "error")) as inner:
                assert faults.active() is inner
                with pytest.raises(OSError):
                    faults.fault_point("q")
            assert faults.active() is outer
        finally:
            faults.clear()

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="kind"):
            plan().on("s", "melt")
        with pytest.raises(ValueError, match="error class"):
            plan().on("s", "error", error="kernel_panic")
        with pytest.raises(ValueError, match="prob"):
            plan().on("s", "error", prob=1.5)

    @pytest.mark.parametrize("kind", ["crash", "stop"])
    def test_process_killing_kinds_are_unknown(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultRule("x", kind=kind)


class TestRetryCall:
    def test_transient_then_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        assert retry_call(flaky, attempts=3, base_delay_s=0.0) == "done"
        assert len(calls) == 3

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def bug():
            calls.append(1)
            raise ValueError("deterministic")

        with pytest.raises(ValueError):
            retry_call(bug, attempts=5, base_delay_s=0.0)
        assert len(calls) == 1

    def test_budget_exhaustion_raises_last(self):
        with pytest.raises(OSError):
            retry_call(
                lambda: (_ for _ in ()).throw(OSError("always")),
                attempts=3, base_delay_s=0.0,
            )

    def test_deadline_cuts_retries_short(self):
        calls = []

        def slow_fail():
            calls.append(1)
            raise OSError("down")

        t0 = time.monotonic()
        with pytest.raises(OSError):
            retry_call(
                slow_fail, attempts=50,
                base_delay_s=0.2, max_delay_s=0.2, deadline_s=0.05, seed=1,
            )
        assert time.monotonic() - t0 < 1.0
        assert len(calls) < 50


# -- fault class 1: I/O errors through the registry ----------------------------


class TestRegistryIOFaults:
    def test_publish_retries_transient_blob_write(self, tmp_path, bcast_data, fitted):
        _, _, test = bcast_data
        reg = ModelRegistry(tmp_path)
        p = plan().on("registry.write", "error", max_fires=1)
        with faults.injected(p):
            mv = reg.publish("m", fitted)
        assert p.fires("registry.write") == 1  # it did fail once
        np.testing.assert_allclose(
            reg.load("m").predict(test.X), fitted.predict(test.X)
        )
        assert mv.version == 1

    def test_persistent_write_failure_propagates_before_any_claim(
        self, tmp_path, fitted
    ):
        reg = ModelRegistry(tmp_path)
        with faults.injected(plan().on("registry.write", "error", max_fires=None)):
            with pytest.raises(OSError):
                reg.publish("m", fitted)
        # No manifest may reference a blob that never landed.
        assert "m" not in reg
        assert list((tmp_path / "models").glob("*/*.json")) == []

    def test_load_retries_transient_blob_read(self, tmp_path, bcast_data, fitted):
        _, _, test = bcast_data
        reg = ModelRegistry(tmp_path, cache_size=0)  # force the disk path
        reg.publish("m", fitted)
        p = plan().on("registry.read", "error", max_fires=1)
        with faults.injected(p):
            model = reg.load("m")
        assert p.fires("registry.read") == 1
        np.testing.assert_allclose(model.predict(test.X), fitted.predict(test.X))

    def test_cache_coherence_after_faulted_load(self, tmp_path, bcast_data, fitted):
        """A load that needed retries must not poison the digest cache."""
        app, train, test = bcast_data
        reg = ModelRegistry(tmp_path, cache_size=4)
        reg.publish("m", fitted)
        with faults.injected(plan().on("registry.read", "error", max_fires=1)):
            reg.load("m")
        v2 = _fit(app, train, seed=9, rank=3)
        reg.publish("m", v2)
        np.testing.assert_allclose(reg.load("m").predict(test.X), v2.predict(test.X))
        np.testing.assert_allclose(
            reg.load("m", version=1).predict(test.X), fitted.predict(test.X)
        )


# -- fault class 2: torn writes ------------------------------------------------


class TestTornManifest:
    def test_latest_falls_back_over_torn_manifest(self, tmp_path, bcast_data, fitted):
        app, train, test = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", fitted)
        v2 = _fit(app, train, seed=9, rank=3)
        with faults.injected(plan().on("registry.manifest", "torn")):
            reg.publish("m", v2)  # v2's manifest lands half-written

        fresh = ModelRegistry(tmp_path)  # no memoized state: reads disk
        mv = fresh.resolve("m")
        assert mv.version == 1  # incumbent, not the torn v2
        np.testing.assert_allclose(
            fresh.load("m").predict(test.X), fitted.predict(test.X)
        )
        with pytest.raises(KeyError):  # explicit version: never silently remapped
            fresh.resolve("m", version=2)
        # A later good publish claims v3 and heals the latest pointer.
        reg2 = ModelRegistry(tmp_path)
        mv3 = reg2.publish("m", v2)
        assert mv3.version == 3
        np.testing.assert_allclose(
            fresh.load("m").predict(test.X), v2.predict(test.X)
        )

    def test_server_keeps_answering_over_torn_latest(
        self, tmp_path, bcast_data, fitted
    ):
        _, _, test = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", fitted)
        with faults.injected(plan().on("registry.manifest", "torn")):
            reg.publish("m", fitted)
        server = ModelServer(ModelRegistry(tmp_path), default_model="m")
        resp = server.handle({"op": "predict", "x": test.X[:4].tolist()})
        assert resp["ok"] and resp["model"] == "m@v1"
        np.testing.assert_allclose(resp["y"], fitted.predict(test.X[:4]))
        server.close()


# -- fault class 1b: I/O errors through the runtime ----------------------------


def _tune_spec(seed=0) -> JobSpec:
    return JobSpec(
        "repro.experiments.harness:run_tune_job",
        dict(
            app="matmul", model="knn", n_train=128, n_test=64,
            grid=[{"k": 1}, {"k": 2}], seed=seed,
        ),
    )


def _strip_times(records: list) -> list:
    """Zero the wall-clock fit timings (the only non-deterministic field)."""
    out = []
    for rec in records:
        if rec is None:
            out.append(None)
            continue
        rec = dict(rec)
        rec["results"] = [[p, e, s, 0.0] for p, e, s, _ in rec.get("results", [])]
        out.append(rec)
    return out


class TestRuntimeFaults:
    def test_transient_failure_retried_with_identical_record(self, tmp_path):
        baseline = Runtime().run([_tune_spec()])
        p = plan().on("runtime.job", "error", max_fires=1)
        with faults.injected(p):
            rt = Runtime(cache_dir=tmp_path, retries=2, retry_delay_s=0.0)
            faulted = rt.run([_tune_spec()])
        assert p.fires("runtime.job") == 1
        # Per-attempt reseeding: the retried job replays the exact run.
        assert _strip_times(faulted) == _strip_times(baseline)
        assert rt.executed == 1 and rt.quarantined == []
        # And the cached record is the real one, not the failed attempt's.
        rt2 = Runtime(cache_dir=tmp_path)
        assert rt2.run([_tune_spec()]) == faulted
        assert rt2.hits == 1

    def test_poison_job_quarantined_sequentially(self, tmp_path):
        specs = [_tune_spec(seed=0), _tune_spec(seed=1), _tune_spec(seed=2)]
        baseline = Runtime().run(specs)
        # ValueError is not in retry_on: job #1 is a deterministic bug.
        p = plan().on("runtime.job", "error", error="value", after=1, max_fires=1)
        with faults.injected(p):
            rt = Runtime(cache_dir=tmp_path, quarantine=True, retry_delay_s=0.0)
            results = rt.run(specs)
        assert _strip_times(results[:1]) == _strip_times(baseline[:1])
        assert _strip_times(results[2:]) == _strip_times(baseline[2:])
        assert results[1] is None
        assert [spec.key for spec, _ in rt.quarantined] == [specs[1].key]
        # The poison job was never cached: a clean rerun executes it.
        rt2 = Runtime(cache_dir=tmp_path)
        healed = rt2.run(specs)
        assert _strip_times(healed) == _strip_times(baseline)
        assert rt2.hits == 2 and rt2.executed == 1

    def test_failure_without_quarantine_still_raises(self):
        with faults.injected(
            plan().on("runtime.job", "error", error="value", max_fires=1)
        ):
            with pytest.raises(ValueError):
                Runtime(retry_delay_s=0.0).run([_tune_spec()])


# -- fault class 4: stream refit / publish failures ----------------------------


class TestStreamDegradation:
    def _session(self, tmp_path, app, train, **trainer_kw):
        factory = _factory(app)
        monitor = DriftMonitor(window=32, threshold=10.0, min_count=10**6)
        trainer = IncrementalTrainer(
            factory, monitor=monitor,
            failure_backoff_s=trainer_kw.pop("failure_backoff_s", 0.05),
            **trainer_kw,
        )
        registry = ModelRegistry(tmp_path / "reg")
        session = StreamSession(
            registry, "m", factory, monitor=monitor, trainer=trainer,
            buffer=ObservationBuffer(window=512),
        )
        session.observe(train.X[:128], train.y[:128])  # initial fit + publish v1
        assert session.published_versions == [1]
        return session, registry

    def test_failed_partial_keeps_incumbent_then_recovers(
        self, tmp_path, bcast_data
    ):
        app, train, test = bcast_data
        session, registry = self._session(tmp_path, app, train)
        incumbent = session.model
        expect = incumbent.predict(test.X)

        with faults.injected(
            plan().on("stream.partial", "error", error="runtime", max_fires=1)
        ):
            rec = session.observe(train.X[128:160], train.y[128:160])
        assert rec["action"] == "failed" and rec["stage"] == "partial"
        assert session.degraded
        # Graceful degradation: the incumbent still serves, bit-exact.
        assert session.model is incumbent
        np.testing.assert_allclose(session.model.predict(test.X), expect)
        np.testing.assert_allclose(
            registry.load("m").predict(test.X), expect
        )

        # Inside the backoff window, updates are deferred, not retried.
        rec = session.observe(train.X[160:168], train.y[160:168])
        assert rec["action"] == "deferred"
        assert session.buffer.n_seen > session.buffer.flushed  # nothing dropped

        time.sleep(0.06)  # let the backoff lapse
        rec = session.observe(train.X[168:200], train.y[168:200])
        # A failed partial may have torn warm-start state: recovery is a
        # full refit from the window, which also republishes.
        assert rec["action"] == "refit" and rec["reason"] == "recover"
        assert rec["published_version"] == 2
        assert not session.degraded
        assert session.buffer.flushed == session.buffer.n_seen
        np.testing.assert_allclose(
            registry.load("m").predict(test.X), session.model.predict(test.X)
        )

    def test_failed_publish_degrades_and_next_refit_heals(
        self, tmp_path, bcast_data
    ):
        app, train, test = bcast_data
        session, registry = self._session(tmp_path, app, train)
        expect_v1 = registry.load("m").predict(test.X)

        # Exhaust the publish retry budget (3 attempts).
        with faults.injected(plan().on("stream.publish", "error", max_fires=3)):
            session.trainer._force_refit = True  # deterministic refit trigger
            rec = session.observe(train.X[128:160], train.y[128:160])
        assert rec["action"] == "refit"
        assert rec["published_version"] is None
        assert "publish_error" in rec
        assert session.degraded and session.publish_failures == 1
        # Consumers keep resolving the incumbent version.
        assert registry.resolve("m").version == 1
        np.testing.assert_allclose(registry.load("m").predict(test.X), expect_v1)

        session.trainer._force_refit = True
        rec = session.observe(train.X[160:200], train.y[160:200])
        assert rec["action"] == "refit" and rec["published_version"] == 2
        assert not session.degraded
        assert session.summary()["publish_failures"] == 1

    def test_transient_publish_failure_absorbed_by_retry(
        self, tmp_path, bcast_data
    ):
        app, train, _ = bcast_data
        factory = _factory(app)
        registry = ModelRegistry(tmp_path / "reg")
        session = StreamSession(registry, "m", factory)
        with faults.injected(plan().on("stream.publish", "error", max_fires=1)):
            rec = session.observe(train.X[:96], train.y[:96])
        assert rec["action"] == "fit" and rec["published_version"] == 1
        assert not session.degraded and session.publish_failures == 0

    def test_journal_resume_exact_after_faulted_run(self, tmp_path, bcast_data):
        """The resume invariant survives a chaotic first run."""
        app, train, _ = bcast_data
        factory = _factory(app)
        registry = ModelRegistry(tmp_path / "reg")
        journal = tmp_path / "m.jsonl"
        buffer = ObservationBuffer(journal=journal, window=512)
        session = StreamSession(registry, "m", factory, buffer=buffer)
        with faults.injected(plan().on("registry.write", "error", max_fires=1)):
            session.observe(train.X[:96], train.y[:96])
        session.observe(train.X[96:128], train.y[96:128])
        seen, flushed = session.buffer.n_seen, session.buffer.flushed
        session.buffer.close()

        with faults.injected(plan().on("registry.read", "error", max_fires=1)):
            resumed = StreamSession.resume(registry, "m", journal, factory)
        assert resumed.resumed_from == registry.resolve("m").meta["stream_seq"]
        assert resumed.buffer.n_seen == seen
        assert resumed.buffer.flushed <= flushed
        resumed.buffer.close()


# -- fault class 3: wedged predicts -> 504, not a wedged server ----------------


class TestPredictTimeout:
    def test_microbatcher_timeout_and_worker_replacement(self):
        release = threading.Event()
        calls = []

        def flush(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                release.wait(5.0)  # first flush wedges until released
            return np.zeros(len(batch))

        mb = MicroBatcher(flush, timeout_s=0.15)
        try:
            with pytest.raises(PredictTimeout):
                mb.submit(np.zeros((1, 2)))
            # The wedged worker was abandoned and replaced: a fresh
            # submit is answered by the replacement while the old flush
            # is still stuck.
            out = mb.submit(np.zeros((2, 2)))
            assert out.shape == (2,)
            assert mb._replacements >= 1
        finally:
            release.set()
            mb.close()

    def test_replaces_worker_wedged_on_a_flush_younger_than_the_timeout(self):
        # The timed-out submit waits 0.1 s behind a slow flush; the flush
        # that takes it then wedges.  When the submit gives up, that flush
        # is only ~0.1 s old, shorter than the timeout, yet it is the one
        # holding the item: the worker must be replaced right then, or
        # the next submit queues behind the wedge and times out too.
        release = threading.Event()
        started = threading.Event()
        calls = []

        def flush(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                started.set()
                time.sleep(0.1)  # slow, but returns
            elif len(calls) == 2:
                release.wait(5.0)  # wedges until released
            return np.zeros(len(batch))

        mb = MicroBatcher(flush, timeout_s=0.2)
        first = threading.Thread(target=mb.submit, args=(np.zeros((1, 2)),))
        try:
            first.start()
            assert started.wait(5.0)
            with pytest.raises(PredictTimeout):
                mb.submit(np.zeros((1, 2)))
            assert mb._replacements == 1
            out = mb.submit(np.zeros((3, 2)))
            assert out.shape == (3,)
        finally:
            release.set()
            first.join(timeout=5.0)
            mb.close()
        assert not first.is_alive()

    def test_server_answers_504_then_recovers(self, tmp_path, bcast_data, fitted):
        _, _, test = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", fitted)
        server = ModelServer(
            reg, default_model="m", microbatch=True, request_timeout_ms=100.0,
        )
        try:
            with faults.injected(
                plan().on("engine.predict", "hang", delay_s=0.6, max_fires=1)
            ):
                resp = server.handle({"op": "predict", "x": test.X[:2].tolist()})
                assert resp == {"ok": False, "error": "timeout", "code": 504}
                # The flush pipeline is not wedged: the next request (the
                # hang budget is spent) is answered exactly.
                resp = server.handle({"op": "predict", "x": test.X[:2].tolist()})
            assert resp["ok"]
            np.testing.assert_allclose(resp["y"], fitted.predict(test.X[:2]))
        finally:
            server.close()

    def test_no_timeout_configured_waits(self, tmp_path, bcast_data, fitted):
        _, _, test = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", fitted)
        server = ModelServer(reg, default_model="m", microbatch=True)
        try:
            with faults.injected(
                plan().on("engine.predict", "hang", delay_s=0.2, max_fires=1)
            ):
                resp = server.handle({"op": "predict", "x": test.X[:2].tolist()})
            assert resp["ok"]  # slow, but answered — historical behaviour
        finally:
            server.close()
