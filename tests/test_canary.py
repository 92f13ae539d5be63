"""Tests for canary/shadow republish: registry channels, shadow trials,
and the drift-triggered promote/rollback loop.

The invariant chain: ``publish(channel="shadow")`` pins ``name@latest``
at the incumbent, ``promote`` flips it only by explicit decision, and
``rollback`` records the loser without ever having exposed it — so a
drifting stream's refit reaches consumers exactly when it *measured*
better on the live prequential stream, and never otherwise.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.apps import Broadcast
from repro.core import CPRModel
from repro.datasets import generate_dataset
from repro.serve import ModelRegistry, ModelServer
from repro.stream import (
    DriftingApplication,
    MultiStreamDriver,
    ShadowTrial,
    StreamSession,
    StreamTask,
    replay_application,
)
from repro.stream.drift import DriftMonitor
from repro.stream.runner import make_model_factory
from repro.stream.trainer import IncrementalTrainer


@pytest.fixture(scope="module")
def bcast_data():
    app = Broadcast()
    train = generate_dataset(app, 256, seed=0)
    test = generate_dataset(app, 16, seed=1)
    return app, train, test


def _fit(app, train, seed=0):
    return CPRModel(
        space=app.space, cells=4, rank=2, seed=seed, max_sweeps=5
    ).fit(train.X, train.y)


def _session(registry, name, app, *, margin=0.02, min_scores=16,
             max_scores=96, threshold=0.25, window=48, min_count=24):
    factory = make_model_factory(
        app.space, cells=6, rank=2, max_sweeps=15, seed=0
    )
    monitor = DriftMonitor(window=window, threshold=threshold, min_count=min_count)
    return StreamSession(
        registry, name, IncrementalTrainer(factory, monitor=monitor),
        canary=True, canary_margin=margin,
        canary_min_scores=min_scores, canary_max_scores=max_scores,
    )


class TestRegistryChannels:
    def test_shadow_publish_pins_latest_at_incumbent(self, tmp_path, bcast_data):
        app, train, _ = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", _fit(app, train))
        mv = reg.publish("m", _fit(app, train, seed=1), channel="shadow")
        assert mv.version == 2
        assert reg.channels("m") == {"latest": 1, "shadow": 2}
        assert reg.resolve("m").version == 1
        assert reg.resolve("m", channel="shadow").version == 2

    def test_shadow_publish_without_incumbent_refuses(self, tmp_path, bcast_data):
        app, train, _ = bcast_data
        reg = ModelRegistry(tmp_path)
        with pytest.raises(ValueError, match="no incumbent"):
            reg.publish("m", _fit(app, train), channel="shadow")

    def test_promote_flips_latest_and_clears_shadow(self, tmp_path, bcast_data):
        app, train, test = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", _fit(app, train))
        shadow_model = _fit(app, train, seed=1)
        reg.publish("m", shadow_model, channel="shadow")
        mv = reg.promote("m")
        assert mv.version == 2
        assert reg.channels("m") == {"latest": 2, "shadow": None}
        assert reg.resolve("m").version == 2
        # The promoted artifact is the shadow's bytes, exactly.
        model, _ = reg.load_resolved(reg.resolve("m"))
        np.testing.assert_allclose(
            model.predict(test.X), shadow_model.predict(test.X)
        )

    def test_promote_is_visible_immediately(self, tmp_path, bcast_data):
        """The satellite bug: a promote landing inside the mtime settle
        window must not be masked by the pointer cache."""
        app, train, _ = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", _fit(app, train))
        reg.publish("m", _fit(app, train, seed=1), channel="shadow")
        # Prime both pointer caches, then promote back-to-back within
        # one settle window — no sleep between resolve and flip.
        assert reg.resolve("m").version == 1
        reg.promote("m")
        assert reg.resolve("m").version == 2
        reg.publish("m", _fit(app, train, seed=2), channel="shadow")
        assert reg.resolve("m", channel="shadow").version == 3
        reg.rollback("m", reason="test")
        with pytest.raises(KeyError, match="no shadow"):
            reg.resolve("m", channel="shadow")

    def test_rollback_records_loser_and_keeps_incumbent(self, tmp_path, bcast_data):
        app, train, _ = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", _fit(app, train))
        reg.publish("m", _fit(app, train, seed=1), channel="shadow")
        assert reg.rollback("m", reason="lost trial") == 2
        assert reg.channels("m") == {"latest": 1, "shadow": None}
        assert reg.resolve("m").version == 1
        # The loser's blob stays addressable for post-mortems.
        assert reg.resolve("m", version=2).version == 2
        events = [(h["event"], h.get("version")) for h in reg.history("m")]
        assert events == [("shadow", 2), ("rollback", 2)]
        assert reg.history("m")[-1]["reason"] == "lost trial"

    def test_plain_publish_advances_a_pinned_latest(self, tmp_path, bcast_data):
        app, train, _ = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", _fit(app, train))
        reg.publish("m", _fit(app, train, seed=1), channel="shadow")
        reg.rollback("m")
        # channels.json now exists with latest pinned at 1; a plain
        # publish must not hide v3 behind the stale pin.
        reg.publish("m", _fit(app, train, seed=2))
        assert reg.resolve("m").version == 3
        assert reg.channels("m")["latest"] == 3

    def test_fresh_registry_object_sees_the_flip(self, tmp_path, bcast_data):
        app, train, _ = bcast_data
        a = ModelRegistry(tmp_path)
        a.publish("m", _fit(app, train))
        a.publish("m", _fit(app, train, seed=1), channel="shadow")
        b = ModelRegistry(tmp_path)  # a second process, effectively
        assert b.resolve("m").version == 1
        a.promote("m")
        assert b.resolve("m").version == 2

    def test_promote_explicit_version_pins_known_good(self, tmp_path, bcast_data):
        app, train, _ = bcast_data
        reg = ModelRegistry(tmp_path)
        for seed in range(3):
            reg.publish("m", _fit(app, train, seed=seed))
        assert reg.resolve("m").version == 3
        reg.promote("m", version=1)  # operator pin
        assert reg.resolve("m").version == 1

    def test_promote_without_shadow_raises(self, tmp_path, bcast_data):
        app, train, _ = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", _fit(app, train))
        with pytest.raises(KeyError, match="no shadow"):
            reg.promote("m")
        with pytest.raises(KeyError, match="no shadow"):
            reg.rollback("m")


class TestServerChannelRefs:
    def test_name_at_shadow_and_latest_refs(self, tmp_path, bcast_data):
        app, train, test = bcast_data
        reg = ModelRegistry(tmp_path)
        reg.publish("m", _fit(app, train))
        reg.publish("m", _fit(app, train, seed=1), channel="shadow")
        srv = ModelServer(reg)
        x = test.X[:2].tolist()
        latest = srv.handle({"op": "predict", "model": "m@latest", "x": x})
        shadow = srv.handle({"op": "predict", "model": "m@shadow", "x": x})
        assert latest["ok"] and shadow["ok"]
        assert latest["model"] == "m@v1"
        assert shadow["model"] == "m@v2"
        bad = srv.handle({"op": "predict", "model": "m@nope", "x": x})
        assert not bad["ok"]


class TestShadowTrial:
    def _xy(self, n=32, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((n, 2)), np.full(n, 1.0)

    class _Fixed:
        def __init__(self, scale):
            self.scale = scale

        def predict(self, X):
            return np.full(len(X), self.scale)

    def test_better_candidate_promotes(self):
        X, y = self._xy()
        trial = ShadowTrial(
            self._Fixed(1.0), self._Fixed(3.0), version=2,
            margin=0.05, min_scores=16,
        )
        assert trial.decision() is None  # no evidence yet
        trial.score(X, y)
        assert trial.decision() == "promote"
        assert trial.candidate_error < trial.incumbent_error

    def test_worse_candidate_rolls_back(self):
        X, y = self._xy()
        trial = ShadowTrial(
            self._Fixed(3.0), self._Fixed(1.0), version=2,
            margin=0.05, min_scores=16,
        )
        trial.score(X, y)
        assert trial.decision() == "rollback"

    def test_tie_exhausts_budget_then_rolls_back(self):
        X, y = self._xy()
        trial = ShadowTrial(
            self._Fixed(2.0), self._Fixed(2.0), version=2,
            margin=0.05, min_scores=16, max_scores=64,
        )
        trial.score(X, y)
        assert trial.decision() is None  # tied, under budget: keep scoring
        trial.score(X, y)
        assert trial.decision() == "rollback"  # budget spent, no win

    def test_min_scores_gate(self):
        X, y = self._xy(n=8)
        trial = ShadowTrial(
            self._Fixed(1.0), self._Fixed(3.0), version=2,
            margin=0.05, min_scores=16,
        )
        trial.score(X, y)
        assert trial.decision() is None

    def test_crashing_predict_counts_against_that_model(self):
        class Broken:
            def predict(self, X):
                raise RuntimeError("boom")

        X, y = self._xy()
        trial = ShadowTrial(
            Broken(), self._Fixed(1.0), version=2, margin=0.05, min_scores=16
        )
        trial.score(X, y)
        assert trial.decision() == "rollback"

    def test_parameter_validation(self):
        m = self._Fixed(1.0)
        with pytest.raises(ValueError, match="margin"):
            ShadowTrial(m, m, 1, margin=1.5)
        with pytest.raises(ValueError, match="min_scores"):
            ShadowTrial(m, m, 1, min_scores=0)
        with pytest.raises(ValueError, match="max_scores"):
            ShadowTrial(m, m, 1, min_scores=8, max_scores=4)


class TestCanarySession:
    def test_drift_refit_promotes_through_shadow(self, tmp_path):
        """A genuine regime change: the refit wins its trial, and only
        then does ``name@latest`` flip — the acceptance scenario."""
        reg = ModelRegistry(tmp_path)
        app = DriftingApplication(Broadcast(), shift_at=150, factor=4.0)
        session = _session(reg, "m", app)
        summary = replay_application(app, session, 400, batch=25, seed=0)
        assert summary["promotions"] >= 1
        assert summary["publish_failures"] == 0
        # Every flip went through a shadow publish + explicit promote.
        events = [h["event"] for h in reg.history("m")]
        assert events.count("promote") == summary["promotions"]
        assert events.count("shadow") >= summary["promotions"]
        # What serves is the pinned winner, never an unreviewed refit.
        assert reg.resolve("m").version == reg.channels("m")["latest"]

    def test_unwinnable_margin_rolls_back_and_keeps_incumbent(self, tmp_path):
        """Stationary data + hair-trigger drift + 90% win margin: refits
        fire but cannot beat the incumbent, so every trial must roll
        back and v1 keeps serving."""
        reg = ModelRegistry(tmp_path)
        app = Broadcast()
        session = _session(
            reg, "m", app, margin=0.9, min_scores=16, max_scores=48,
            threshold=0.05, window=32, min_count=16,
        )
        summary = replay_application(app, session, 300, batch=25, seed=0)
        assert summary["rollbacks"] >= 1
        assert summary["publish_failures"] == 0
        assert summary["rolled_back_versions"]
        # Registry-side audit agrees with the session's loser list.
        losers = [
            h["version"] for h in reg.history("m") if h["event"] == "rollback"
        ]
        assert losers == summary["rolled_back_versions"]
        for v in summary["rolled_back_versions"]:
            assert reg.resolve("m").version != v

    def test_non_canary_session_republishes_directly(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        app = DriftingApplication(Broadcast(), shift_at=100, factor=4.0)
        factory = make_model_factory(
            app.space, cells=6, rank=2, max_sweeps=15, seed=0
        )
        monitor = DriftMonitor(window=48, threshold=0.25, min_count=24)
        session = StreamSession(
            reg, "m", IncrementalTrainer(factory, monitor=monitor)
        )
        summary = replay_application(app, session, 300, batch=25, seed=0)
        assert summary["promotions"] == 0 and summary["rollbacks"] == 0
        assert reg.history("m") == []  # no channel machinery engaged
        assert reg.resolve("m").version == max(summary["published_versions"])

    def test_superseding_refit_rolls_back_the_open_trial(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        app = DriftingApplication(Broadcast(), shift_at=120, factor=6.0)
        # max_scores high enough that trials outlive the next refit.
        session = _session(
            reg, "m", app, margin=0.9, min_scores=200, max_scores=400,
            threshold=0.05, window=32, min_count=16,
        )
        summary = replay_application(app, session, 350, batch=25, seed=0)
        superseded = [
            t for t in summary["trials"]
            if t.get("reason") == "superseded by newer refit"
        ]
        assert superseded, "expected at least one mid-trial refit"
        assert summary["publish_failures"] == 0
        # After superseding, the *new* shadow pointer survived intact.
        open_trial = summary["trial_open"]
        if open_trial is not None and open_trial["version"] is not None:
            assert reg.channels("m")["shadow"] == open_trial["version"]


class TestMultiStreamDriver:
    def test_concurrent_drifting_fleet_shares_one_registry(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        tasks = [
            StreamTask(
                "bcast", n=200, batch=25, seed=i, name=f"bcast-{i}",
                shift_at=100, drift_factor=4.0, canary=True,
                canary_margin=0.02, canary_min_scores=16, canary_max_scores=96,
                cells=6, rank=2, max_sweeps=10,
                drift_window=48, drift_threshold=0.25, drift_min_count=24,
            )
            for i in range(3)
        ]
        report = MultiStreamDriver(reg, tasks).run()
        assert report["n_streams"] == 3 and report["failures"] == 0
        assert sorted(report["streams"]) == ["bcast-0", "bcast-1", "bcast-2"]
        for name, summary in report["streams"].items():
            assert summary["published_versions"], name
            # Channel discipline held per name under concurrency.
            assert reg.resolve(name).version == (
                reg.channels(name)["latest"]
                or max(summary["published_versions"])
            )
        assert report["promotions"] == sum(
            s["promotions"] for s in report["streams"].values()
        )

    def test_rank_auto_fleet(self, tmp_path):
        tasks = [
            StreamTask("bcast", n=64, batch=32, seed=i, name=f"auto-{i}",
                       cells=4, rank="auto", max_sweeps=5)
            for i in range(2)
        ]
        report = MultiStreamDriver(ModelRegistry(tmp_path), tasks).run()
        assert report["n_streams"] == 2 and report["failures"] == 0
        for summary in report["streams"].values():
            assert summary["published_versions"]

    def test_duplicate_names_refused(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate stream names"):
            MultiStreamDriver(
                ModelRegistry(tmp_path),
                [StreamTask("bcast"), StreamTask("bcast")],
            )

    def test_one_failing_stream_does_not_sink_the_fleet(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        good = StreamTask(
            "bcast", n=60, batch=20, seed=0, name="ok",
            cells=6, rank=2, max_sweeps=10,
        )
        bad = StreamTask(
            "no-such-app", n=60, batch=20, seed=0, name="broken"
        )
        report = MultiStreamDriver(reg, [good, bad]).run()
        assert report["failures"] == 1
        assert "error" in report["streams"]["broken"]
        assert report["streams"]["ok"]["published_versions"]


class TestDriftingApplication:
    def test_row_exact_shift_boundary(self):
        app = DriftingApplication(Broadcast(), shift_at=10, factor=3.0)
        rng = np.random.default_rng(0)
        X = app.space.sample(8, rng=rng)

        plain = Broadcast()
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        y0 = app.measure(X, rng=rng_a, sigma=0)        # rows 0-7: pre-shift
        y0_ref = plain.measure(X, rng=rng_b, sigma=0)
        np.testing.assert_allclose(y0, y0_ref)

        y1 = app.measure(X, rng=rng_a, sigma=0)        # rows 8-15: straddles 10
        y1_ref = plain.measure(X, rng=rng_b, sigma=0)
        np.testing.assert_allclose(y1[:2], y1_ref[:2])          # rows 8, 9
        np.testing.assert_allclose(y1[2:], y1_ref[2:] * 3.0)    # rows 10+

    def test_validation(self):
        with pytest.raises(ValueError, match="shift_at"):
            DriftingApplication(Broadcast(), shift_at=-1)
        with pytest.raises(ValueError, match="factor"):
            DriftingApplication(Broadcast(), shift_at=0, factor=0.0)
