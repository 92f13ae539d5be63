"""Rank adaptation end-to-end: model API, attribution, serving, streaming.

The kernel-level contracts live in ``test_kernels_equivalence.py`` /
``test_properties.py``; this file covers the layers above them:

* ``CPRModel(rank="auto")`` — constructor validation, fit attributes
  (``adapted_rank_``, ``rank_trajectory_``), serialization round-trips,
  and byte-stability of *fixed*-rank states (adaptivity is opt-in).
* Attribution — ``rank_attribution`` stamped into registry manifests and
  ``PredictionEngine.stats()``.
* The acceptance smoke: a ``rank="auto"`` fit on a low-density
  figure5-style configuration converges and publishes with adapted-rank
  attribution, and a stream session whose refit lands on a different
  rank republishes and hot-swaps a live server without restart.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import CPRModel, TuckerModel
from repro.core.model import rank_attribution
from repro.datasets import generate_dataset
from repro.serve import ModelRegistry, ModelServer, PredictionEngine
from repro.stream import DriftMonitor, IncrementalTrainer, StreamSession
from repro.utils.serialization import dumps_model, loads_model


class TestAutoRankModel:
    def test_bad_rank_string_rejected(self):
        with pytest.raises(ValueError, match="'auto'"):
            CPRModel(rank="adaptive")

    def test_auto_requires_log_mse(self):
        with pytest.raises(ValueError, match="log_mse"):
            CPRModel(rank="auto", loss="mlogq2")

    def test_auto_requires_adaptive_optimizer(self):
        with pytest.raises(ValueError, match="adaptive"):
            CPRModel(rank="auto", optimizer="sgd")
        # "als" is the natural spelling: it upgrades instead of raising.
        assert CPRModel(rank="auto", optimizer="als").optimizer == "als_adaptive"
        assert CPRModel(rank="auto").optimizer == "als_adaptive"

    def test_fit_sets_adaptation_attributes(self, mm_data):
        app, train, test = mm_data
        m = CPRModel(space=app.space, cells=6, rank="auto", max_rank=6,
                     max_sweeps=20, seed=0)
        m.fit(train.X[:400], train.y[:400])
        assert isinstance(m.adapted_rank_, int)
        assert 1 <= m.adapted_rank_ <= 6
        assert m.rank_trajectory_ and m.rank_trajectory_[-1] == m.adapted_rank_
        assert all(U.shape[1] == m.adapted_rank_ for U in m.factors_)
        assert m.describe()["adapted_rank"] == m.adapted_rank_
        assert np.isfinite(m.score(test.X, test.y))

    def test_auto_round_trips_with_adapted_rank(self, mm_data):
        app, train, _ = mm_data
        m = CPRModel(space=app.space, cells=6, rank="auto", max_rank=6,
                     max_sweeps=20, seed=0)
        m.fit(train.X[:400], train.y[:400])
        restored = loads_model(dumps_model(m))
        assert restored.rank == "auto"
        assert restored.adapted_rank_ == m.adapted_rank_
        q = train.X[:32]
        np.testing.assert_array_equal(restored.predict(q), m.predict(q))

    def test_fixed_rank_state_is_byte_stable(self, mm_data):
        """A fixed-rank model's persisted bytes must not change: the
        ``adapted_rank`` key is stored only when it differs from the
        request (i.e. only adaptive fits pay for the new attribute)."""
        app, train, _ = mm_data
        m = CPRModel(space=app.space, cells=6, rank=2, max_sweeps=10, seed=0)
        m.fit(train.X[:400], train.y[:400])
        assert "adapted_rank" not in m.__getstate_for_size__()
        restored = loads_model(dumps_model(m))
        assert restored.adapted_rank_ == 2  # reconstructed from rank

    def test_partial_fit_keeps_adapted_rank(self, mm_data):
        app, train, _ = mm_data
        m = CPRModel(space=app.space, cells=6, rank="auto", max_rank=6,
                     max_sweeps=20, seed=0)
        m.fit(train.X[:400], train.y[:400])
        r = m.adapted_rank_
        m.partial_fit(train.X[400:440], train.y[400:440], max_sweeps=2)
        assert m.adapted_rank_ == r  # re-selection is a refit decision


class TestRankAttribution:
    def test_cpr_fixed_and_auto(self, mm_data):
        app, train, _ = mm_data
        fixed = CPRModel(space=app.space, cells=6, rank=2, max_sweeps=5, seed=0)
        fixed.fit(train.X[:300], train.y[:300])
        assert rank_attribution(fixed) == {"rank": 2}
        auto = CPRModel(space=app.space, cells=6, rank="auto", max_rank=6,
                        max_sweeps=10, seed=0)
        auto.fit(train.X[:300], train.y[:300])
        info = rank_attribution(auto)
        assert info["rank"] == "auto"
        assert info["adapted_rank"] == auto.adapted_rank_

    def test_tucker_reports_no_adaptation(self, mm_data):
        app, train, _ = mm_data
        t = TuckerModel(space=app.space, cells=5, rank=2, max_sweeps=4,
                        seed=0)
        t.fit(train.X[:300], train.y[:300])
        assert rank_attribution(t) == {"rank": 2}
        restored = loads_model(dumps_model(t))
        assert rank_attribution(restored) == {"rank": 2}

    def test_rankless_model_yields_empty(self):
        assert rank_attribution(object()) == {}

    def test_manifest_and_stats_attribution(self, tmp_path, mm_data):
        app, train, _ = mm_data
        m = CPRModel(space=app.space, cells=6, rank="auto", max_rank=6,
                     max_sweeps=10, seed=0)
        m.fit(train.X[:300], train.y[:300])
        mv = ModelRegistry(tmp_path).publish("mm", m)
        assert mv.meta["rank"] == "auto"
        assert mv.meta["adapted_rank"] == m.adapted_rank_
        eng = PredictionEngine(m, name=mv.ref)
        assert eng.stats()["rank"] == m.adapted_rank_

    def test_explicit_manifest_rank_not_overwritten(self, tmp_path, mm_data):
        app, train, _ = mm_data
        m = CPRModel(space=app.space, cells=6, rank=2, max_sweeps=5, seed=0)
        m.fit(train.X[:300], train.y[:300])
        mv = ModelRegistry(tmp_path).publish("mm", m, meta={"rank": 99})
        assert mv.meta["rank"] == 99  # setdefault semantics, like backend


class TestLowDensitySmoke:
    """The acceptance smoke: ``rank="auto"`` on a low-density figure5
    configuration converges and publishes with adapted-rank attribution."""

    def test_auto_converges_and_publishes(self, tmp_path, fmm_data):
        app, train, test = fmm_data
        m = CPRModel(space=app.space, cells=16, rank="auto", max_rank=8,
                     max_sweeps=50, tol=1e-3, seed=0)
        m.fit(train.X[:512], train.y[:512])
        # 6-D grid at 16 cells/mode from 512 points: density << 1e-3.
        assert m.tensor_.density < 1e-3
        assert m.result_.converged
        assert 1 <= m.adapted_rank_ <= 8
        err = m.score(test.X, test.y)
        assert np.isfinite(err) and err < 2.0
        mv = ModelRegistry(tmp_path).publish("fmm-auto", m)
        assert mv.meta["rank"] == "auto"
        assert mv.meta["adapted_rank"] == m.adapted_rank_

    def test_ablation_rank_job_record(self):
        from repro.experiments.ablation_rank import run_rank_job

        rec = run_rank_job(app="matmul", n_train=256, n_test=128, cells=8,
                           ranks=(2, 4), seed=0)
        assert not rec["skipped"]
        assert rec["auto"]["rank_trajectory"]
        assert rec["auto"]["adapted_rank"] <= 4
        assert {f["rank"] for f in rec["fixed"]} == {2, 4}
        assert np.isfinite(rec["auto"]["error"])


class TestStreamCLIRankArg:
    def test_auto_and_int_accepted(self):
        from repro.stream.__main__ import _rank_arg

        assert _rank_arg("auto") == "auto"
        assert _rank_arg("4") == 4

    def test_garbage_rejected_with_both_spellings_named(self):
        import argparse

        from repro.stream.__main__ import _rank_arg

        with pytest.raises(argparse.ArgumentTypeError, match="'auto'"):
            _rank_arg("adaptive")


class TestStreamRankHotSwap:
    """A mid-run rank change republishes and hot-swaps the live server."""

    def test_rank_change_republish_server_pickup(self, tmp_path):
        from repro.apps import Broadcast

        app = Broadcast()
        train = generate_dataset(app, 512, seed=0)
        registry = ModelRegistry(tmp_path / "reg")
        server = ModelServer(registry, default_model="bc-auto")

        # Deterministic mid-run adaptation: both fits go through the real
        # adaptive optimizer (rank="auto" requests, adapted_rank stamped),
        # with the second refit's search window capped higher so the
        # landed rank provably differs.
        caps = iter([2, 4])

        def factory():
            cap = next(caps)
            return CPRModel(
                space=app.space, cells=4, rank="auto", rank_init=cap,
                max_rank=cap, val_fraction=0.0, prune_threshold=0.0,
                max_sweeps=8, seed=0,
            )

        monitor = DriftMonitor(window=8, threshold=0.1, min_count=2)
        trainer = IncrementalTrainer(factory, monitor=monitor)
        session = StreamSession(registry, "bc-auto", trainer)
        session.observe(train.X[:256], train.y[:256])
        v1 = registry.resolve("bc-auto")
        assert v1.meta["adapted_rank"] == 2
        monitor.record(np.full(4, np.e**2), np.ones(4))  # sustained drift
        record = session.observe(train.X[256:288], train.y[256:288])
        assert record["action"] == "refit"
        assert record["rank_change"] == {"from": 2, "to": 4}
        v2 = registry.resolve("bc-auto")
        assert v2.version == v1.version + 1
        assert v2.meta["rank"] == "auto"
        assert v2.meta["adapted_rank"] == 4
        # The live server answers from the adapted model, no restart.
        resp = server.handle({"op": "predict", "x": [[4, 8, 2**20]]})
        assert resp["ok"]
        assert resp["model"] == f"bc-auto@v{v2.version}"
        summary = session.summary()
        assert summary["trainer"]["rank_changes"] == 1
        assert summary["trainer"]["rank"] == 4
