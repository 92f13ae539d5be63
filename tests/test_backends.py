"""Kernel backends: lookup, default, plan handoff, attribution.

Covers :mod:`repro.core.completion.backends` — name lookup (including
the persisted ``"batched"`` spelling) with a helpful error, the
``select_best`` default, backend objects passing through unchanged,
the fit-wide plan the model layer hands every kernel optimizer, and
backend attribution flowing through persistence, registry manifests,
engine stats, and the streaming trainer.
"""
import numpy as np
import pytest

from repro.core import CPRModel
from repro.core.completion import resolve_backend, select_best
from repro.core.completion.backends import NumpyBatchedBackend

BACKEND_NAMES = ("reference", "numpy_batched")


def _data(seed=0, n=200):
    gen = np.random.default_rng(seed)
    X = np.exp(gen.uniform(0.0, np.log(64.0), size=(n, 2)))
    y = 1e-3 * X[:, 0] ** 1.2 * X[:, 1] ** 0.7 * np.exp(
        gen.normal(0, 0.02, size=n)
    )
    return X, y


class TestRegistry:
    def test_core_backends_registered(self):
        for name in BACKEND_NAMES:
            assert resolve_backend(name).name == name

    def test_alias_resolves_to_same_object(self):
        assert resolve_backend("batched") is resolve_backend("numpy_batched")

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ValueError, match="valid names") as exc:
            resolve_backend("no_such_backend")
        for name in (*BACKEND_NAMES, "batched"):
            assert name in str(exc.value)

    def test_resolved_instances_pass_through(self):
        b = resolve_backend("numpy_batched")
        assert resolve_backend(b) is b


class TestSelectionPolicy:
    def test_explicit_argument_without_env(self):
        assert resolve_backend("batched").name == "numpy_batched"

    def test_default_is_calibrated_best(self):
        assert resolve_backend(None) is select_best()
        assert resolve_backend() is resolve_backend("numpy_batched")

    def test_select_best_never_picks_reference(self):
        assert select_best() is resolve_backend("numpy_batched")
        assert select_best() is not resolve_backend("reference")

    # The variable once outranked ``kernel=`` and the default; it is no
    # longer read, so a value left set in a shell changes nothing.
    def test_env_var_does_not_outrank_explicit_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_" + "BACKEND", "reference")
        assert resolve_backend("numpy_batched").name == "numpy_batched"
        assert resolve_backend(None) is select_best()

    def test_env_var_does_not_reach_model_fit(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_" + "BACKEND", "reference")
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4).fit(X, y)
        assert m.fit_backend_ == "numpy_batched"


class _SpyOptimizer:
    """Wraps an OPTIMIZERS entry, recording the kwargs the model passed."""

    def __init__(self, real):
        self.real = real
        self.accepts_kernel = getattr(real, "accepts_kernel", False)
        self.seen: dict = {}

    def __call__(self, *args, **kwargs):
        self.seen = {
            "plan": kwargs.get("plan"),
            "has_factors": kwargs.get("factors") is not None,
            "kernel": kwargs.get("kernel"),
        }
        return self.real(*args, **kwargs)


@pytest.fixture
def spy_als(monkeypatch):
    from repro.core import model as model_mod

    spy = _SpyOptimizer(model_mod.OPTIMIZERS["als"])
    monkeypatch.setitem(model_mod.OPTIMIZERS, "als", spy)
    return spy


class _CloneBackend(NumpyBatchedBackend):
    name = "clone_test"


class TestCapabilityGates:
    """How the model layer hands kernels, plans and warm starts over."""

    def test_plan_reuse_follows_capability_not_name(self, spy_als):
        # A backend under a name other than "batched" still gets the
        # fit-wide plan (regression: an old gate compared the string).
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel=_CloneBackend())
        m.fit(X, y)
        assert spy_als.seen["plan"] is not None
        assert spy_als.seen["plan"] is m._plan_
        assert m.fit_backend_ == "clone_test"

    def test_reference_gets_the_fit_plan_too(self, spy_als):
        # Every kernel optimizer gets the plan; the reference loops
        # ignore it, so the model needs no per-backend branch.
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel="reference")
        m.fit(X, y)
        assert spy_als.seen["plan"] is m._plan_
        assert m._plan_ is not None
        assert m.fit_backend_ == "reference"

    def test_plan_reused_across_partial_fit(self, spy_als):
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel="numpy_batched")
        m.fit(X, y)
        plan = m._plan_
        assert plan is not None
        m.partial_fit(X[:40], y[:40])  # known cells: same index set
        assert spy_als.seen["plan"] is plan

    def test_warm_start_kept_with_partial_fit_support(self, spy_als):
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel="numpy_batched")
        m.fit(X, y)
        m.partial_fit(X[:40], y[:40])
        assert spy_als.seen["has_factors"] is True

    def test_kernel_option_rejected_for_non_kernel_optimizers(self):
        X, y = _data()
        with pytest.raises(ValueError, match="no kernel backends"):
            CPRModel(cells=4, rank=2, optimizer="sgd", max_sweeps=4,
                     kernel="batched").fit(X, y)

    def test_kernel_error_names_every_kernel_optimizer(self):
        X, y = _data()
        with pytest.raises(ValueError) as exc:
            CPRModel(cells=4, rank=2, optimizer="ccd", max_sweeps=4,
                     kernel="reference").fit(X, y)
        assert "als, als_adaptive, als_reg, amn only" in str(exc.value)

    def test_kernel_option_rejected_for_tucker(self):
        from repro.core import TuckerModel

        X, y = _data()
        with pytest.raises(ValueError, match="'tucker' has no kernel backends"):
            TuckerModel(cells=4, rank=2, max_sweeps=4,
                        kernel="reference").fit(X, y)

    def test_ccd_reuses_plan_without_backends(self):
        X, y = _data()
        m = CPRModel(cells=4, rank=2, optimizer="ccd", max_sweeps=8).fit(X, y)
        assert m.fit_backend_ is None  # no kernel backends for CCD
        plan = m._plan_
        assert plan is not None
        m.partial_fit(X[:40], y[:40])
        assert m._plan_ is plan


class TestAttribution:
    """``fit_backend_`` flows through persistence, manifests, and stats."""

    def test_fit_records_resolved_backend(self):
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4).fit(X, y)
        assert m.fit_backend_ in BACKEND_NAMES
        assert m.describe()["fit_backend"] == m.fit_backend_

    def test_batched_alias_resolves_after_reload(self):
        # A model fitted with the historical "batched" name persists that
        # name in opt_params; partial_fit after loads_model must resolve
        # it, which is why numpy_batched keeps the alias.
        from repro.utils.serialization import dumps_model, loads_model

        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel="batched")
        m.fit(X, y)
        restored = loads_model(dumps_model(m))
        assert restored.opt_params["kernel"] == "batched"
        restored.partial_fit(X[:40], y[:40])
        assert restored.opt_params["kernel"] == "batched"
        assert restored.fit_backend_ == "numpy_batched"

    def test_backend_survives_serialization_round_trip(self):
        from repro.utils.serialization import dumps_model, loads_model

        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel="reference")
        m.fit(X, y)
        restored = loads_model(dumps_model(m))
        assert restored.fit_backend_ == "reference"

    def test_registry_manifest_records_backend(self, tmp_path):
        from repro.serve import ModelRegistry

        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4).fit(X, y)
        mv = ModelRegistry(tmp_path).publish("m", m)
        assert mv.meta["kernel_backend"] == m.fit_backend_

    def test_explicit_manifest_backend_not_overwritten(self, tmp_path):
        from repro.serve import ModelRegistry

        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4).fit(X, y)
        mv = ModelRegistry(tmp_path).publish(
            "m", m, meta={"kernel_backend": "pinned"}
        )
        assert mv.meta["kernel_backend"] == "pinned"

    def test_engine_stats_report_backend(self):
        from repro.serve.engine import PredictionEngine

        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4).fit(X, y)
        assert PredictionEngine(m).stats()["fit_backend"] == m.fit_backend_

    def test_trainer_and_session_report_backend(self):
        from repro.stream import DriftMonitor, IncrementalTrainer, StreamSession

        X, y = _data()
        session = StreamSession(
            None, "m",
            IncrementalTrainer(
                lambda: CPRModel(cells=4, rank=2, max_sweeps=4),
                monitor=DriftMonitor(),
            ),
        )
        session.observe(X, y)
        backend = session.trainer.model.fit_backend_
        assert backend in BACKEND_NAMES
        assert session.trainer.to_record()["kernel_backend"] == backend
        assert session.summary()["kernel_backend"] == backend
