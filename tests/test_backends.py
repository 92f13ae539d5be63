"""Kernel-backend registry: lookup, selection policy, capability gates.

Covers the strategy-registry contract of
:mod:`repro.core.completion.backends` — name/alias lookup with helpful
errors, the env > explicit > ``select_best`` resolution order, the
plan-reuse capability the model layer gates on (the gate used to be a
``kernel == "batched"`` string literal; these are its regression
tests), and backend attribution flowing through persistence, registry
manifests, engine stats, and the streaming trainer.
"""
import numpy as np
import pytest

from repro.core import CPRModel
from repro.core.completion import (
    backend_names,
    get_backend,
    resolve_backend,
    select_best,
)
from repro.core.completion import backends as backends_mod
from repro.core.completion.backends import (
    ENV_VAR,
    KernelBackend,
    NumpyBatchedBackend,
    register_backend,
)


def _data(seed=0, n=200):
    gen = np.random.default_rng(seed)
    X = np.exp(gen.uniform(0.0, np.log(64.0), size=(n, 2)))
    y = 1e-3 * X[:, 0] ** 1.2 * X[:, 1] ** 0.7 * np.exp(
        gen.normal(0, 0.02, size=n)
    )
    return X, y


@pytest.fixture
def clone_backend():
    """A plan-reuse backend registered under a fresh (non-'batched') name.

    The historical bug this guards: plan caching was gated on the literal
    name ``"batched"``, so an equivalent backend registered under any
    other name silently lost plan reuse.  The fixture unregisters on
    teardown.
    """

    @register_backend
    class CloneBackend(NumpyBatchedBackend):
        name = "clone_test"
        aliases = ("clone_alias",)

    try:
        yield backends_mod._REGISTRY["clone_test"]
    finally:
        backends_mod._REGISTRY.pop("clone_test", None)
        backends_mod._ALIASES.pop("clone_alias", None)


class TestRegistry:
    def test_core_backends_registered(self):
        assert set(backend_names()) == {"reference", "numpy_batched"}

    def test_alias_resolves_to_same_object(self):
        assert get_backend("batched") is get_backend("numpy_batched")

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered backends"):
            get_backend("no_such_backend")
        try:
            get_backend("no_such_backend")
        except ValueError as exc:
            for name in backend_names():
                assert name in str(exc)

    def test_resolved_instances_pass_through(self):
        b = get_backend("numpy_batched")
        assert get_backend(b) is b
        assert resolve_backend(b) is b

    def test_duplicate_registration_rejected(self):
        before = backend_names()
        with pytest.raises(ValueError, match="already registered"):
            @register_backend
            class Duplicate(NumpyBatchedBackend):  # noqa: F811
                name = "reference"
                aliases = ()
        assert backend_names() == before

    def test_registering_extends_names_and_errors(self, clone_backend):
        assert "clone_test" in backend_names()
        assert get_backend("clone_alias") is clone_backend
        # New registrations show up in the unknown-name error too.
        with pytest.raises(ValueError, match="clone_test"):
            get_backend("no_such_backend")


class TestSelectionPolicy:
    def test_env_override_outranks_explicit_argument(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert resolve_backend("numpy_batched").name == "reference"

    def test_explicit_argument_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend("batched").name == "numpy_batched"

    def test_default_is_calibrated_best(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend(None) is select_best()
        assert resolve_backend(None) is get_backend("numpy_batched")

    def test_select_best_never_picks_reference(self, clone_backend):
        # Registering another plan-reuse backend does not move the default.
        assert select_best() is get_backend("numpy_batched")
        assert select_best() is not get_backend("reference")

    def test_env_override_reaches_model_fit(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4).fit(X, y)
        assert m.fit_backend_ == "reference"


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


class TestCapabilityGates:
    """The model layer must gate on capability flags, not backend names."""

    def test_plan_reuse_follows_capability_not_name(self, spy_als,
                                                    clone_backend):
        # A plan-reuse backend under a non-"batched" name still gets the
        # fit-wide plan (regression: the old gate compared the string).
        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel="clone_test")
        m.fit(X, y)
        assert spy_als.seen["plan"] is not None
        assert spy_als.seen["plan"] is m._plan_
        assert m.fit_backend_ == "clone_test"

    def test_no_plan_without_capability(self, spy_als):
        class NoPlanProbe(NumpyBatchedBackend):
            name = "noplan_probe"
            aliases = ()
            supports_plan_reuse = False

        X, y = _data()
        m = CPRModel(cells=4, rank=2, max_sweeps=4, kernel=NoPlanProbe())
        m.fit(X, y)
        assert spy_als.seen["plan"] is None
        assert m._plan_ is None  # the model never built one
        assert m.fit_backend_ == "noplan_probe"

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
        assert m.fit_backend_ in backend_names()
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
        from repro.stream.pipeline import StreamSession

        X, y = _data()
        session = StreamSession(
            None, "m",
            lambda: CPRModel(cells=4, rank=2, max_sweeps=4),
        )
        session.observe(X, y)
        backend = session.trainer.model.fit_backend_
        assert backend in backend_names()
        assert session.trainer.to_record()["kernel_backend"] == backend
        assert session.summary()["kernel_backend"] == backend

    def test_fleet_config_round_trips_canonical_name(self, tmp_path):
        from repro.serve import ServeFleet

        fleet = ServeFleet(str(tmp_path), workers=1, kernel_backend="batched")
        # Canonicalized through the registry before reaching workers.
        assert fleet._cfg["kernel_backend"] == "numpy_batched"
        with pytest.raises(ValueError, match="registered backends"):
            ServeFleet(str(tmp_path), workers=1, kernel_backend="bogus")

    def test_base_protocol_hooks_are_abstract(self):
        b = KernelBackend()
        with pytest.raises(NotImplementedError):
            b.prepare_als((2, 2), np.zeros((1, 2), dtype=np.intp), np.ones(1))
        with pytest.raises(NotImplementedError):
            b.prepare_amn((2, 2), np.zeros((1, 2), dtype=np.intp), np.ones(1))
