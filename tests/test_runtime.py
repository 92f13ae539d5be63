"""Tests for the parallel, resumable experiment runtime.

Covers content-addressed hashing, cache hit/miss/invalidation,
parallel-vs-sequential result equality on a Figure-5-style sweep,
resume-after-interrupt, and the per-runtime memo of finished records on
the sequential, pool and queue paths.
"""
import json

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.runtime import (
    CACHE_SCHEMA_VERSION,
    JobSpec,
    ResultCache,
    Runtime,
    canonical,
    execute,
    to_jsonable,
)
from repro.runtime.spec import resolve_runner

_TUNE = "repro.experiments.harness:run_tune_job"


def tune_spec(**over) -> JobSpec:
    """A small, fast tuning job (KNN on MatMul)."""
    params = dict(
        app="matmul", model="knn", n_train=192, n_test=96,
        grid=[{"k": 1}, {"k": 2}], seed=0,
    )
    params.update(over)
    return JobSpec(_TUNE, params)


def cpr_spec(n_train: int, seed: int = 0) -> JobSpec:
    """A Figure-5-style CPR job: rank grid + density on a fixed pool."""
    return JobSpec(
        _TUNE,
        dict(
            app="matmul", model="cpr", n_train=n_train, n_test=96,
            grid=[{"cells": 4, "rank": r, "regularization": 1e-5} for r in (1, 2)],
            seed=seed, pool_n=512, subsample_seed=seed + n_train,
            density_cells=4,
        ),
    )


class TestCanonical:
    def test_numpy_scalars_normalize(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.bool_(True)) is True
        assert to_jsonable((1, 2)) == [1, 2]
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_canonical_sorts_keys(self):
        assert canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestJobSpec:
    def test_key_is_stable(self):
        assert tune_spec().key == tune_spec().key

    def test_key_ignores_container_flavour(self):
        a = tune_spec(grid=[{"k": 1}], sizes=(1, 2))
        b = tune_spec(grid=[{"k": np.int64(1)}], sizes=[1, 2])
        assert a.key == b.key

    def test_key_changes_with_params(self):
        assert tune_spec(seed=0).key != tune_spec(seed=1).key
        assert tune_spec().key != tune_spec(grid=[{"k": 3}]).key

    def test_key_changes_with_runner(self):
        a = JobSpec("repro.experiments.figure1:run_function_job", {"function": "f1"})
        b = JobSpec("repro.experiments.table1:run_table_job", {"function": "f1"})
        assert a.key != b.key

    def test_bad_fn_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("no_colon_here", {})

    def test_resolve_runner(self):
        fn = resolve_runner(_TUNE)
        assert callable(fn)
        with pytest.raises(ValueError):
            resolve_runner("repro.experiments.harness:not_a_function")

    def test_describe_mentions_model(self):
        assert "knn" in tune_spec().describe()


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(tune_spec()) is None
        assert tune_spec() not in cache

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tune_spec()
        cache.put(spec, {"best_error": 0.25, "params": (1, 2)})
        out = cache.get(spec)
        assert out == {"best_error": 0.25, "params": [1, 2]}
        assert spec in cache and len(cache) == 1

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tune_spec()
        path = cache.put(spec, {"x": 1})
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tune_spec()
        path = cache.put(spec, {"x": 1})
        record = json.loads(path.read_text())
        record["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert cache.get(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(tune_spec(), {"x": 1})
        cache.put(tune_spec(seed=1), {"x": 2})
        assert cache.clear() == 2
        assert len(cache) == 0


class TestRuntime:
    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            Runtime().run([{"fn": _TUNE}])

    def test_sequential_executes_and_returns_records(self):
        rt = Runtime(jobs=1)
        (rec,) = rt.run([tune_spec()])
        assert rec["skipped"] is False
        assert rec["model"] == "knn" and rec["best_error"] > 0
        assert rt.executed == 1 and rt.hits == 0

    def test_cache_hit_on_rerun(self, tmp_path):
        rt = Runtime(jobs=1, cache_dir=tmp_path)
        specs = [tune_spec(), tune_spec(seed=1)]
        first = rt.run(specs)
        assert rt.snapshot() == (0, 2)
        second = rt.run(specs)
        assert rt.snapshot() == (2, 2)  # all answered from cache
        assert second == first

    def test_spec_change_invalidates(self, tmp_path):
        rt = Runtime(jobs=1, cache_dir=tmp_path)
        rt.run([tune_spec()])
        rt.run([tune_spec(grid=[{"k": 1}, {"k": 4}])])
        assert rt.snapshot() == (0, 2)  # changed grid -> miss, re-executed

    def test_resume_after_interrupt(self, tmp_path):
        specs = [tune_spec(seed=s) for s in range(4)]
        # "Interrupted" sweep: only the first half completed.
        rt1 = Runtime(jobs=1, cache_dir=tmp_path)
        done = rt1.run(specs[:2])
        # Resumed sweep: completed jobs are skipped, remainder executed.
        rt2 = Runtime(jobs=1, cache_dir=tmp_path)
        full = rt2.run(specs)
        assert rt2.snapshot() == (2, 2)
        assert full[:2] == done

    def test_execute_defaults_to_sequential(self):
        (rec,) = execute([tune_spec()])
        assert rec["model"] == "knn"

    def test_sequential_run_preserves_global_rng(self):
        """Per-job reseeding must not leak into the caller's RNG stream."""
        np.random.seed(123)
        expected = np.random.rand(3)
        np.random.seed(123)
        Runtime(jobs=1).run([tune_spec()])
        np.testing.assert_array_equal(np.random.rand(3), expected)

    def test_completed_jobs_cached_before_failure(self, tmp_path):
        """A failing job must not discard finished work (mid-batch resume)."""
        good = [tune_spec(seed=10), tune_spec(seed=11)]
        bad = JobSpec(_TUNE, {"app": "matmul"})  # missing required kwargs
        rt = Runtime(jobs=2, cache_dir=tmp_path)
        with pytest.raises(TypeError):
            rt.run([*good, bad])
        # resumed sweep: the two good jobs answer from cache
        rt2 = Runtime(jobs=1, cache_dir=tmp_path)
        rt2.run(good)
        assert rt2.snapshot() == (2, 0)

    def test_sequential_failure_keeps_earlier_records(self, tmp_path):
        good = tune_spec(seed=12)
        bad = JobSpec(_TUNE, {"app": "matmul"})
        rt = Runtime(jobs=1, cache_dir=tmp_path)
        with pytest.raises(TypeError):
            rt.run([good, bad])
        rt2 = Runtime(jobs=1, cache_dir=tmp_path)
        rt2.run([good])
        assert rt2.snapshot() == (1, 0)

    def test_cached_elapsed_is_per_job(self, tmp_path):
        from repro.runtime import ResultCache
        import json as _json

        rt = Runtime(jobs=1, cache_dir=tmp_path)
        spec = tune_spec(seed=13)
        rt.run([spec])
        record = _json.loads(ResultCache(tmp_path).path_for(spec).read_text())
        assert record["elapsed_seconds"] > 0


def _strip_times(records: list) -> list:
    """Zero the wall-clock fit timings (the only non-deterministic field)."""
    out = []
    for rec in records:
        rec = dict(rec)
        rec["results"] = [[p, e, s, 0.0] for p, e, s, _ in rec.get("results", [])]
        out.append(rec)
    return out


class TestParallelEquality:
    """Figure-5-style sweep: pool + subsample + density + rank grid."""

    def test_parallel_matches_sequential(self, tmp_path):
        specs = [cpr_spec(n) for n in (96, 128, 192, 256)]
        seq = Runtime(jobs=1).run(specs)
        par = Runtime(jobs=2, cache_dir=tmp_path / "cache").run(specs)
        # Identical numbers regardless of worker count (timings excepted).
        assert _strip_times(par) == _strip_times(seq)
        # Densities and errors are real numbers, not artifacts of transport.
        for rec in seq:
            assert 0 < rec["density"] <= 1
            assert np.isfinite(rec["best_error"])
        # And a warm rerun replays the parallel run's records from disk.
        rt = Runtime(jobs=2, cache_dir=tmp_path / "cache")
        assert rt.run(specs) == par
        assert rt.snapshot() == (4, 0)


class TestRunTuneJob:
    def test_record_contract(self):
        (rec,) = execute([cpr_spec(128)])
        assert rec["app"] == "matmul" and rec["n_train"] == 128
        assert rec["skipped"] is False
        assert isinstance(rec["best_params"], dict)
        assert len(rec["results"]) == 2  # one entry per rank
        assert rec["best_error"] == min(r[1] for r in rec["results"])

    def test_no_density_unless_requested(self):
        (rec,) = execute([tune_spec()])
        assert "density" not in rec


class TestDeterminism:
    def test_fresh_runtimes_give_the_same_record(self):
        """The memo answers a repeated spec within one runtime, so two
        fresh runtimes are what still show a nondeterministic runner."""
        from repro.experiments.config import n_test, tuning_grid
        from repro.experiments.harness import tune_job_spec

        spec = tune_job_spec(
            app="bcast", model="cpr", n_train=512, n_test=n_test("smoke"),
            grid=tuning_grid("cpr", "smoke"), seed=0,
        )
        (first,) = Runtime().run([spec])
        (second,) = Runtime().run([spec])
        assert first["skipped"] is False and len(first["results"]) > 1
        assert _strip_times([first]) == _strip_times([second])


_PROBE = "repro.runtime.queue:probe_job"

#: Every execution path of ``Runtime.run``; ``tmp`` is a per-test directory.
_PATHS = {
    "sequential": lambda tmp, **kw: Runtime(**kw),
    "pool": lambda tmp, **kw: Runtime(jobs=2, **kw),
    "queue": lambda tmp, **kw: Runtime(queue_dir=tmp / "spool", queue_workers=2, **kw),
}


def probe(value) -> JobSpec:
    return JobSpec(_PROBE, {"value": value})


@pytest.fixture(params=list(_PATHS))
def make_runtime(request, tmp_path):
    yield lambda **kw: _PATHS[request.param](tmp_path, **kw)
    faults.clear()


class TestMemo:
    """One runtime runs each distinct spec once, on every path."""

    def test_each_distinct_spec_executes_once(self, make_runtime):
        announced = []
        rt = make_runtime(on_result=lambda spec, rec: announced.append(spec.key))
        a, b = probe(1), probe(2)
        assert rt.run([a, b, a, b, a]) == [{"value": v} for v in (1, 2, 1, 2, 1)]
        assert rt.snapshot() == (3, 2)
        assert rt.run([b, a]) == [{"value": 2}, {"value": 1}]
        assert rt.snapshot() == (5, 2)
        # Once per executed spec: hits have no side effects to replay.
        assert sorted(announced) == sorted([a.key, b.key])

    def test_hits_are_equal_independent_copies(self, make_runtime):
        rt = make_runtime()
        spec, other = probe([1, {"k": 2}]), probe(0)
        want = {"value": [1, {"k": 2}]}
        executed, hit1, _, hit2 = rt.run([spec, spec, other, spec])
        assert executed == hit1 == hit2 == want
        assert hit1 is not hit2 and hit1["value"] is not executed["value"]
        executed["value"].append("x")
        hit1["value"][1]["k"] = "y"
        assert hit2 == want
        assert rt.run([spec]) == [want]
        assert rt.snapshot() == (3, 2)

    def test_disk_record_takes_precedence(self, make_runtime, tmp_path):
        rt = make_runtime(cache_dir=tmp_path / "cache")
        spec = probe(4)
        assert rt.run([spec]) == [{"value": 4}]
        ResultCache(tmp_path / "cache").put(spec, {"value": "from disk"})
        assert rt.run([spec]) == [{"value": "from disk"}]
        assert rt.snapshot() == (1, 1)

    def test_quarantined_spec_is_not_memoized(self, make_runtime):
        rt = make_runtime(quarantine=True, retry_delay_s=0.0)
        a, b = probe(5), probe(6)
        # Every job fails (in the driver or in forked workers alike).
        failing = FaultPlan().on("runtime.job", "error", error="value", max_fires=None)
        with faults.injected(failing):
            assert rt.run([a, b, a]) == [None, None, None]
        assert sorted(s.key for s, _ in rt.quarantined) == sorted([a.key, b.key])
        assert rt.snapshot() == (0, 0)
        # Healed: both run again instead of replaying the failure.
        assert rt.run([a, b]) == [{"value": 5}, {"value": 6}]
        assert rt.snapshot() == (0, 2)
