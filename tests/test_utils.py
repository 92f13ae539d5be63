"""Tests for repro.utils: rng, serialization, atomic writes, validation, tables."""
import os

import numpy as np
import pytest

from repro.utils import (
    as_generator,
    atomic_write,
    check_1d,
    check_2d,
    check_matching_rows,
    check_positive,
    format_table,
    load_model,
    model_size_bytes,
    save_model,
    spawn_rngs,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_deterministic(self):
        a = as_generator(42).integers(0, 1000, 10)
        b = as_generator(42).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_independent_streams(self):
        r1, r2 = spawn_rngs(7, 2)
        a = r1.random(100)
        b = r2.random(100)
        assert not np.allclose(a, b)

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(3, 4)]
        b = [g.random() for g in spawn_rngs(3, 4)]
        assert a == b

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_zero_ok(self):
        assert spawn_rngs(0, 0) == []


class TestSerialization:
    def test_size_positive(self):
        assert model_size_bytes({"a": np.zeros(10)}) > 80

    def test_size_hook_respected(self):
        class WithHook:
            payload = np.zeros(10000)

            def __getstate_for_size__(self):
                return {"tiny": 1}

        class NoHook:
            payload = np.zeros(10000)

        assert model_size_bytes(WithHook()) < 200
        # pickling an instance without hook includes the class dict payload
        assert model_size_bytes(NoHook.payload) > 10000 * 8

    def test_save_load_roundtrip(self, tmp_path):
        obj = {"w": np.arange(5.0), "name": "m"}
        path = tmp_path / "model.pkl"
        n = save_model(obj, path)
        assert n == path.stat().st_size
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded["w"], obj["w"])
        assert loaded["name"] == "m"

    def test_canonical_array_preserves_values(self):
        from repro.utils.serialization import canonical_array

        native = np.array([1.0, 2.5, -3.0])
        assert canonical_array(native) is native  # already canonical: no-op
        # A non-native byte order must be *converted*, never reinterpreted
        # (a raw view would silently byteswap the values).
        swapped = native.astype(native.dtype.newbyteorder())
        out = canonical_array(swapped)
        np.testing.assert_array_equal(out, native)
        assert out.dtype is np.dtype("float64")
        ints = np.array([[1, 2], [3, 4]], dtype=np.intp)[:, ::-1]
        out = canonical_array(ints)  # non-contiguous input: compacted copy
        np.testing.assert_array_equal(out, ints)
        assert out.flags["C_CONTIGUOUS"]


class TestValidation:
    def test_check_1d(self):
        out = check_1d([1, 2, 3])
        assert out.shape == (3,) and out.dtype == float

    def test_check_1d_rejects_2d(self):
        with pytest.raises(ValueError):
            check_1d(np.ones((2, 2)))

    def test_check_2d_promotes_1d(self):
        assert check_2d([1.0, 2.0]).shape == (2, 1)

    def test_check_2d_rejects_3d(self):
        with pytest.raises(ValueError):
            check_2d(np.ones((2, 2, 2)))

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive([1.0, 0.0])

    def test_check_positive_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive([1.0, np.nan])

    def test_check_positive_empty_ok(self):
        check_positive(np.array([]))

    def test_matching_rows(self):
        with pytest.raises(ValueError):
            check_matching_rows(np.ones((3, 2)), np.ones(4))


class TestTables:
    def test_basic_render(self):
        s = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = s.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_scientific_formatting(self):
        s = format_table(["x"], [[1.23e-9]])
        assert "e-09" in s

    def test_zero_and_str(self):
        s = format_table(["x", "y"], [[0.0, "hi"]])
        assert "0" in s and "hi" in s


class TestAtomicWrite:
    def test_replaces_whole_file_without_fsync(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        path = tmp_path / "sub" / "record.json"
        atomic_write(path, "first")
        atomic_write(path, b"second")
        assert path.read_bytes() == b"second"
        assert synced == []  # atomic is not durable unless asked
        atomic_write(path, "third", durable=True)
        assert path.read_text() == "third" and len(synced) == 2  # file, dir
        assert os.listdir(path.parent) == ["record.json"]
