"""Shared fixtures: small cached datasets and deterministic generators."""
from __future__ import annotations

import numpy as np
import pytest

from repro.apps import ExaFMM, MatMul
from repro.datasets import generate_dataset


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def mm_data():
    """A small MatMul train/test pair shared across model tests."""
    app = MatMul()
    train = generate_dataset(app, 1024, seed=0)
    test = generate_dataset(app, 256, seed=1)
    return app, train, test


@pytest.fixture(scope="session")
def fmm_data():
    """A small ExaFMM train/test pair (6 parameters, has a constraint)."""
    app = ExaFMM()
    train = generate_dataset(app, 1024, seed=0)
    test = generate_dataset(app, 256, seed=1)
    return app, train, test


@pytest.fixture()
def smooth_2d():
    """A noise-free separable positive function on a 2-D log-uniform cloud."""
    gen = np.random.default_rng(7)
    X = np.exp(gen.uniform(np.log(1.0), np.log(100.0), size=(2000, 2)))
    y = 1e-3 * X[:, 0] ** 1.5 * X[:, 1] ** 0.5
    return X, y
