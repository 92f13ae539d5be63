"""Shared fixtures for the benchmark drivers."""
from __future__ import annotations

import pytest

from repro.runtime import Runtime


@pytest.fixture(scope="session")
def figure_runtime(tmp_path_factory):
    """A sequential runtime whose result cache lasts for the whole session.

    At smoke scale every figure7 job spec is also a figure6 spec (same
    app, model, ``n_train=2048``, grid, seed and time budget), so with
    this runtime figure7 reads figure6's records instead of refitting
    them.  A cached record equals a freshly computed one, so the tables
    and assertions are the same as with an uncached run.
    """
    return Runtime(cache_dir=tmp_path_factory.mktemp("figure-cache"))
