"""Shared fixtures for the benchmark drivers."""
from __future__ import annotations

import pytest

from repro.runtime import Runtime


@pytest.fixture(scope="session")
def figure_runtime():
    """A sequential runtime shared by the whole session.

    At smoke scale every figure7 job spec is also a figure6 spec (same
    app, model, ``n_train=2048``, grid, seed and time budget), so with
    this runtime figure7 reads figure6's records from the runtime's memo
    instead of refitting them.  A memoized record equals a freshly
    computed one, so the tables and assertions are the same as with a
    fresh runtime.
    """
    return Runtime()
