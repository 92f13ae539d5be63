"""Shared reporting helpers for the benchmark suite.

Each benchmark runs one figure/table driver once (``benchmark.pedantic``
with a single round — these are minutes-scale experiments, not
microbenchmarks), prints the same rows the paper plots, and archives the
table under ``results/``.

Performance benchmarks additionally archive machine-readable records via
:func:`report_perf`, which appends one timestamped entry per run to a
``results/BENCH_<name>.json`` trajectory so successive runs can compare
throughput against history.

Archiving is opt-in: nothing under ``results/`` is written unless
``REPRO_BENCH_RECORD=1`` (set by the CI bench job, and by a change that
records a measured speedup), so a plain test run leaves tracked files
untouched.  Printing and the benchmarks' assertions do not depend on it.
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

from repro.utils import format_table

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def perf_asserts_enabled() -> bool:
    """Whether wall-clock perf assertions should run in this environment.

    Shared CI runners are too noisy for hard wall-clock ratio thresholds,
    so assertions are skipped whenever ``CI`` is set — the CI bench job
    gates regressions through ``benchmarks/_compare.py`` (a 30% slowdown
    diff against the committed baseline) instead.  Set
    ``REPRO_PERF_ASSERT=1`` to force the assertions anywhere.
    """
    if os.environ.get("REPRO_PERF_ASSERT") == "1":
        return True
    return not os.environ.get("CI")


def recording_enabled() -> bool:
    """Whether this run archives its tables and records under ``results/``."""
    return os.environ.get("REPRO_BENCH_RECORD") == "1"


def run_once(benchmark, fn, **kwargs):
    """Execute a driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)


def report(name: str, result: dict) -> str:
    """Print (and, when recording, archive) a driver's output table.

    Returns the rendered text.
    """
    table = format_table(result["headers"], result["rows"])
    text = f"== {name} ==\n{table}\n"
    if result.get("notes"):
        text += f"(expected shape: {result['notes']})\n"
    if recording_enabled():
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def report_perf(name: str, records: list) -> Path | None:
    """Append one run's perf records to ``results/BENCH_<name>.json``.

    ``records`` is a list of dicts (one per measured configuration).  The
    file holds the whole trajectory — a JSON list of runs, each stamped
    with time, git revision, and host — so later runs can detect
    regressions against any earlier entry.  Returns the file path, or
    ``None`` when recording is off (see :func:`recording_enabled`).
    """
    if not recording_enabled():
        return None
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "revision": _git_revision(),
            "host": platform.node() or "unknown",
            "records": records,
        }
    )
    path.write_text(json.dumps(history, indent=2) + "\n")
    return path


def series(rows, key_idx, val_idx, where=None):
    """Group rows into {key: [values]} for shape assertions."""
    out: dict = {}
    for row in rows:
        if where is not None and not where(row):
            continue
        out.setdefault(row[key_idx], []).append(row[val_idx])
    return out
