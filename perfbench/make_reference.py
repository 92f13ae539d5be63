"""Regenerate ``reference/sweep_seed0.json``: ``python3 perfbench/make_reference.py``.

Run from the root of a checkout whose job records are known good; the
``sweep`` workload compares its default-seed records against this file.
"""
from __future__ import annotations

from harness import RunDir, isolate

if __name__ == "__main__":
    run_dir = RunDir("reference")
    try:
        isolate(run_dir)
        import sweep_workload

        sweep_workload.write_reference()
    finally:
        run_dir.close()
