"""Command-line experiment runner.

Run any table/figure reproduction without pytest::

    python -m repro.experiments figure1 --scale smoke
    python -m repro.experiments figure6 --scale full --seed 1 --out results/
    python -m repro.experiments figure5 --jobs 4 --cache-dir ~/.cache/repro
    python -m repro.experiments all --scale smoke

Scales: smoke (seconds-to-minutes), full, paper (the paper's sizes).

Runtime flags (see :mod:`repro.runtime` and DESIGN.md "Runtime & caching"):

``--jobs N``
    Execute each driver's job list on ``N`` worker processes.  The
    default (1) runs sequentially in-process; results are identical
    either way — every job derives its randomness from seeds in its spec.
``--cache-dir PATH``
    Content-addressed result cache.  Completed jobs are stored as JSON
    records keyed by a hash of the job spec; re-running a sweep answers
    finished jobs from the cache (an interrupted sweep resumes where it
    stopped), and editing a grid/seed/scale invalidates exactly the jobs
    it changes.  A ``[runtime]`` line per driver reports the hit/executed
    split.  Without ``--cache-dir`` nothing is persisted, but the one
    runtime shared by every driver of a call still runs each distinct
    job spec once: ``all --scale smoke`` reports figure7's 40 jobs, all
    of them figure6 specs, as hits.
``--queue DIR --queue-workers N``
    Elastic work-queue mode: specs are spooled under ``DIR`` and claimed
    by ``N`` lease-holding worker processes (heartbeats + stale-lease
    reclaim — a SIGKILLed worker's jobs are re-run by its peers, and
    extra workers on any host sharing ``DIR`` may join mid-sweep).
    Results are ordinary cache records, byte-identical to a sequential
    run of the same specs.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import (
    ablation_rank,
    ablation_tucker,
    ablations,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    table1,
)
from repro.experiments.config import SCALES
from repro.runtime import Runtime
from repro.utils import format_table

DRIVERS = {
    "table1": table1.run,
    "figure1": figure1.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "ablation-loss": ablations.run_loss,
    "ablation-spacing": ablations.run_spacing,
    "ablation-optimizer": ablations.run_optimizer,
    "ablation-tucker": ablation_tucker.run,
    "ablation-rank": ablation_rank.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*DRIVERS, "all"],
        help="which table/figure to regenerate ('all' runs every driver)",
    )
    parser.add_argument("--scale", choices=SCALES, default=None,
                        help="problem scale (default: $REPRO_BENCH_SCALE or smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to archive result tables into")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment runtime "
                             "(1 = sequential in-process)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="content-addressed job result cache; completed "
                             "jobs are skipped on re-runs")
    parser.add_argument("--queue", type=Path, default=None, metavar="DIR",
                        help="work-queue spool directory: jobs are claimed by "
                             "lease-holding queue workers instead of a local "
                             "process pool (results land in --cache-dir, or "
                             "DIR/results)")
    parser.add_argument("--queue-workers", type=int, default=2, metavar="N",
                        help="local worker processes to spawn over the queue "
                             "spool (more may join from other hosts)")
    parser.add_argument("--queue-lease-ttl", type=float, default=10.0,
                        metavar="SECONDS",
                        help="heartbeat TTL before a dead worker's lease is "
                             "reclaimed by a peer")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.queue_workers < 1:
        parser.error("--queue-workers must be >= 1")

    runtime = Runtime(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        queue_dir=args.queue,
        queue_workers=args.queue_workers,
        queue_lease_ttl_s=args.queue_lease_ttl,
    )
    names = list(DRIVERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        hits0, executed0 = runtime.snapshot()
        t0 = time.perf_counter()
        result = DRIVERS[name](scale=args.scale, seed=args.seed, runtime=runtime)
        elapsed = time.perf_counter() - t0
        table = format_table(result["headers"], result["rows"])
        print(f"\n== {name} ({elapsed:.1f}s) ==")
        print(table)
        if result.get("notes"):
            print(f"(expected shape: {result['notes']})")
        hits = runtime.hits - hits0
        executed = runtime.executed - executed0
        where = (
            f"queue={args.queue}, workers={runtime.queue_workers}"
            if args.queue is not None
            else f"jobs={runtime.jobs}"
        )
        print(
            f"[runtime] {name}: {hits + executed} jobs, {hits} cache hits, "
            f"{executed} executed ({where})"
        )
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
