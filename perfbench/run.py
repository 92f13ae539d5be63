"""The repository benchmark: ``python3 perfbench/run.py --workload NAME [options]``.

Options: ``--seed N`` (default 0) generates the workload's inputs,
``--seconds S`` sets how much timed work one run does, and ``--trace 1``
switches from the end-to-end metrics to the per-layer metrics of a traced
run.  Run from the root of a checkout; the program is imported from
``src/``.  Workloads, metrics and their bounds are declared in
``BENCHMARK.json``; the latency limit, rate ladder and the map from each
per-layer metric to the end-to-end metric it should move are in
``perfbench/layers.json``.

CPU-bound timings, ``setup_s`` among them, are reported at the nominal
host speed of ``perfbench/hostspeed.py``; the raw figures are in each
run's detail line.

Every run works in a fresh directory under ``.perfbench_run/`` (removed at
exit) with its own registry, caches, temp dir and kernel-calibration file;
a traced run also writes its spans and self times to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness gate held,
1 on a violation or error, and 2 when the program cannot be imported.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    RunDir,
    die_with_parent,
    isolate,
    median,
    peak_rss_mb,
    shm_segments,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
#: Extra setups per untraced run; setup_s is the median of these and the run's own.
SETUP_REPEATS = 2
#: Host-speed slices taken right after each set-up, to scale it (see hostspeed.py).
SETUP_SLICES = 8
CHILD_TIMEOUT_S = 170


class Context:
    """What a workload needs from the run: inputs, scratch space, the tracer."""

    def __init__(self, args, run_dir: RunDir, tracer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.run_dir = run_dir
        self.tracer = tracer
        self.child_trace_path = (run_dir.path / "server-spans.json"
                                 if tracer is not None else None)
        self.violations: list = []
        self.n_violations = 0

    def violate(self, message: str) -> None:
        """Record a failed correctness gate (the first few are kept verbatim)."""
        self.n_violations += 1
        if len(self.violations) < 20:
            self.violations.append(message)

    def end_timed(self) -> None:
        """Stop tracing: what follows is checking, not measured work."""
        if self.tracer is not None:
            self.tracer.enabled = False


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-setup-repeats", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_host_scale() -> float:
    """Factor from raw set-up seconds to seconds at the nominal host speed."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    for _ in range(SETUP_SLICES):
        host.tick()
    return host.scale()


def _child_json(args, *extra) -> dict:
    """Run this script again in a fresh process; return its last stdout line."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, preexec_fn=die_with_parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}")
    return json.loads(lines[-1])


# -- per-layer metrics ---------------------------------------------------------


def _batcher_wait_ms(records: list) -> float:
    """Median microbatcher wait: a submit's time minus the flushes inside it."""
    flushes = sorted((r["start"], r["end"]) for r in records
                     if r["name"] == "serve.engine.predict")
    starts = [s for s, _ in flushes]
    waits = []
    for r in records:
        if r["name"] != "serve.batcher.submit":
            continue
        inside = 0.0
        for s, e in flushes[bisect.bisect_left(starts, r["start"]):]:
            if s > r["end"]:
                break
            if e <= r["end"]:
                inside += e - s
        waits.append(1e3 * (r["end"] - r["start"] - inside))
    return median(waits) if waits else 0.0


def layer_metrics(table: dict, child_records: list, found: dict) -> dict:
    """Every per-layer metric from the span table and the workload's own counts."""
    def row(name):
        return table.get(name, {"calls": 0, "busy_s": 0.0, "durations_s": [], "info": []})

    def med_ms(name):
        d = row(name)["durations_s"]
        return 1e3 * median(d) if d else 0.0

    v = {
        "runtime.jobs": found.get("runtime.jobs", 0),
        "runtime.unique_ratio": found.get("runtime.unique_ratio", 0),
        "experiments.tune_job_s": row("experiments.tune_job")["busy_s"],
        "datasets.generate_s": row("datasets.generate")["busy_s"],
        "core.tensor.from_data_s": row("core.tensor.from_data")["busy_s"],
        "core.completion.select_best_s": row("core.completion.select_best")["busy_s"],
        "baselines.sgr.fit_s": row("baselines.sgr.fit")["busy_s"],
        "baselines.sgr.predict_s": row("baselines.sgr.predict")["busy_s"],
        "baselines.sgr.evaluate_calls": row("baselines.sgr.evaluate")["calls"],
        "serve.server.handle_ms": med_ms("serve.server.handle"),
        "serve.batcher.wait_ms": _batcher_wait_ms(child_records),
        "serve.registry.resolve_ms": med_ms("serve.registry.resolve"),
        "serve.registry.publishes": row("serve.registry.publish")["calls"],
        "serve.registry.publish_ms": med_ms("serve.registry.publish"),
        "serve.registry.load_ms": med_ms("serve.registry.load"),
        "utils.serialization.dumps_ms": med_ms("utils.serialization.dumps"),
        "utils.serialization.loads_ms": med_ms("utils.serialization.loads"),
        "stream.observe_ms": med_ms("stream.observe"),
        "stream.buffer.append_ms": med_ms("stream.buffer.append"),
        "stream.trainer.update_ms": med_ms("stream.trainer.update"),
        "trace.spans": sum(r["calls"] for r in table.values()),
    }
    for method in ("fit", "partial_fit", "predict"):
        r = row(f"core.model.{method}")
        v[f"core.model.{method}_calls"] = r["calls"]
        v[f"core.model.{method}_s"] = r["busy_s"]
    engine = row("serve.engine.predict")
    batches = engine["calls"]
    v["serve.engine.batches"] = batches
    v["serve.engine.rows_per_batch"] = (sum(i["rows"] for i in engine["info"]) / batches
                                        if batches else 0.0)
    v["serve.engine.predict_ms"] = 1e3 * engine["busy_s"] / batches if batches else 0.0
    work = 0
    for kernel in ("als", "amn"):
        r = row(f"core.completion.{kernel}")
        v[f"core.completion.{kernel}_calls"] = r["calls"]
        v[f"core.completion.{kernel}_s"] = r["busy_s"]
        v[f"core.completion.{kernel}_sweeps"] = sum(i["sweeps"] for i in r["info"])
        work += sum(i["sweeps"] * i["nnz"] * i["order"] * i["rank"] ** 2
                    for i in r["info"])
    v["core.completion.work_computed"] = work
    # Counted by the workloads themselves; 0 where the layer does not run.
    for name in ("serve.transport_ms", "serve.admission.shed", "stream.trainer.partials",
                 "stream.trainer.refits", "stream.trainer.refit_share",
                 "stream.fresh_p50_ms", "stream.fresh_tail_ms", "gen.lateness_ms",
                 "max_ok_rps", "failed_frac"):
        v[name] = found.get(name, 0)
    return v


def write_trace(args, table: dict, records: dict, overhead: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    summary = {
        name: {"calls": r["calls"], "busy_s": r["busy_s"], "self_s": r["self_s"],
               "p50_ms": 1e3 * median(r["durations_s"])}
        for name, r in sorted(table.items())
    }
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "layers": summary,
                                "overhead": overhead, "spans": records}))
    print(f"spans and self times written to {path.relative_to(ROOT)}")


# -- one run -------------------------------------------------------------------


def _import_problem() -> str | None:
    """Why this checkout's program cannot be imported, or ``None``."""
    try:
        import numpy  # noqa: F401

        import repro
    except ImportError as exc:
        return f"cannot import the program from {ROOT / 'src'}: {exc}"
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        return f"repro was imported from {repro.__file__}, not from this checkout's src/"
    return None


def _traced_values(args, ctx, state, workload, result, e2e, untraced, child_records):
    """Per-layer metrics and tracing overhead; also writes the trace file."""
    from spans import merge_tables, summarize

    bench_records = ctx.tracer.records()
    table = merge_tables(summarize(bench_records), summarize(child_records))
    found = dict(result["layers"], **workload.layers(ctx, state, child_records))
    values = layer_metrics(table, child_records, found)
    overhead = {m: e2e[m] - untraced["metrics"][m]["value"] for m in e2e}
    for m, diff in overhead.items():
        values[f"trace.overhead.{m}"] = diff
    write_trace(args, table, {"bench": bench_records, "server": child_records}, overhead)
    return values


def _report(args, ctx, result, setups, values, wanted) -> int:
    """Print violations, the human summary and, last, the JSON result line."""
    correct = ctx.n_violations == 0 and result["failed"] == 0
    for message in ctx.violations:
        print(f"VIOLATION {message}")
    if ctx.n_violations > len(ctx.violations):
        print(f"VIOLATION ... {ctx.n_violations - len(ctx.violations)} more")
    detail = dict(result["detail"], setup_samples_s=setups, **result["layers"])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail},
                     default=str))
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:>7} {m['name']:<36} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


def run(args) -> int:
    untraced = None
    if args.trace:
        # The untraced twin: same inputs in a fresh process, for the overhead.
        untraced = _child_json(args, "--trace", "0", "--no-setup-repeats")
    t0 = time.perf_counter() if args.trace else T0
    run_dir = RunDir(f"{args.workload}-seed{args.seed}")
    try:
        isolate(run_dir)
        problem = _import_problem()
        if problem is not None:
            print(f"perfbench: {problem}", file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            import instrument
            from spans import Tracer

            tracer = Tracer()
            instrument.install(tracer)
        ctx = Context(args, run_dir, tracer)
        workload = importlib.import_module(f"{args.workload}_workload")
        shm_before = shm_segments()
        state = None
        try:
            state = workload.setup(ctx)
            setup_raw_s = time.perf_counter() - t0
            setup_s = setup_raw_s * _setup_host_scale()
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw_s}))
                return 0
            result = workload.measure(ctx, state)
        finally:
            ctx.end_timed()
            stopped = workload.teardown(ctx, state) if state is not None else {}
        leftover = shm_segments() - shm_before
        if leftover:
            ctx.violate(f"leftover shared-memory segments: {sorted(leftover)}")
        rss = peak_rss_mb() + stopped.get("server_peak_mb", 0.0)
        served = "server_peak_mb" in stopped  # a server child ran and wrote its spans
        child_records = (json.loads(ctx.child_trace_path.read_text())["spans"]
                         if args.trace and served else [])
    finally:
        run_dir.close()

    setups, raw_setups = [setup_s], [setup_raw_s]
    if not (args.trace or args.no_setup_repeats):
        for _ in range(SETUP_REPEATS):
            child = _child_json(args, "--setup-only")
            setups.append(child["setup_s"])
            raw_setups.append(child["raw_s"])
    result["detail"]["setup_raw_s"] = raw_setups
    e2e = dict(result["metrics"], setup_s=median(setups), peak_rss_mb=rss)
    if args.trace:
        values = _traced_values(args, ctx, state, workload, result, e2e, untraced,
                                child_records)
        return _report(args, ctx, result, setups, values, DECLARED["per_layer"])
    return _report(args, ctx, result, setups, e2e, DECLARED["end_to_end"])


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through teardown, which stops the server


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
