"""``python -m repro.stream`` — replay an application as a live stream.

Replays measured configurations of any ``repro.apps`` application as a
timed observation stream against a live in-process
:class:`~repro.serve.ModelServer`: every batch is scored through the
*server* (so the drift signal reflects what consumers see), folded into
the model via the partial-vs-refit policy, and republished on refit —
which the server picks up on its next ``name@latest`` resolution,
without restarting.  With ``--journal`` the stream is resumable: rerun
the same command and it continues from the last published version plus
the journal tail.

With ``--streams N`` the replay becomes a *fleet*: N concurrent
sessions (distinct names, staggered seeds) publish into the one
registry, each optionally drifting mid-stream (``--drift-at``), each
optionally gating refit republishes behind a shadow trial
(``--canary``) so ``name@latest`` only flips when the refit wins on
live prequential MLogQ.

Example::

    python -m repro.stream --app bcast --registry /tmp/reg \
        --n 200 --batch 32 --journal /tmp/bcast.jsonl

    python -m repro.stream --app bcast --registry /tmp/reg \
        --streams 4 --n 300 --drift-at 150 --canary
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace

import numpy as np

from repro.apps import get_application
from repro.serve import ModelRegistry, ModelServer
from repro.stream.pipeline import replay_application
from repro.stream.runner import StreamTask


def _fmt(record: dict) -> str:
    parts = [f"action={record['action']}"]
    if record.get("reason"):
        parts.append(f"reason={record['reason']}")
    if record.get("published_version"):
        channel = record.get("channel", "latest")
        parts.append(f"published=v{record['published_version']}@{channel}")
    if record.get("batch_error") is not None:
        parts.append(f"err={record['batch_error']:.3f}")
    rolling = record.get("rolling_error")
    if rolling is not None and not np.isnan(rolling):
        parts.append(f"rolling={rolling:.3f}")
    return " ".join(parts)


def _rank_arg(text: str):
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer rank or 'auto', got {text!r}"
        ) from None


def _stream_task(args) -> StreamTask:
    """The :class:`StreamTask` the parsed flags describe: every field but
    ``shift_at`` (``--drift-at``) is set by the flag of the same name."""
    params = {f.name: getattr(args, f.name) for f in fields(StreamTask) if f.name in args}
    return StreamTask(**params, shift_at=args.drift_at)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Replay an application as a streaming observation pipeline.",
    )
    parser.add_argument("--app", required=True,
                        help="application name (e.g. bcast, matmul, kripke)")
    parser.add_argument("--registry", required=True,
                        help="ModelRegistry directory to publish into")
    parser.add_argument("--name", default=None,
                        help="registry model name (default: <app>-stream)")
    parser.add_argument("--n", type=int, default=256,
                        help="observations to replay")
    parser.add_argument("--batch", type=int, default=32,
                        help="observations per stream batch")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cells", type=int, default=8)
    parser.add_argument("--rank", type=_rank_arg, default=3,
                        help="CP rank, or 'auto' to grow/prune per (re)fit")
    parser.add_argument("--loss", default="log_mse",
                        choices=["log_mse", "mlogq2"])
    parser.add_argument("--max-sweeps", type=int, default=30)
    parser.add_argument("--partial-sweeps", type=int, default=None,
                        help="sweep budget per warm-start update")
    parser.add_argument("--window", type=int, default=4096,
                        help="refit retention window (observations)")
    parser.add_argument("--journal", default=None,
                        help="journal file; enables resume across runs")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="observations per second (0 = full speed)")
    parser.add_argument("--drift-window", type=int, default=64)
    parser.add_argument("--drift-threshold", type=float, default=0.25)
    parser.add_argument("--drift-min-count", type=int, default=24)
    parser.add_argument("--streams", type=int, default=1, metavar="N",
                        help="run N concurrent stream sessions (a fleet of "
                             "drifting applications) against the one "
                             "registry; names are <name>-0..N-1")
    parser.add_argument("--drift-at", type=int, default=None, metavar="ROWS",
                        help="inject a measurement regime change after this "
                             "many rows per stream (default: stationary)")
    parser.add_argument("--drift-factor", type=float, default=2.0,
                        help="measurement scale factor after --drift-at")
    parser.add_argument("--canary", action="store_true",
                        help="publish refits to name@shadow and only flip "
                             "name@latest when the refit beats the incumbent "
                             "on live prequential MLogQ (losers roll back)")
    parser.add_argument("--canary-margin", type=float, default=0.05,
                        help="relative MLogQ win margin required to promote")
    parser.add_argument("--canary-min-scores", type=int, default=24,
                        help="paired observations before a trial verdict")
    parser.add_argument("--canary-max-scores", type=int, default=256,
                        help="trial budget; undecided trials roll back")
    parser.add_argument("--fault-plan", default=None, metavar="JSON|@FILE",
                        help="install a repro.faults FaultPlan (chaos runs): "
                             "inline JSON or @path/to/plan.json")
    args = parser.parse_args(argv)
    if args.streams < 1:
        parser.error("--streams must be >= 1")
    if args.streams > 1 and args.journal is not None:
        parser.error("--journal is single-stream only (fleet streams are "
                     "ephemeral; give each stream its own run to resume)")

    from repro import faults

    if args.fault_plan:
        faults.install(faults.plan_from_arg(args.fault_plan))
    else:
        faults.install_from_env()

    get_application(args.app)  # an unknown name fails before any output
    task = _stream_task(args)
    name = task.name
    registry = ModelRegistry(args.registry)

    if args.streams > 1:
        from repro.stream.fleet import MultiStreamDriver

        tasks = [
            replace(task, name=f"{name}-{i}", seed=task.seed + i)
            for i in range(args.streams)
        ]
        drift = (
            "stationary"
            if args.drift_at is None
            else f"drift@{args.drift_at}x{args.drift_factor}"
        )
        print(
            f"[stream] fleet: {args.streams} concurrent {args.app} streams "
            f"({drift}, canary={'on' if args.canary else 'off'}) "
            f"-> {args.registry}"
        )
        report = MultiStreamDriver(registry, tasks).run()
        for sname, summary in report["streams"].items():
            if "error" in summary:
                print(f"[stream] {sname}: FAILED {summary['error']}")
                continue
            tr = summary["trainer"]
            print(
                f"[stream] {sname}: n={summary['n_observations']} "
                f"refit={tr['refit']} versions={summary['published_versions']} "
                f"promotions={summary['promotions']} "
                f"rollbacks={summary['rollbacks']}"
            )
        print(
            f"[stream] fleet done: streams={report['n_streams']} "
            f"failures={report['failures']} promotions={report['promotions']} "
            f"rollbacks={report['rollbacks']}"
        )
        return 1 if report["failures"] else 0

    server = ModelServer(registry, default_model=name)
    app, session = task.build_session(registry)
    if session.resumed_from is not None:
        pending = session.buffer.n_seen - session.buffer.flushed
        print(
            f"[stream] resume: journal seq={session.buffer.n_seen}, "
            f"registry {name}@v{registry.resolve(name).version} "
            f"consumed={session.resumed_from}, pending={pending}"
        )
        if pending:
            print(f"[stream] resume flush: {_fmt(session.flush())}")

    def server_predict(X):
        resp = server.handle({"op": "predict", "model": name, "x": X.tolist()})
        if not resp.get("ok"):
            raise RuntimeError(f"server predict failed: {resp.get('error')}")
        return np.array(
            [v if v is not None else np.nan for v in resp["y"]], dtype=float
        )

    def on_batch(i, record):
        served = ""
        if session.published_versions:
            served = f" served={name}@v{session.published_versions[-1]}"
        print(f"[stream] batch {i}: n={record['n_new']}{served} {_fmt(record)}")
        if args.rate > 0:
            time.sleep(args.batch / args.rate)

    summary = replay_application(
        app, session, args.n, batch=args.batch, seed=args.seed,
        predict_fn=server_predict, on_batch=on_batch,
    )
    session.buffer.close()
    trainer_rec = summary["trainer"]
    rolling = summary["drift"]["error"]
    canary_part = (
        f"promotions={summary['promotions']} rollbacks={summary['rollbacks']} "
        if args.canary
        else ""
    )
    print(
        f"[stream] done: app={args.app} name={name} "
        f"n={summary['n_observations']} fit={trainer_rec['fit']} "
        f"partial={trainer_rec['partial']} refit={trainer_rec['refit']} "
        f"republished={summary['republished']} "
        f"versions={summary['published_versions']} "
        f"{canary_part}"
        f"backend={summary['kernel_backend']} "
        f"rolling_error={rolling if rolling is not None else float('nan'):.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
