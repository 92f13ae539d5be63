"""Traced server launcher.

Usage: ``python perfbench/serve_child.py --trace-out FILE -- <repro.serve args>``.

Wraps the serve layers (see ``instrument.py``) and then calls the same
``repro.serve.server.main`` that ``python -m repro.serve`` runs.  The spans
are written to ``FILE`` when the server exits (on SIGINT).
"""
from __future__ import annotations

import argparse
import sys

import instrument
from spans import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]

    from repro.serve import server

    tracer = Tracer()
    instrument.install(tracer)
    try:
        return server.main(server_args)
    finally:
        tracer.enabled = False
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
