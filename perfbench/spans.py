"""In-memory spans around calls into the program's public functions.

The benchmark traces from its own files: :class:`Tracer` replaces public
functions and methods with wrappers that record one span per call (name,
start, end, parent span, request id and optional per-call facts), keeps
the spans in memory, and writes them out once at the end.  A span's
*self time* is its duration minus the time of the spans it directly
caused on the same thread.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "summarize", "merge_tables"]


class Tracer:
    """Record spans for wrapped callables while :attr:`enabled` is true."""

    def __init__(self):
        self.spans: list = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- recording -------------------------------------------------------------

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.rid = None
        return tls

    def wrap(self, fn, name: str, info=None, rid=None):
        """A recording wrapper around ``fn``.

        ``info(args, kwargs, result)`` returns JSON facts kept with the span;
        ``rid(args, kwargs)`` extracts a request id that nested spans inherit.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tls = tracer._state()
            sid = next(tracer._ids)
            parent = tls.stack[-1] if tls.stack else None
            outer_rid = tls.rid
            if rid is not None:
                found = rid(args, kwargs)
                if found is not None:
                    tls.rid = found
            tls.stack.append(sid)
            facts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    facts = info(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                tls.stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tls.rid, facts))
                tls.rid = outer_rid

        return wrapper

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        """Wrap ``cls.attr`` (plain or class method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, **kw)))
        else:
            setattr(cls, attr, self.wrap(raw, name, **kw))

    def patch_function(self, fn, name: str, **kw) -> None:
        """Wrap ``fn`` wherever a loaded ``repro`` module refers to it.

        Covers ``from module import fn`` bindings and module-level dispatch
        tables (e.g. the completion ``OPTIMIZERS`` dict).
        """
        wrapper = self.wrap(fn, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            value[dkey] = wrapper

    # -- output ----------------------------------------------------------------

    def records(self) -> list:
        """Spans as JSON-ready dicts, in completion order."""
        return [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "rid": rid, "info": facts}
            for sid, name, start, end, parent, rid, facts in self.spans
        ]

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.records()}))


def summarize(records: list) -> dict:
    """Per-name calls, busy seconds, self seconds and per-call durations."""
    child_s: dict = {}
    for r in records:
        if r["parent"] is not None:
            child_s[r["parent"]] = child_s.get(r["parent"], 0.0) + r["end"] - r["start"]
    table: dict = {}
    for r in records:
        dur = r["end"] - r["start"]
        row = table.setdefault(r["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                            "durations_s": [], "info": []})
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - child_s.get(r["id"], 0.0)
        row["durations_s"].append(dur)
        if r["info"] is not None:
            row["info"].append(r["info"])
    return table


def merge_tables(*tables: dict) -> dict:
    """Combine :func:`summarize` tables from several processes."""
    out: dict = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                         "durations_s": [], "info": []})
            acc["calls"] += row["calls"]
            acc["busy_s"] += row["busy_s"]
            acc["self_s"] += row["self_s"]
            acc["durations_s"].extend(row["durations_s"])
            acc["info"].extend(row["info"])
    return out
