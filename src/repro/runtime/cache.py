"""Content-addressed on-disk result cache.

One JSON file per job record, at ``<root>/<key[:2]>/<key>.json`` — the
two-character fan-out keeps directories small for paper-scale sweeps
(thousands of jobs).  Records store the spec alongside the result so a
cache directory is self-describing.  Note: records use Python's extended
JSON (``NaN``/``Infinity`` tokens, e.g. the Tucker refusal rows), so
audit them with ``python -m json.tool`` rather than a strict parser.

Writes are atomic (:func:`repro.utils.atomic_write`), so concurrent
workers and interrupted runs can never leave a half-written record: a
sweep killed mid-flight resumes by re-running only the jobs whose
records are missing.  Corrupt or unreadable records behave as misses.
"""
from __future__ import annotations

import json
from pathlib import Path

from repro.runtime.spec import CACHE_SCHEMA_VERSION, JobSpec, to_jsonable
from repro.utils.files import atomic_write

__all__ = ["ResultCache"]


class ResultCache:
    """Filesystem store mapping :attr:`JobSpec.key` to result records."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec_or_key) -> Path:
        key = spec_or_key.key if isinstance(spec_or_key, JobSpec) else str(spec_or_key)
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: JobSpec):
        """The cached result for ``spec``, or ``None`` on miss/corruption."""
        path = self.path_for(spec)
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or "result" not in record:
            return None
        if record.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        return record["result"]

    def put(self, spec: JobSpec, result, elapsed: float | None = None) -> Path:
        """Atomically persist ``result`` for ``spec``; return the record path."""
        path = self.path_for(spec)
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": spec.key,
            "fn": spec.fn,
            "params": to_jsonable(spec.params),
            "elapsed_seconds": elapsed,
            "result": to_jsonable(result),
        }
        return atomic_write(path, json.dumps(record, indent=1))

    def __contains__(self, spec) -> bool:
        return self.get(spec) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every record; return how many were removed."""
        n = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            n += 1
        return n

    def __repr__(self):
        return f"ResultCache({str(self.root)!r})"
