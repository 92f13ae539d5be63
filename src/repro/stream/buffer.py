"""Append-only, windowed, journaled observation store (streaming input side).

Every observation gets a monotonically increasing 0-based *sequence
number*; the journal is one canonical-JSON line per appended batch
(``{"seq": <first>, "x": [[...]], "y": [...]}``), so a stream is
resumable exactly like a ``repro.runtime`` sweep: replay the journal,
skip everything the last published model already consumed (its manifest
records ``stream_seq``), and continue appending to the same file.

The in-memory store is *windowed*: after a flush, observations older
than both the flush point and the retention window are dropped — long
streams hold O(window) rows, while the model's observed tensor keeps the
counts-weighted summary of everything ever absorbed.  A torn final
journal line (crash mid-write) is skipped on replay; corruption anywhere
else raises, mirroring the result cache's miss-vs-corruption policy.  A
line whose ``seq`` is not the number of observations before it is
corruption too.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.runtime.spec import canonical
from repro.utils.validation import check_1d, check_matching_rows, check_positive

__all__ = ["ObservationBuffer"]


class ObservationBuffer:
    """Windowed store of streaming ``(config, runtime)`` observations.

    Parameters
    ----------
    journal
        Optional path of the append-only journal file.  ``None`` keeps
        the stream in memory only (tests, throwaway replays).
    window
        Retention bound for flushed observations (``None`` = keep all).
        Pending (not yet flushed) observations are always retained.
    """

    def __init__(self, journal=None, window: int | None = None):
        if window is not None and int(window) < 1:
            raise ValueError("window must be >= 1 (or None for unbounded)")
        self.window = None if window is None else int(window)
        self.journal = None if journal is None else Path(journal)
        self._fh = None
        self._base = 0  # sequence number of the first retained row
        self._rows: list[np.ndarray] = []
        self._vals: list[float] = []
        self._flushed = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def open(cls, journal, window: int | None = None) -> "ObservationBuffer":
        """Replay an existing journal (if any) and continue appending to it."""
        buf = cls(journal=journal, window=window)
        path = buf.journal
        if path is not None and path.exists():
            raw = path.read_bytes()
            lines = raw.split(b"\n")
            offset = 0
            for i, bline in enumerate(lines):
                advance = len(bline) + (1 if i < len(lines) - 1 else 0)
                if not bline.strip():
                    offset += advance
                    continue
                try:
                    record = json.loads(bline)
                except json.JSONDecodeError:
                    if not any(rest.strip() for rest in lines[i + 1 :]):
                        # Torn final line (the crash the journal survives):
                        # drop it from the file too, so the next append
                        # starts on a clean line boundary instead of
                        # concatenating onto the torn bytes.
                        with path.open("r+b") as fh:
                            fh.truncate(offset)
                        break
                    record = None
                # Each line continues the one before it: a repeated or
                # skipped ``seq`` would double-count or lose observations.
                if not isinstance(record, dict) or record.get("seq") != buf.n_seen:
                    raise ValueError(f"corrupt journal line {i + 1} in {path}")
                buf._ingest(
                    np.asarray(record["x"], dtype=float),
                    np.asarray(record["y"], dtype=float),
                )
                offset += advance
        return buf

    # -- appending -------------------------------------------------------------

    def _ingest(self, X: np.ndarray, y: np.ndarray) -> tuple[int, int]:
        lo = self.n_seen
        for row, val in zip(X, y):
            self._rows.append(np.asarray(row, dtype=float))
            self._vals.append(float(val))
        return lo, self.n_seen

    def append(self, X, y) -> tuple[int, int]:
        """Append a measurement batch; return its sequence interval ``[lo, hi)``.

        The batch is journaled as one canonical-JSON line *before* it is
        considered part of the stream, so anything the in-memory state
        knows about is recoverable from disk.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = check_positive(check_1d(y, "y"), "y")
        check_matching_rows(X, y)
        if len(y) == 0:
            return self.n_seen, self.n_seen
        if self.journal is not None:
            if self._fh is None:
                self.journal.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.journal.open("a")
            self._fh.write(
                canonical({"seq": self.n_seen, "x": X, "y": y}) + "\n"
            )
            self._fh.flush()
        return self._ingest(X, y)

    # -- reading ---------------------------------------------------------------

    @property
    def n_seen(self) -> int:
        """Total observations ever appended (next sequence number)."""
        return self._base + len(self._vals)

    @property
    def n_retained(self) -> int:
        return len(self._vals)

    @property
    def flushed(self) -> int:
        """Sequence number up to which observations reached the model."""
        return self._flushed

    def _slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = max(lo, self._base), min(hi, self.n_seen)
        if hi <= lo:
            d = len(self._rows[0]) if self._rows else 0
            return np.empty((0, d)), np.empty(0)
        a, b = lo - self._base, hi - self._base
        return np.stack(self._rows[a:b]), np.asarray(self._vals[a:b])

    def since(self, seq: int) -> tuple[np.ndarray, np.ndarray]:
        """Observations with sequence number ``>= seq`` (the pending tail)."""
        if seq < self._base:
            raise ValueError(
                f"observations before seq {self._base} were trimmed; "
                f"cannot replay from {seq}"
            )
        return self._slice(seq, self.n_seen)

    def window_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The last ``window`` observations (or all)."""
        lo = self._base if self.window is None else max(
            self._base, self.n_seen - self.window
        )
        return self._slice(lo, self.n_seen)

    def refit_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The refit training set: the window, extended over the pending tail.

        A pending tail longer than the retention window (e.g. a first
        batch bigger than ``window``) must still be absorbed in full — a
        refit trained on :meth:`window_arrays` alone would silently drop
        never-absorbed observations, and the flush mark would bury them
        below the published cursor where resume cannot replay them.
        """
        lo = self._base if self.window is None else max(
            self._base, self.n_seen - self.window
        )
        return self._slice(min(lo, self._flushed), self.n_seen)

    # -- flushing --------------------------------------------------------------

    def mark_flushed(self, seq: int | None = None) -> None:
        """Record that observations below ``seq`` (default: all) reached the
        model, then drop rows older than both the flush point and the window."""
        self._flushed = self.n_seen if seq is None else min(int(seq), self.n_seen)
        keep_from = self._base if self.window is None else max(
            self._base, self.n_seen - self.window
        )
        keep_from = min(keep_from, self._flushed)
        drop = keep_from - self._base
        if drop > 0:
            del self._rows[:drop]
            del self._vals[:drop]
            self._base = keep_from

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __len__(self) -> int:
        return self.n_seen

    def __repr__(self):
        journal = None if self.journal is None else str(self.journal)
        return (
            f"ObservationBuffer(n_seen={self.n_seen}, "
            f"retained={self.n_retained}, flushed={self._flushed}, "
            f"journal={journal!r})"
        )
