"""Bounded retries: exponential backoff, full jitter, and a deadline.

The single retry primitive every layer shares (registry I/O, stream
publishes, runtime jobs), so the backoff policy is uniform and testable
in one place.  Full jitter — each delay is drawn uniformly from
``[0, min(max_delay, base * 2^attempt)]`` — because synchronized
retries from many queue workers or streams against one registry are a
thundering herd, and full jitter is the standard fix (decorrelates retry
storms at the cost of occasionally retrying immediately, which is fine).
"""
from __future__ import annotations

import random
import time

__all__ = ["retry_call"]


def retry_call(
    fn,
    *,
    attempts: int = 3,
    base_delay_s: float = 0.05,
    max_delay_s: float = 2.0,
    deadline_s: float | None = None,
    retry_on: tuple = (OSError,),
    seed: int | None = None,
    on_retry=None,
):
    """Call ``fn()``; on a ``retry_on`` failure, back off and try again.

    Parameters
    ----------
    fn
        Zero-argument callable (wrap arguments in a lambda/partial).
    attempts
        Total call budget (``1`` = no retries).
    base_delay_s, max_delay_s
        Backoff envelope: the delay before attempt ``i+1`` is uniform in
        ``[0, min(max_delay_s, base_delay_s * 2**i)]`` (full jitter).
    deadline_s
        Overall wall-clock budget from the first call.  A retry whose
        backoff would land past the deadline is not attempted — the last
        failure propagates instead of blocking the caller indefinitely.
    retry_on
        Exception classes considered transient.  Anything else
        propagates immediately (a deterministic bug is not worth
        retrying — that is what quarantine/degradation paths are for).
    seed
        Seeds a private jitter RNG for reproducible schedules (tests);
        ``None`` uses the process-global generator.
    on_retry
        Optional observer ``(attempt_index, exception, delay_s)`` called
        before each backoff sleep.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    rng = random.Random(seed) if seed is not None else random
    start = time.monotonic()
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on as exc:
            if attempt == attempts - 1:
                raise
            delay = rng.uniform(
                0.0, min(max_delay_s, base_delay_s * (2.0 ** attempt))
            )
            if (
                deadline_s is not None
                and time.monotonic() + delay - start > deadline_s
            ):
                raise
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            time.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
