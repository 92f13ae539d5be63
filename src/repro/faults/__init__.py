"""Fault injection + resilience primitives (``repro.faults``).

Two halves, deliberately in one package:

:mod:`repro.faults.plan`
    The deterministic, seedable fault-injection framework.  Boundaries
    across the codebase declare named injection sites
    (:func:`fault_point` / :func:`mangle`); a :class:`FaultPlan` makes
    chosen sites raise, tear bytes, or hang — zero overhead when no plan
    is installed.
:mod:`repro.faults.retry`
    :func:`retry_call`, the shared bounded-retry primitive (exponential
    backoff, full jitter, deadline) the injected faults exercise.

``tests/test_chaos.py`` is the consumer contract: every tier-1 serving/
streaming/runtime invariant replayed under every injected fault class.
See DESIGN.md ("Failure model & recovery") for the site catalog and the
recovery semantics each site is guarded by.  The work-queue executor
adds the ``queue.claim`` / ``queue.heartbeat`` / ``queue.reclaim``
sites (lease acquisition, keep-alive, and stale-lease takeover), whose
guarded invariant is the queue's purity contract: a fired fault may
duplicate or delay a job, never lose or corrupt its cache record.
"""
from repro.faults.plan import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    active,
    clear,
    fault_point,
    injected,
    install,
    install_from_env,
    mangle,
    plan_from_arg,
)
from repro.faults.retry import retry_call

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "active",
    "clear",
    "fault_point",
    "injected",
    "install",
    "install_from_env",
    "mangle",
    "plan_from_arg",
    "retry_call",
]
