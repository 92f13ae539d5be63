"""Deterministic, seedable fault injection (the chaos layer).

Production systems fail at boundaries — a blob write hits a full disk, a
manifest lands half-written, a worker wedges, a refit diverges.  The
resilience machinery guarding those boundaries (retries, watchdogs,
fallbacks, degradation) is exactly the code ordinary tests never
execute, so this module makes every failure *injectable*: load-bearing
boundaries declare a **named injection site** (:func:`fault_point` for
control-flow sites, :func:`mangle` for byte-stream sites) and a test
installs a :class:`FaultPlan` saying which sites misbehave, how, and
when.

Design constraints, in order:

Zero overhead when disabled
    A site is one function call plus one module-global ``None`` check.
    No plan installed (the production state) means no locks, no dict
    lookups, no RNG — the serving and kernel hot paths pay nothing
    measurable (the bench gate enforces this).
Deterministic
    Firing decisions depend only on the plan (seed, per-site hit
    counters, rule parameters) — never on wall clock or global RNG
    state.  Probabilistic rules draw from a per-site generator seeded by
    ``sha256(seed:site)``, so one site's draws are independent of how
    often any other site is hit.  The same plan against the same
    workload injects the same faults.
Cross-process
    The plan is module state, so ``fork``-based children (runtime pool
    and queue workers) inherit it — with counters *as of the fork*,
    and independently thereafter (each forked worker makes its own
    firing decisions, which is what per-worker faults need).  For
    non-inheriting processes, :data:`ENV_VAR` carries the plan as JSON
    and :func:`install_from_env` activates it (both CLIs expose
    ``--fault-plan`` on top of this).

See DESIGN.md ("Failure model & recovery") for the site catalog.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import threading
import time
from contextlib import contextmanager

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
]

#: Environment variable carrying a JSON plan into child processes.
ENV_VAR = "REPRO_FAULTS"

#: Exception classes a rule may raise, by JSON-safe name.  Real types —
#: not a private ``InjectedFault`` — so the production ``except`` clauses
#: under test catch injected faults exactly as they would catch real ones.
EXCEPTIONS = {
    "os": OSError,
    "file_not_found": FileNotFoundError,
    "connection": ConnectionError,
    "timeout": TimeoutError,
    "runtime": RuntimeError,
    "value": ValueError,
}

_KINDS = ("error", "torn", "hang", "crash", "stop")


class FaultRule:
    """One site's misbehavior: what fires, when, and how often.

    Parameters
    ----------
    site
        Injection-site name (see the catalog in DESIGN.md).
    kind
        ``"error"`` raises ``EXCEPTIONS[error]``; ``"torn"`` truncates
        the bytes at a :func:`mangle` site to ``keep_fraction`` (a torn
        write); ``"hang"`` sleeps ``delay_s`` (a wedged dependency);
        ``"crash"`` calls ``os._exit(exit_code)`` (SIGKILL-equivalent);
        ``"stop"`` sends the process ``SIGSTOP`` (a livelocked/paged-out
        worker — every thread freezes, including heartbeats).
    prob
        Firing probability per eligible hit (after ``after``, below
        ``max_fires``).  ``1.0`` makes the rule a deterministic schedule.
    after
        Skip this many hits before the rule becomes eligible.
    max_fires
        Total firing budget (``None`` = unlimited).  The default ``1``
        models a *transient* fault: fire once, then heal — which is what
        retry/fallback paths need to be provable against.
    """

    __slots__ = (
        "site", "kind", "prob", "after", "max_fires",
        "error", "message", "delay_s", "keep_fraction", "exit_code",
    )

    def __init__(
        self,
        site: str,
        kind: str = "error",
        *,
        prob: float = 1.0,
        after: int = 0,
        max_fires: int | None = 1,
        error: str = "os",
        message: str | None = None,
        delay_s: float = 5.0,
        keep_fraction: float = 0.5,
        exit_code: int = 3,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r}: want one of {_KINDS}")
        if error not in EXCEPTIONS:
            raise ValueError(
                f"unknown error class {error!r}: want one of {sorted(EXCEPTIONS)}"
            )
        if not 0.0 <= float(prob) <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        if not 0.0 <= float(keep_fraction) < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        self.site = str(site)
        self.kind = kind
        self.prob = float(prob)
        self.after = max(int(after), 0)
        self.max_fires = None if max_fires is None else max(int(max_fires), 0)
        self.error = error
        self.message = message
        self.delay_s = max(float(delay_s), 0.0)
        self.keep_fraction = float(keep_fraction)
        self.exit_code = int(exit_code)

    def to_record(self) -> dict:
        """JSON form (the :data:`ENV_VAR` / ``--fault-plan`` transport)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self):
        return (
            f"FaultRule({self.site!r}, {self.kind!r}, prob={self.prob}, "
            f"after={self.after}, max_fires={self.max_fires})"
        )


def _site_rng(seed: int, site: str) -> random.Random:
    # PYTHONHASHSEED randomizes ``hash(str)`` per process; a sha256-based
    # seed keeps per-site streams identical across processes and runs.
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


class FaultPlan:
    """A set of :class:`FaultRule`\\ s plus per-site hit/fire accounting.

    Build one fluently and install it::

        plan = FaultPlan(seed=7).on("registry.write", "error", max_fires=2)
        with faults.injected(plan):
            registry.publish("m", model)   # first two blob writes fail
        assert plan.fires("registry.write") == 2

    Thread-safe; counters are per-process (a forked worker accounts its
    own hits from its copy of the plan).
    """

    def __init__(self, seed: int = 0, rules=()):
        self.seed = int(seed)
        self._rules: dict[str, FaultRule] = {}
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fires: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        for rule in rules:
            self._rules[rule.site] = rule

    # -- construction ----------------------------------------------------------

    def on(self, site: str, kind: str = "error", **kwargs) -> "FaultPlan":
        """Add (or replace) the rule for ``site``; chainable."""
        self._rules[site] = FaultRule(site, kind, **kwargs)
        return self

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [r.to_record() for r in self._rules.values()],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        record = json.loads(text)
        rules = []
        for entry in record.get("rules", []):
            entry = dict(entry)
            site = entry.pop("site")
            kind = entry.pop("kind", "error")
            rules.append(FaultRule(site, kind, **entry))
        return cls(seed=record.get("seed", 0), rules=rules)

    # -- accounting ------------------------------------------------------------

    def sites(self) -> list[str]:
        return sorted(self._rules)

    def hits(self, site: str | None = None):
        with self._lock:
            return dict(self._hits) if site is None else self._hits.get(site, 0)

    def fires(self, site: str | None = None):
        with self._lock:
            return dict(self._fires) if site is None else self._fires.get(site, 0)

    # -- firing ----------------------------------------------------------------

    def _decide(self, site: str) -> FaultRule | None:
        """Count one hit at ``site``; return the rule iff it fires."""
        rule = self._rules.get(site)
        if rule is None:
            return None
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            if hit < rule.after:
                return None
            if rule.max_fires is not None and (
                self._fires.get(site, 0) >= rule.max_fires
            ):
                return None
            if rule.prob < 1.0:
                rng = self._rngs.get(site)
                if rng is None:
                    rng = self._rngs[site] = _site_rng(self.seed, site)
                if rng.random() >= rule.prob:
                    return None
            self._fires[site] = self._fires.get(site, 0) + 1
        return rule

    def _act(self, rule: FaultRule) -> None:
        if rule.kind == "error":
            raise EXCEPTIONS[rule.error](
                rule.message or f"injected fault at {rule.site}"
            )
        if rule.kind == "hang":
            time.sleep(rule.delay_s)
        elif rule.kind == "crash":
            os._exit(rule.exit_code)
        elif rule.kind == "stop":
            os.kill(os.getpid(), signal.SIGSTOP)
        # "torn" at a control-flow site has no bytes to tear: no-op.

    def check(self, site: str) -> None:
        """One hit at a control-flow site (may raise / sleep / kill)."""
        rule = self._decide(site)
        if rule is not None:
            self._act(rule)

    def corrupt(self, site: str, data: bytes) -> bytes:
        """One hit at a byte-stream site; may return truncated bytes."""
        rule = self._decide(site)
        if rule is None:
            return data
        if rule.kind == "torn":
            return data[: max(int(len(data) * rule.keep_fraction), 1)]
        self._act(rule)
        return data

    def __repr__(self):
        return f"FaultPlan(seed={self.seed}, sites={self.sites()})"


# -- module-level installation (the production fast path) ----------------------

_PLAN: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` process-wide (and in later-forked children)."""
    global _PLAN
    _PLAN = plan
    return plan


def clear() -> None:
    """Deactivate fault injection (the default, zero-overhead state)."""
    global _PLAN
    _PLAN = None


def active() -> FaultPlan | None:
    return _PLAN


@contextmanager
def injected(plan: FaultPlan):
    """Scoped installation for tests; restores the previous plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def fault_point(site: str) -> None:
    """Declare a control-flow injection site.

    With no plan installed this is one global read — the hot-path cost
    of being injectable.  With a plan, the site's rule may raise, sleep,
    or kill the process.
    """
    plan = _PLAN
    if plan is not None:
        plan.check(site)


def mangle(site: str, data: bytes) -> bytes:
    """Declare a byte-stream injection site; returns (possibly torn) data."""
    plan = _PLAN
    if plan is None:
        return data
    return plan.corrupt(site, data)


def install_from_env(environ=None) -> FaultPlan | None:
    """Install the plan serialized in :data:`ENV_VAR`, if any.

    Called by the CLIs and the queue worker entry point so chaos runs
    can reach processes that were not forked from an installed plan.
    """
    text = (os.environ if environ is None else environ).get(ENV_VAR)
    if not text:
        return None
    return install(FaultPlan.from_json(text))


def plan_from_arg(text: str) -> FaultPlan:
    """Parse a ``--fault-plan`` argument: inline JSON or ``@path/to.json``."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return FaultPlan.from_json(text)
