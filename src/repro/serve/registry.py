"""Content-addressed, versioned model store (the serving "publish" side).

Layout (everything under one registry root directory)::

    objects/<sha256>.pkl          # model blobs, named by digest of their bytes
    models/<name>/v<NNNN>.json    # version manifests: {"digest", "meta", ...}
    models/<name>/channels.json   # optional channel pointers: latest / shadow
    models/<name>/history.jsonl   # promote / rollback / shadow audit trail

Blobs are immutable and deduplicated: publishing the same fitted model
twice stores one object and two manifests.  Version numbers are dense
integers starting at 1; "latest" is simply the highest number present —
*until* a canary trial pins it.

Channels (canary / shadow republish)
------------------------------------
``publish(..., channel="shadow")`` claims the next dense version as any
publish does, but points the **shadow** channel at it instead of
advancing ``latest`` — and pins ``latest`` at the incumbent, so readers
resolving ``name`` keep getting the proven model while the candidate is
scored on live traffic.  :meth:`ModelRegistry.promote` flips ``latest``
to the shadow version (the canary won); :meth:`ModelRegistry.rollback`
clears the shadow pointer and records the loser in ``history.jsonl``
(the version and its blob stay on disk for post-mortems — they are just
never served as latest).  Names that never shadow-publish have no
``channels.json`` and behave exactly as before.

Concurrency model
-----------------
* **Cross-process**: blobs are written atomically (temp file +
  ``os.replace``); version manifests are fully written to a temp file
  and then *claimed* with an atomic ``os.link``, so two processes
  publishing the same name race cleanly — each gets its own version,
  and a manifest is never observable half-written (its content exists
  before its version number does).
* **In-process**: all public methods are safe to call from many threads;
  a single ``RLock`` guards the in-memory LRU.
* **Staleness**: the LRU cache is keyed by *digest*, never by name.
  ``load(name)`` re-resolves ``name -> digest`` from the manifest on
  every call, so a re-publish is visible immediately and a cached entry
  can never be served for the wrong version.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.core.model import rank_attribution
from repro.faults import fault_point, mangle, retry_call
from repro.utils.files import atomic_write, fsync_dir
from repro.utils.serialization import dumps_model, loads_model

__all__ = ["ModelRegistry", "ModelVersion"]

#: Filesystem-safe model names (also the server's request-side contract).
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_MANIFEST_RE = re.compile(r"^v(\d+)\.json$")

#: Youngest directory mtime the latest-pointer cache will trust (ns).
#: Covers the coarsest common mtime granularity (one kernel tick) with
#: a wide margin; see :meth:`ModelRegistry._latest_version_number`.
_MTIME_SETTLE_NS = 50_000_000


@dataclass(frozen=True)
class ModelVersion:
    """One published (name, version) pointer into the object store."""

    name: str
    version: int
    digest: str
    created: float
    meta: dict

    @property
    def ref(self) -> str:
        """Human-readable ``name@vN`` reference."""
        return f"{self.name}@v{self.version}"

    def to_record(self) -> dict:
        """JSON form (what the server returns for ``models`` requests)."""
        return {
            "name": self.name,
            "version": self.version,
            "digest": self.digest,
            "created": self.created,
            "meta": dict(self.meta),
        }


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Durably write ``data`` to ``path`` through the ``registry.write`` fault
    point.  Durable, not just atomic: a visible manifest must never reference
    a blob whose blocks never hit disk (see :mod:`repro.utils.files`).
    """
    atomic_write(path, mangle("registry.write", data), durable=True)


class ModelRegistry:
    """Store/load named, versioned models with an in-memory LRU cache.

    Parameters
    ----------
    root
        Registry directory (created on first use).
    cache_size
        Maximum number of deserialized models kept in memory.  ``0``
        disables caching (every load deserializes from disk).
    """

    def __init__(self, root, cache_size: int = 8):
        self.root = Path(root)
        self.cache_size = max(int(cache_size), 0)
        self._lock = threading.RLock()
        self._cache: OrderedDict[str, object] = OrderedDict()  # digest -> model
        self._hits = 0
        self._misses = 0
        # Latest-pointer cache: name -> (dir st_mtime_ns, latest version).
        # Every unversioned resolve used to listdir + regex the manifest
        # directory — a full directory scan per predict on the serving
        # hot path.  The mtime is always stat'ed *before* the scan it
        # tags, so a publish landing mid-scan dirties the entry and the
        # next resolve rescans (never the reverse, which could pin a
        # stale pointer).
        self._latest: dict[str, tuple[int, int]] = {}
        # Claimed manifests are immutable, so resolved pointers can be
        # memoized forever; the LRU bound only caps memory under heavy
        # republish churn.
        self._manifests: OrderedDict[tuple[str, int], ModelVersion] = OrderedDict()
        # Channel-pointer cache: name -> (channels.json st_mtime_ns, state).
        # Same discipline as the latest-pointer cache (stat every call,
        # rescan on mtime movement, memoize only settled stamps) — plus
        # *explicit* invalidation on every local promote/rollback/shadow
        # write: a flip must be visible on the very next resolve, not
        # after an mtime tick (coarse-granularity filesystems can reuse
        # a stamp for writes landing within the same tick).
        self._channels: dict[str, tuple[int, dict]] = {}
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        (self.root / "models").mkdir(parents=True, exist_ok=True)

    # -- paths -----------------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.root / "objects" / f"{digest}.pkl"

    def _model_dir(self, name: str) -> Path:
        return self.root / "models" / name

    @staticmethod
    def _check_name(name: str) -> str:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(
                f"bad model name {name!r}: need [A-Za-z0-9._-]+, starting "
                "with an alphanumeric"
            )
        return name

    # -- publishing ------------------------------------------------------------

    def publish(
        self, name: str, model, meta: dict | None = None, channel: str | None = None
    ) -> ModelVersion:
        """Store ``model`` as the next version of ``name``; return the pointer.

        The blob write is idempotent (same bytes -> same object file).  The
        manifest is serialized *before* any filesystem change (a
        non-JSON-serializable ``meta`` fails cleanly) and its version
        number is claimed with an atomic ``os.link`` of the fully-written
        temp file, so concurrent publishers of the same name each get a
        distinct version and no reader can ever observe a partial or
        corrupt manifest as "latest".

        ``channel="shadow"`` publishes the version *without* making it
        latest: the latest pointer is pinned at the incumbent (which must
        exist — a canary needs something to beat) and the shadow pointer
        is set to the new version, to be resolved via ``name@shadow``
        until :meth:`promote` or :meth:`rollback` ends the trial.
        """
        self._check_name(name)
        if channel not in (None, "latest", "shadow"):
            raise ValueError(
                f"unknown publish channel {channel!r}: want 'latest' or 'shadow'"
            )
        incumbent = self._effective_latest(name) if channel == "shadow" else 0
        if channel == "shadow" and incumbent == 0:
            raise ValueError(
                f"cannot shadow-publish {name!r}: no incumbent version to pin "
                "as latest (publish normally first)"
            )
        data = dumps_model(model)
        digest = hashlib.sha256(data).hexdigest()
        obj_path = self._object_path(digest)
        if not obj_path.exists():
            # Blob writes are idempotent, so a transient I/O failure is
            # safely retryable; a persistent one propagates to the
            # publisher before any manifest could reference the blob.
            retry_call(
                lambda: _atomic_write_bytes(obj_path, data),
                attempts=3,
                base_delay_s=0.02,
                deadline_s=2.0,
            )

        mdir = self._model_dir(name)
        mdir.mkdir(parents=True, exist_ok=True)
        meta = dict(meta or {})
        # Attribution: record which kernel backend fitted the published
        # factors (models expose ``fit_backend_``; see
        # repro.core.completion.backends).  One hook here covers every
        # publisher — harness tune jobs, stream republishes, tests.
        backend = getattr(model, "fit_backend_", None)
        if backend is not None:
            meta.setdefault("kernel_backend", backend)
        # Rank attribution: the requested rank plus, for adaptive fits,
        # the rank the grow/prune loop actually landed on — audits and
        # size accounting must compare models at the served rank, not
        # the request (``rank="auto"`` says nothing about the artifact).
        for key, value in rank_attribution(model).items():
            meta.setdefault(key, value)
        while True:
            version = self._latest_version_number(name) + 1
            record = {
                "name": name,
                "version": version,
                "digest": digest,
                "created": time.time(),
                "meta": meta,
            }
            text = json.dumps(record, indent=1)  # may raise: before any claim
            payload = mangle("registry.manifest", text.encode("utf-8"))
            path = mdir / f"v{version:04d}.json"
            fd, tmp = tempfile.mkstemp(dir=mdir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())  # content durable before the claim
                os.link(tmp, path)  # atomic claim of this version number
                fsync_dir(mdir)  # the claim itself durable before we return
            except FileExistsError:
                # Another publisher claimed it — possibly within the same
                # mtime tick, so drop the cached pointer before rescanning
                # (a stale hit here would spin on the same version).
                self._invalidate_latest(name)
                continue
            finally:
                os.unlink(tmp)
            # The claim moved the directory mtime; drop the pointer rather
            # than guessing (a concurrent publisher may already have
            # claimed a higher version under the post-claim mtime).
            self._invalidate_latest(name)
            if channel == "shadow":
                state = self._read_channels_fresh(name)
                if state.get("latest") is None:
                    state["latest"] = incumbent
                state["shadow"] = version
                self._write_channels(
                    name, state, event="shadow", version=version
                )
            elif (self._model_dir(name) / "channels.json").exists():
                # Once a name has channel pointers, a plain publish must
                # advance the pinned latest too — otherwise new versions
                # would be invisible behind a stale pin.
                state = self._read_channels_fresh(name)
                state["latest"] = version
                self._write_channels(name, state, event="publish", version=version)
            return ModelVersion(
                name, version, digest, record["created"], record["meta"]
            )

    # -- channels (canary / shadow) --------------------------------------------

    def _channels_path(self, name: str) -> Path:
        return self._model_dir(name) / "channels.json"

    def _read_channels_fresh(self, name: str) -> dict:
        """The channel state straight from disk (mutation paths only —
        a stale cached read here could resurrect a cleared pointer)."""
        try:
            state = json.loads(self._channels_path(name).read_text())
        except (OSError, ValueError):
            return {}
        return state if isinstance(state, dict) else {}

    def _channel_state(self, name: str) -> dict:
        """The (possibly cached) channel-pointer state; ``{}`` when the
        name has never shadow-published (the implicit-latest fast path:
        one extra ``stat`` miss per resolve, nothing else)."""
        path = self._channels_path(name)
        try:
            stamp = path.stat().st_mtime_ns
        except (FileNotFoundError, NotADirectoryError):
            with self._lock:
                self._channels.pop(name, None)
            return {}
        with self._lock:
            cached = self._channels.get(name)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        state = self._read_channels_fresh(name)
        # Same settle-window rule as the latest-pointer cache: never
        # memoize a stamp young enough that a same-tick rewrite could
        # reuse it (see _latest_version_number).
        if time.time_ns() - stamp > _MTIME_SETTLE_NS:
            with self._lock:
                self._channels[name] = (stamp, state)
        return state

    def _invalidate_channels(self, name: str) -> None:
        with self._lock:
            self._channels.pop(name, None)

    def _write_channels(self, name: str, state: dict, event: str, **extra) -> None:
        """Atomically rewrite the channel pointers + append the audit line.

        Ends with *explicit* cache invalidation — the flip must be
        visible to this process's next resolve immediately, not after
        the filesystem's mtime granularity catches up (the stale-pin
        window a promote landing within one mtime tick used to have).
        """
        payload = json.dumps(
            {k: state.get(k) for k in ("latest", "shadow")}, indent=1
        )
        _atomic_write_bytes(self._channels_path(name), payload.encode("utf-8"))
        entry = {"event": event, "time": time.time(), **extra}
        try:
            with (self._model_dir(name) / "history.jsonl").open("a") as fh:
                fh.write(json.dumps(entry) + "\n")
        except OSError:  # pragma: no cover - audit trail is best-effort
            pass
        self._invalidate_channels(name)
        self._invalidate_latest(name)

    def promote(self, name: str, version: int | None = None) -> ModelVersion:
        """Flip ``name@latest`` to the shadow version (the canary won).

        ``version`` overrides the shadow pointer (promoting an arbitrary
        historical version is also how an operator pins a known-good
        build).  The manifest must be readable — a promote can never
        point latest at a version that cannot be served.  Clears the
        shadow pointer when it was the promoted version, appends a
        ``promote`` audit entry, and explicitly invalidates the pointer
        caches so the flip is visible to the very next resolve.
        """
        self._check_name(name)
        state = self._read_channels_fresh(name)
        if version is None:
            version = state.get("shadow")
        if version is None:
            raise KeyError(f"no shadow version of {name!r} to promote")
        mv = self._read_manifest(name, int(version))
        state["latest"] = mv.version
        if state.get("shadow") == mv.version:
            state["shadow"] = None
        self._write_channels(name, state, event="promote", version=mv.version)
        return mv

    def rollback(self, name: str, reason: str = "") -> int:
        """Clear the shadow pointer (the canary lost); return the loser.

        The losing version and its blob remain on disk for post-mortems
        — recorded in ``history.jsonl`` with ``reason`` — but nothing
        resolves to them short of an explicit ``name@vN`` request.
        """
        self._check_name(name)
        state = self._read_channels_fresh(name)
        loser = state.get("shadow")
        if loser is None:
            raise KeyError(f"no shadow version of {name!r} to roll back")
        state["shadow"] = None
        self._write_channels(
            name, state, event="rollback", version=int(loser), reason=reason
        )
        return int(loser)

    def channels(self, name: str) -> dict:
        """The current channel pointers: ``{"latest": N|None, "shadow": N|None}``.

        ``latest: None`` means the implicit rule (highest version) is in
        effect — the name never entered a canary trial.
        """
        self._check_name(name)
        state = self._channel_state(name)
        return {"latest": state.get("latest"), "shadow": state.get("shadow")}

    def history(self, name: str) -> list[dict]:
        """Audit entries (shadow publishes, promotes, rollbacks), oldest first."""
        self._check_name(name)
        try:
            text = (self._model_dir(name) / "history.jsonl").read_text()
        except OSError:
            return []
        out = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn final line: same tolerance as the journal
        return out

    # -- resolution ------------------------------------------------------------

    def _effective_latest(self, name: str) -> int:
        """What ``name`` (unversioned) resolves to: the pinned latest
        pointer when a canary trial created one, else the highest
        published version."""
        state = self._channel_state(name)
        pinned = state.get("latest")
        if pinned is not None:
            return int(pinned)
        return self._latest_version_number(name)

    def _version_numbers(self, name: str) -> list[int]:
        mdir = self._model_dir(name)
        try:
            entries = os.listdir(mdir)
        except (FileNotFoundError, NotADirectoryError):
            return []
        out = []
        for entry in entries:
            m = _MANIFEST_RE.match(entry)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def _latest_version_number(self, name: str) -> int:
        """Highest published version of ``name`` (0 when none).

        Served from the mtime-keyed latest-pointer cache: the manifest
        directory is stat'ed on every call (cheap), but only rescanned
        when its mtime moved — publishing creates a directory entry, so
        any cross-process publish dirties the mtime and invalidates the
        pointer.  Local publishes refresh the entry directly.
        """
        mdir = self._model_dir(name)
        try:
            stamp = mdir.stat().st_mtime_ns
        except (FileNotFoundError, NotADirectoryError):
            with self._lock:
                self._latest.pop(name, None)
            return 0
        with self._lock:
            cached = self._latest.get(name)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        # Stat-then-scan order matters: if a publish lands after the
        # stat, the scan may or may not see it, but the stored stamp is
        # pre-publish either way, so the next call invalidates.
        numbers = self._version_numbers(name)
        version = numbers[-1] if numbers else 0
        # Only memoize stamps safely in the past.  Filesystem mtime
        # granularity can be coarser than two back-to-back publishes: a
        # *later* publish could reuse a stamp taken within the current
        # granularity quantum, silently pinning this pointer.  A stamp
        # older than the settle window can never be reused, and
        # rescanning for a few extra milliseconds after each publish is
        # noise.
        if time.time_ns() - stamp > _MTIME_SETTLE_NS:
            with self._lock:
                self._latest[name] = (stamp, version)
        return version

    def _invalidate_latest(self, name: str) -> None:
        with self._lock:
            self._latest.pop(name, None)

    def _read_manifest(self, name: str, version: int) -> ModelVersion:
        """Load (or cache-hit) one claimed manifest; ``KeyError`` when
        missing, torn, or otherwise unreadable."""
        key = (name, version)
        with self._lock:
            mv = self._manifests.get(key)
            if mv is not None:
                self._manifests.move_to_end(key)
                return mv
        path = self._model_dir(name) / f"v{version:04d}.json"
        try:
            record = json.loads(path.read_text())
            mv = ModelVersion(
                record["name"],
                int(record["version"]),
                record["digest"],
                float(record.get("created", 0.0)),
                dict(record.get("meta", {})),
            )
        except (OSError, ValueError, TypeError, KeyError) as exc:
            # json.JSONDecodeError is a ValueError: a torn manifest and a
            # missing one both surface as the same miss to callers.
            raise KeyError(f"no version {version} of model {name!r}") from exc
        with self._lock:
            self._manifests[key] = mv
            self._manifests.move_to_end(key)
            while len(self._manifests) > 64:
                self._manifests.popitem(last=False)
        return mv

    def resolve(
        self, name: str, version: int | None = None, channel: str | None = None
    ) -> ModelVersion:
        """The :class:`ModelVersion` for ``name`` (latest when unversioned).

        Resolution is the freshness point of the registry: the latest
        pointer is re-checked against the manifest directory's mtime on
        every call, so a republish (from any process) is visible on the
        next resolve.  Only immutable state is memoized — claimed
        manifests and content-addressed blobs — and channel flips
        (promote/rollback) additionally invalidate explicitly, so a
        canary decision is visible to the next resolve in-process even
        inside one filesystem mtime tick.

        ``channel="shadow"`` resolves the in-trial candidate (the
        server-side ``name@shadow`` reference); a ``KeyError`` when no
        trial is running.  An explicit ``version`` overrides channels.

        A torn or partial manifest under ``name@latest`` (a publisher
        crashed mid-claim on a filesystem that let the link outlive its
        content) is *skipped*: resolution falls back to the newest
        readable predecessor, so readers keep serving the incumbent
        instead of failing on a version nobody finished publishing.  An
        explicitly requested version still raises — the caller named a
        version, and silently answering with a different one would be a
        correctness bug, not resilience.
        """
        self._check_name(name)
        if version is not None:
            return self._read_manifest(name, int(version))
        if channel not in (None, "latest", "shadow"):
            raise ValueError(
                f"unknown channel {channel!r}: want 'latest' or 'shadow'"
            )
        if channel == "shadow":
            shadow = self._channel_state(name).get("shadow")
            if shadow is None:
                raise KeyError(f"no shadow version of model {name!r}")
            return self._read_manifest(name, int(shadow))
        latest = self._effective_latest(name)
        if latest == 0:
            raise KeyError(f"no model published under {name!r}")
        try:
            return self._read_manifest(name, latest)
        except KeyError:
            pass
        for fallback in reversed(self._version_numbers(name)):
            if fallback == latest:
                continue
            try:
                return self._read_manifest(name, fallback)
            except KeyError:
                continue
        raise KeyError(f"no readable version of model {name!r}")

    def names(self) -> list[str]:
        """Sorted names with at least one published version.

        Tolerates a missing (or concurrently deleted) ``models/``
        subdirectory: an empty registry answers ``[]``, it does not make
        a ``models`` protocol request crash the server.
        """
        mroot = self.root / "models"
        try:
            entries = os.listdir(mroot)
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(
            d for d in entries
            if (mroot / d).is_dir() and self._version_numbers(d)
        )

    def versions(self, name: str) -> list[int]:
        """Sorted version numbers published under ``name``."""
        self._check_name(name)
        return self._version_numbers(name)

    def __contains__(self, name) -> bool:
        try:
            return bool(self._version_numbers(self._check_name(name)))
        except ValueError:
            return False

    # -- loading ---------------------------------------------------------------

    def load(self, name: str, version: int | None = None):
        """Deserialize (or cache-hit) the model for ``name``/``version``."""
        return self.load_resolved(self.resolve(name, version))[0]

    def load_resolved(self, mv: ModelVersion):
        """Load by an already-resolved pointer; returns ``(model, mv)``.

        The serving engine cache goes through here so one resolution
        serves both the model bytes and the version identity.
        """
        with self._lock:
            if mv.digest in self._cache:
                self._cache.move_to_end(mv.digest)
                self._hits += 1
                return self._cache[mv.digest], mv
            self._misses += 1
        # Deserialize outside the lock: concurrent loads of *different*
        # digests shouldn't serialize on one pickle pass.
        path = self._object_path(mv.digest)

        def _read() -> bytes:
            fault_point("registry.read")
            return path.read_bytes()

        try:
            # Blob reads are retried briefly: on the serving path a
            # transient I/O error (NFS hiccup, EINTR-ish failure) should
            # cost milliseconds, not a 404 at the protocol boundary.
            model = loads_model(
                retry_call(_read, attempts=3, base_delay_s=0.01, deadline_s=1.0)
            )
        except OSError as exc:
            raise KeyError(
                f"registry object {mv.digest[:12]}... for {mv.ref} is missing"
            ) from exc
        with self._lock:
            if self.cache_size > 0:
                self._cache[mv.digest] = model
                self._cache.move_to_end(mv.digest)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return model, mv

    # -- introspection ---------------------------------------------------------

    def cache_info(self) -> dict:
        """Hit/miss counters and current occupancy of the LRU cache."""
        with self._lock:
            return {
                "size": len(self._cache),
                "capacity": self.cache_size,
                "hits": self._hits,
                "misses": self._misses,
            }

    def __repr__(self):
        return f"ModelRegistry({str(self.root)!r}, cache_size={self.cache_size})"
