"""Multi-process sharded serving fleet (``python -m repro.serve --workers N``).

One parent dispatcher, N worker processes, one port.  The single-process
JSON server tops out when transport parsing and the GIL saturate one
core while the batched engine itself has headroom
(``results/BENCH_serve.json``); the fleet removes that ceiling by
sharding *connections* across processes while sharing *models* through
one memory copy:

Socket sharing
    Every worker accepts on the same ``(host, port)``.  Where the
    platform has ``SO_REUSEPORT`` (Linux, BSD, macOS) each worker binds
    its own listening socket and the kernel load-balances incoming
    connections across them; elsewhere the parent binds + listens once
    and the forked workers inherit the FD and accept from the shared
    queue.  The parent holds a bound (never listening) reuseport socket
    so the port stays reserved across worker respawns.

Shared-memory model store
    The parent packs each published blob into a
    ``multiprocessing.shared_memory`` segment named by its registry
    digest (serialization is a byte-level fixed point, so the digest
    *is* the cross-process cache key — see ``shm_store``).  Workers
    attach zero-copy; a worker that races ahead of the packer falls
    back to a disk load rather than blocking the request.

Hot-swap propagation
    Publishes through the parent's registry object fire its publish
    hooks and pack immediately; publishes from *other* processes are
    picked up by a manifest-watch thread (the registry's latest-pointer
    cache makes the per-name check one ``stat``).  Workers re-resolve
    ``name@latest`` per request, so every worker serves a republished
    model on its next batch — no restarts, no dropped in-flight work.

Admission control
    Each worker bounds its in-flight predicts and its microbatcher's
    pending queue; past the bound it sheds with
    ``{"ok": false, "error": "overloaded"}`` (HTTP 503) instead of
    queueing without bound.

The parent also supervises (see DESIGN.md, "Failure model & recovery"):
a monitor thread respawns crashed workers (with backoff, behind a
crash-loop breaker), a heartbeat watchdog kills and replaces *hung*
workers (SIGSTOP'd, deadlocked, paged out — anything that stops the
heartbeat thread), and ``stop()`` escalates terminate → kill on workers
that ignore SIGTERM before unlinking every shm segment exactly once
(the "unlink discipline" — see DESIGN.md, "Fleet serving").
"""
from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from http.server import ThreadingHTTPServer

from repro import faults
from repro.serve import shm_store
from repro.serve.registry import ModelRegistry
from repro.serve.server import ModelServer, _http_handler

__all__ = [
    "ServeFleet",
    "FleetWorkerServer",
    "make_worker_server",
    "exit_on_sigterm",
    "reuseport_available",
]


def exit_on_sigterm() -> None:
    """Convert SIGTERM into :class:`SystemExit` so ``finally`` blocks run.

    The default SIGTERM action kills the process without unwinding the
    stack, so a fleet parent's ``finally: fleet.stop()`` never runs: the
    workers are orphaned and the creator-owned shared-memory segments
    leak (creator-only unlink means nobody else will reclaim them).
    Raising instead lets ``stop()``'s terminate -> join -> kill -> reap
    escalation and the shm store teardown do their job.  Main-thread
    only; a no-op anywhere signals cannot be installed.
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def _raise(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _raise)


def reuseport_available() -> bool:
    """Whether this platform can share one port across listening sockets."""
    return hasattr(socket, "SO_REUSEPORT")


def _new_socket(host: str, port: int, reuseport: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


class _SocketHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server over an already-bound socket.

    Used for both sharing modes: a worker's own ``SO_REUSEPORT`` socket,
    or the listening socket inherited from the parent across ``fork``.
    """

    def __init__(self, sock: socket.socket, handler, listen: bool):
        super().__init__(sock.getsockname()[:2], handler, bind_and_activate=False)
        self.socket.close()  # replace the placeholder TCPServer created
        self.socket = sock
        if listen:
            sock.listen(self.request_queue_size)


class FleetWorkerServer(ModelServer):
    """A worker's :class:`ModelServer`, answering with its identity.

    ``ping`` and ``stats`` responses carry the worker ``pid`` so tests,
    the smoke job, and operators can see which process answered (and
    that respawn actually replaced a crashed one).
    """

    def handle(self, request: dict) -> dict:
        # Chaos site: a rule here crashes/stops/hangs this worker at its
        # next request — how test_chaos provokes the parent's watchdog
        # and respawn paths from inside a real serving process.
        faults.fault_point("fleet.worker.serve")
        response = super().handle(request)
        if isinstance(request, dict) and request.get("op") in ("ping", "stats"):
            response["pid"] = os.getpid()
        return response


def _make_shm_loader(attach_wait_s: float):
    """A ``model_loader`` that attaches blobs from shared memory.

    Retries briefly (the parent packs new publishes asynchronously),
    then falls back to a plain disk load so a request is never failed —
    or blocked for long — by the packer.  The shm lease is pinned to
    the model object so the mapping lives exactly as long as the model.
    """
    fallback_leases: dict = {}  # digest -> lease, for models without __dict__

    def load(registry: ModelRegistry, mv):
        deadline = time.monotonic() + max(attach_wait_s, 0.0)
        while True:
            try:
                model, lease = shm_store.attach_model(mv.digest)
            except (OSError, ValueError):
                # OSError covers FileNotFoundError (packer not done yet)
                # and any injected/real shm failure; either way the disk
                # fallback below keeps the request answerable.
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
                continue
            try:
                model._shm_lease_ = lease
            except AttributeError:
                fallback_leases[mv.digest] = lease
            model._served_from_ = "shm"
            return model
        model, _ = registry.load_resolved(mv)
        return model

    return load


def make_worker_server(cfg: dict) -> FleetWorkerServer:
    """Build one worker's server from the fleet's worker config.

    Module-level (and parent-callable) so the worker serving stack is
    testable in-process without forking.  The worker's registry is
    opened with ``cache_size=0``: the shm store is the model cache, and
    a worker-local deserialized LRU would silently re-grow the per-
    process copies the fleet exists to eliminate.
    """
    registry = ModelRegistry(cfg["registry_dir"], cache_size=0)
    loader = _make_shm_loader(cfg["attach_wait_s"]) if cfg["shm"] else None
    return FleetWorkerServer(
        registry,
        default_model=cfg["default_model"],
        max_batch=cfg["max_batch"],
        microbatch=True,
        max_inflight=cfg["max_inflight"],
        model_loader=loader,
        request_timeout_ms=cfg.get("request_timeout_ms"),
    )


def _heartbeat_loop(hb_dir: str, interval_s: float, stop: threading.Event) -> None:
    """Touch this worker's heartbeat file until told to stop.

    The file's mtime is the liveness signal the parent's watchdog reads:
    anything that freezes the whole process (SIGSTOP, a paged-out or
    deadlocked interpreter) freezes this thread too, the mtime goes
    stale, and the watchdog kills + replaces the worker.  A busy-but-
    healthy worker keeps beating — handler threads don't block this one.
    """
    path = os.path.join(hb_dir, f"hb-{os.getpid()}")
    while True:
        try:
            with open(path, "w") as fh:
                fh.write(str(time.time()))
        except OSError:  # hb dir tearing down mid-stop; nothing to signal
            pass
        if stop.wait(interval_s):
            return


def _worker_main(cfg: dict, inherited: socket.socket | None) -> None:  # pragma: no cover - runs in forked children
    """Entry point of one forked worker process."""
    # Forked workers inherit the parent's installed plan; install_from_env
    # covers chaos runs driving a fleet they didn't fork (CLI --workers).
    faults.install_from_env()
    faults.fault_point("fleet.worker.boot")
    server = make_worker_server(cfg)
    hb_stop = threading.Event()
    if cfg.get("hb_dir"):
        threading.Thread(
            target=_heartbeat_loop,
            args=(cfg["hb_dir"], cfg["hb_interval_s"], hb_stop),
            name="repro-fleet-heartbeat",
            daemon=True,
        ).start()
    if inherited is None:
        sock = _new_socket(cfg["host"], cfg["port"], reuseport=True)
        httpd = _SocketHTTPServer(sock, _http_handler(server), listen=True)
    else:
        httpd = _SocketHTTPServer(inherited, _http_handler(server), listen=False)
    try:
        httpd.serve_forever(poll_interval=0.5)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        hb_stop.set()
        httpd.server_close()
        server.close()


class ServeFleet:
    """Parent dispatcher: socket, shm store, workers, watch + respawn.

    Parameters mirror the single-process server's; the fleet-specific
    knobs are ``workers``, ``socket_mode`` (``"auto"``/``"reuseport"``/
    ``"inherit"``), ``max_inflight`` (per-worker admission bound) and
    ``poll_interval_s`` (manifest watch + worker monitor cadence).

    Supervision knobs:

    ``hang_timeout_s``
        A worker whose heartbeat file goes this stale is presumed hung
        (SIGSTOP'd, deadlocked, swapped to oblivion), SIGKILLed, and
        respawned.  ``0`` disables the watchdog.
    ``respawn_backoff_s`` / ``crash_loop_threshold`` / ``crash_loop_window_s``
        The first crash in a quiet period respawns immediately; repeat
        crashes within the window back off exponentially from
        ``respawn_backoff_s``; at ``crash_loop_threshold`` crashes
        within the window the breaker opens and respawning stops — a
        worker dying deterministically at boot would otherwise fork-loop
        forever.  Surviving workers keep serving either way.
    """

    def __init__(
        self,
        registry_dir,
        workers: int = 2,
        port: int = 0,
        host: str = "127.0.0.1",
        default_model: str | None = None,
        max_batch: int = 256,
        max_inflight: int = 128,
        socket_mode: str = "auto",
        shm: bool | None = None,
        shm_max_segments: int = 8,
        poll_interval_s: float = 0.2,
        respawn: bool = True,
        request_timeout_ms: float | None = 30000.0,
        hang_timeout_s: float = 10.0,
        respawn_backoff_s: float = 0.5,
        crash_loop_threshold: int = 5,
        crash_loop_window_s: float = 30.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if socket_mode not in ("auto", "reuseport", "inherit"):
            raise ValueError(f"unknown socket_mode {socket_mode!r}")
        if socket_mode == "auto":
            socket_mode = "reuseport" if reuseport_available() else "inherit"
        if socket_mode == "reuseport" and not reuseport_available():
            raise ValueError("SO_REUSEPORT is unavailable on this platform")
        self.registry_dir = str(registry_dir)
        self.workers = int(workers)
        self.host = host
        self.socket_mode = socket_mode
        self.shm = shm_store.shared_memory_available() if shm is None else bool(shm)
        self.poll_interval_s = float(poll_interval_s)
        self.respawn = bool(respawn)
        self.hang_timeout_s = max(float(hang_timeout_s), 0.0)
        self.respawn_backoff_s = max(float(respawn_backoff_s), 0.0)
        self.crash_loop_threshold = max(int(crash_loop_threshold), 1)
        self.crash_loop_window_s = max(float(crash_loop_window_s), 0.0)
        self._requested_port = int(port)
        self._cfg = {
            "registry_dir": self.registry_dir,
            "host": host,
            "port": None,  # known after bind
            "default_model": default_model,
            "max_batch": int(max_batch),
            "max_inflight": int(max_inflight),
            "request_timeout_ms": request_timeout_ms,
            "shm": self.shm,
            # Workers briefly wait out the packer before a disk fallback.
            "attach_wait_s": 2.0 * float(poll_interval_s),
            "hb_dir": None,  # known after start()
            # Beat well inside the watchdog threshold so one missed
            # write (scheduler hiccup) can't read as a hang.
            "hb_interval_s": (
                max(min(self.hang_timeout_s / 4.0, 1.0), 0.05)
                if self.hang_timeout_s
                else 1.0
            ),
        }
        # The parent only deserializes models transiently (to pack them);
        # cache_size=0 keeps it from retaining private copies.
        self.registry = ModelRegistry(self.registry_dir, cache_size=0)
        self.store = shm_store.ShmModelStore(max_segments=shm_max_segments)
        self._ctx = multiprocessing.get_context("fork")
        self._sock: socket.socket | None = None
        self._procs: list = []
        self._threads: list = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._seen: dict = {}  # name -> digest last packed
        self._tracked: list = []  # external registries with our pack hook
        self._respawns = 0
        self._hang_kills = 0
        self._breaker_open = False
        self._hb_dir: str | None = None
        self._spawn_walls: dict = {}  # pid -> wall time of fork (hb grace)
        self._crash_times: list = []  # recent crash wall marks (breaker window)
        self._due_respawns: list = []  # monotonic due marks (backoff queue)
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._sock is None:
            raise RuntimeError("fleet is not started")
        return self._sock.getsockname()[1]

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    def start(self) -> "ServeFleet":
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        reuseport = self.socket_mode == "reuseport"
        self._sock = _new_socket(self.host, self._requested_port, reuseport)
        if not reuseport:
            self._sock.listen(128)
        self._cfg["port"] = self.port
        self._hb_dir = tempfile.mkdtemp(prefix="repro-fleet-hb-")
        self._cfg["hb_dir"] = self._hb_dir
        if self.shm:
            # Start the stdlib resource tracker BEFORE forking: workers
            # then inherit the parent's tracker, where one segment's
            # register (create) and unregister (unlink) balance out.  A
            # worker forked with no tracker running would lazily spawn
            # its own, and that private tracker's exit-time "cleanup"
            # unlinks segments the rest of the fleet is still serving
            # from (every attach registers in 3.11, nothing in a pure
            # attacher ever unregisters).
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            self._pack_published()  # workers find warm segments on day one
            self.registry.add_publish_hook(self._on_publish)
        for _ in range(self.workers):
            self._spawn()
        # Threads start only after the initial forks: forking from a
        # threaded parent risks inheriting mid-held locks.  Respawn still
        # forks from the monitor thread, but workers rebuild all state
        # from scratch and never touch parent objects.
        if self.shm:
            self._threads.append(
                threading.Thread(
                    target=self._watch_manifests, name="repro-fleet-watch",
                    daemon=True,
                )
            )
        self._threads.append(
            threading.Thread(
                target=self._monitor_workers, name="repro-fleet-monitor",
                daemon=True,
            )
        )
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Workers down, port released, every shm segment unlinked once.

        Worker teardown escalates: polite SIGTERM first, then SIGKILL
        for anything still alive after the grace period.  A SIGSTOP'd
        worker never *handles* SIGTERM (it stays pending while the
        process is stopped), and a worker wedged in a C extension may
        ignore it — the old single-round terminate could therefore
        return with live children still holding shm attachments, and
        the unlink below would leak segments.  Every handle is closed
        (reaped) at the end so no zombie survives the fleet object.
        """
        if not self._started or self._stop.is_set():
            self._stop.set()
            return
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5.0)
        with self._lock:
            procs, self._procs = list(self._procs), []
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
        stragglers = [p for p in procs if p.is_alive()]
        for p in stragglers:  # pragma: no cover - needs a wedged worker
            print(
                f"[fleet] worker {p.pid} survived SIGTERM; killing",
                file=sys.stderr,
            )
            p.kill()
        for p in stragglers:  # pragma: no cover - needs a wedged worker
            p.join(timeout=5.0)
        for p in procs:
            self._cleanup_worker(p)
        if self._hb_dir is not None:
            shutil.rmtree(self._hb_dir, ignore_errors=True)
            self._hb_dir = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        with self._lock:
            tracked, self._tracked = list(self._tracked), []
        if self.shm:
            tracked.append(self.registry)
        for registry in tracked:
            try:
                registry.remove_publish_hook(self._on_publish)
            except ValueError:  # pragma: no cover - hook never installed
                pass
        self.store.close()

    def __enter__(self) -> "ServeFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- workers ---------------------------------------------------------------

    def _spawn(self) -> None:
        inherited = None if self.socket_mode == "reuseport" else self._sock
        proc = self._ctx.Process(
            target=_worker_main,
            args=(dict(self._cfg), inherited),
            name="repro-serve-worker",
            daemon=True,
        )
        proc.start()
        with self._lock:
            self._procs.append(proc)
            # Heartbeat grace anchor: until the worker's first beat, the
            # watchdog ages it from the fork, not from a missing file.
            self._spawn_walls[proc.pid] = time.time()

    def _cleanup_worker(self, p) -> None:
        """Reap one exited worker's process handle and heartbeat file."""
        if p.pid is not None:
            with self._lock:
                self._spawn_walls.pop(p.pid, None)
            if self._hb_dir is not None:
                try:
                    os.unlink(os.path.join(self._hb_dir, f"hb-{p.pid}"))
                except OSError:
                    pass
        try:
            p.close()
        except ValueError:  # pragma: no cover - still alive (stop raced us)
            pass

    def worker_pids(self) -> list:
        with self._lock:
            return [p.pid for p in self._procs if p.is_alive()]

    @property
    def respawns(self) -> int:
        return self._respawns

    @property
    def hang_kills(self) -> int:
        """Workers the heartbeat watchdog has killed (then respawned)."""
        return self._hang_kills

    @property
    def breaker_open(self) -> bool:
        """Whether the crash-loop breaker has stopped respawning."""
        return self._breaker_open

    def _monitor_workers(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self._kill_hung_workers()
            with self._lock:
                dead = [p for p in self._procs if not p.is_alive()]
                for p in dead:
                    self._procs.remove(p)
            for p in dead:
                p.join(timeout=1.0)
                pid, code = p.pid, p.exitcode
                self._cleanup_worker(p)
                if self._stop.is_set() or not self.respawn:
                    continue
                print(
                    f"[fleet] worker {pid} exited (code {code}); "
                    f"scheduling respawn",
                    file=sys.stderr,
                )
                self._schedule_respawn()
            self._spawn_due_respawns()

    def _kill_hung_workers(self) -> None:
        """SIGKILL workers whose heartbeat went stale (the hang watchdog).

        SIGKILL, not SIGTERM: it is delivered even to a SIGSTOP'd
        process, and a worker that stopped heartbeating cannot be
        trusted to run a signal handler anyway.  The kill surfaces as a
        dead worker on the next monitor pass, which respawns it through
        the ordinary (backoff + breaker) path.
        """
        if not self.hang_timeout_s or self._hb_dir is None:
            return
        now = time.time()
        with self._lock:
            procs = list(self._procs)
        for p in procs:
            if p.pid is None or not p.is_alive():
                continue
            try:
                beat = os.stat(os.path.join(self._hb_dir, f"hb-{p.pid}")).st_mtime
            except OSError:
                with self._lock:
                    beat = self._spawn_walls.get(p.pid, now)
            if now - beat > self.hang_timeout_s:
                print(
                    f"[fleet] worker {p.pid} heartbeat stale "
                    f"({now - beat:.1f}s > {self.hang_timeout_s:.1f}s); killing",
                    file=sys.stderr,
                )
                self._hang_kills += 1
                p.kill()

    def _schedule_respawn(self) -> None:
        """Queue a replacement worker, with backoff and a crash-loop breaker.

        The first crash in a quiet window respawns immediately (fast
        recovery is the common case); each further crash inside
        ``crash_loop_window_s`` doubles the delay from
        ``respawn_backoff_s``; at ``crash_loop_threshold`` crashes the
        breaker opens and the fleet stops feeding processes to a
        deterministic boot failure — surviving workers keep serving.
        """
        now = time.time()
        with self._lock:
            recent = [
                t for t in self._crash_times
                if now - t <= self.crash_loop_window_s
            ]
            prior = len(recent)
            recent.append(now)
            self._crash_times = recent
            if len(recent) >= self.crash_loop_threshold:
                if not self._breaker_open:
                    self._breaker_open = True
                    print(
                        f"[fleet] crash-loop breaker open: "
                        f"{len(recent)} worker crashes within "
                        f"{self.crash_loop_window_s:.0f}s; not respawning",
                        file=sys.stderr,
                    )
                return
            delay = (
                0.0 if prior == 0
                else min(self.respawn_backoff_s * (2.0 ** (prior - 1)), 10.0)
            )
            self._due_respawns.append(time.monotonic() + delay)

    def _spawn_due_respawns(self) -> None:
        now = time.monotonic()
        with self._lock:
            due = [t for t in self._due_respawns if t <= now]
            self._due_respawns = [t for t in self._due_respawns if t > now]
        for _ in due:
            if self._stop.is_set():
                return
            self._respawns += 1
            self._spawn()

    # -- shm packing / hot-swap propagation ------------------------------------

    def track_registry(self, registry: ModelRegistry) -> None:
        """Pack publishes made through another in-process registry object.

        The manifest watch would catch them within a poll interval
        anyway; the hook makes a local publisher's republish (e.g. a
        streaming trainer running the fleet in-process) visible to the
        workers immediately.  Untracked automatically by :meth:`stop`.
        """
        registry.add_publish_hook(self._on_publish)
        with self._lock:
            self._tracked.append(registry)

    def _on_publish(self, mv) -> None:
        """Registry publish hook: pack an in-process publish immediately."""
        try:
            self._pack_version(mv)
        except Exception as exc:  # pragma: no cover - packing is best effort
            print(f"[fleet] shm pack failed for {mv.ref}: {exc}", file=sys.stderr)

    def _pack_version(self, mv) -> None:
        with self._lock:
            if self._seen.get(mv.name) == mv.digest:
                return
        model, _ = self.registry.load_resolved(mv)
        self.store.ensure(mv.digest, model)
        with self._lock:
            self._seen[mv.name] = mv.digest

    def _pack_published(self) -> None:
        for name in self.registry.names():
            try:
                self._pack_version(self.registry.resolve(name))
            except Exception as exc:  # pragma: no cover - skip broken entries
                print(f"[fleet] shm pack failed for {name}: {exc}", file=sys.stderr)

    def _watch_manifests(self) -> None:
        """Cross-process republish pickup: poll each name's latest pointer.

        Publishes through *this* process's registry object are packed
        synchronously by the publish hook; this thread covers everyone
        else (a streaming trainer in another process, an operator's
        manual publish).  The registry's latest-pointer cache makes each
        poll a stat per name, so the cadence can be tight.
        """
        while not self._stop.wait(self.poll_interval_s):
            try:
                self._pack_published()
            except Exception:  # pragma: no cover - keep watching
                pass

    def __repr__(self):
        state = "up" if self._started and not self._stop.is_set() else "down"
        return (
            f"ServeFleet({self.registry_dir!r}, workers={self.workers}, "
            f"mode={self.socket_mode}, shm={self.shm}, {state})"
        )
