"""Run isolation, server child processes and the statistics every workload shares.

Import :func:`isolate` before NumPy: it pins BLAS thread counts, which the
BLAS libraries read only once, at load time.
"""
from __future__ import annotations

import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

__all__ = [
    "BENCH_DIR",
    "ROOT",
    "CONFIG",
    "RunDir",
    "ServerProcess",
    "die_with_parent",
    "isolate",
    "median",
    "peak_rss_mb",
    "quantiles",
    "shm_segments",
    "tail",
    "tail_percentile",
]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Latency limit, rate ladder and layer map (BENCHMARK.json's schema is fixed,
#: so the benchmark's own settings live beside its code).
CONFIG = json.loads((BENCH_DIR / "layers.json").read_text())

#: Environment variables that would let host state leak into a run.
_SCRUB = ("REPRO_KERNEL_BACKEND", "REPRO_BENCH_SCALE", "REPRO_FAULTS")
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunDir:
    """A fresh per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, label: str):
        base = ROOT / ".perfbench_run"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))

    def sub(self, name: str) -> Path:
        p = self.path / name
        p.mkdir(parents=True, exist_ok=True)
        return p

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass


def isolate(run_dir: RunDir) -> None:
    """Point every cache, temp dir and thread pool at per-run settings.

    One BLAS thread keeps the benchmark within the host's two cores next to
    the server child, and makes fitted numbers independent of the core count.
    """
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    for var in _SCRUB:
        os.environ.pop(var, None)
    tmp = run_dir.sub("tmp")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["XDG_CACHE_HOME"] = str(run_dir.sub("cache"))
    # A per-run sidecar: backend calibration is paid inside setup_s on every
    # run and never carries over from ~/.cache between runs.
    os.environ["REPRO_KERNEL_CALIBRATION"] = str(run_dir.path / "kernel_calibration.json")
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    if src not in sys.path:
        sys.path.insert(0, src)


# -- statistics ----------------------------------------------------------------

#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _percentile(values, p: float) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == xs[lo] or k == lo:
        return xs[lo]  # also keeps an infinite sample from turning into NaN
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values) -> float:
    return _percentile(values, 50.0)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten of ``n`` samples beyond it."""
    for p in _TAILS:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0


def quantiles(values) -> dict:
    """A few latency percentiles, for the human-readable run summary."""
    out = {f"p{p:g}": _percentile(values, p) for p in (50, 90, 95, 99)}
    out["max"] = max(values)
    return out


def tail(values) -> tuple:
    """``(percentile, value)`` at :func:`tail_percentile` of ``values``."""
    p = tail_percentile(len(values))
    return p, _percentile(values, p)


# -- processes -----------------------------------------------------------------


def _vm_hwm_mb(pid) -> float:
    """Peak resident set size of ``pid`` in MiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return _vm_hwm_mb("self")


def shm_segments() -> set:
    """Shared-memory segments the serving fleet names ``repro-*``."""
    return set(glob.glob("/dev/shm/repro-*"))


def die_with_parent() -> None:
    """``preexec_fn``: the kernel kills the child if the benchmark dies first."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")


class ServerProcess:
    """``python -m repro.serve --http 0`` as a child process on a temp registry.

    The server binds port 0 and reports the port it got on stderr.  With
    ``trace_out`` the benchmark's launcher (``serve_child.py``) starts it
    instead, wrapping the serve layers before calling the same ``main``.
    """

    def __init__(self, registry: Path, run_dir: RunDir, trace_out: Path | None = None,
                 startup_s: float = 60.0):
        args = ["--registry", str(registry), "--http", "0"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_child.py"),
                   "--trace-out", str(trace_out), "--", *args]
        self.log_path = Path(tempfile.mkstemp(prefix="server-", suffix=".log",
                                              dir=run_dir.path)[1])
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self._log,
                                     cwd=str(ROOT), preexec_fn=die_with_parent)
        try:
            self.host, self.port = self._await_port(startup_s)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, startup_s: float) -> tuple:
        stop = time.perf_counter() + startup_s
        while time.perf_counter() < stop:
            match = _LISTEN_RE.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"server did not start (exit {self.proc.poll()}):\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def stop(self) -> float:
        """Interrupt the server, wait for it to exit (kill it if it does not).

        Returns the server's peak resident memory in MiB (0 if it had exited).
        """
        peak = 0.0
        if self.proc.poll() is None:
            peak = _vm_hwm_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._log.close()
        return peak
