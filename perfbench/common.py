"""Shared helpers: paths, child processes, /proc readings, statistics and run
metadata. Stdlib only."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# repeated process starts per run; setup_s is their median
SETUP_REPEATS = 7


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, dead child, ...)."""


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "gesturepoint", "__init__.py")):
        raise BenchError(f"no gesturepoint sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("GESTURE_POINTER_CONFIG", None)
    return env


def cli_argv(*args: str, trace_path: str | None = None) -> list[str]:
    """argv running the gesturepoint CLI, under the tracing launcher when
    ``trace_path`` is given."""
    if trace_path is None:
        return [sys.executable, "-m", "gesturepoint.cli", *args]
    return [sys.executable, os.path.join(BENCH_DIR, "traced_main.py"), trace_path, *args]


def out_path(*parts: str) -> str:
    path = os.path.join(OUT, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def run_child(argv: list[str]) -> tuple[float, int, float, float]:
    """Run a child to completion. Returns (wall_s, exit_code, cpu_s, maxrss_mb)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """CPU time of a live process's current threads, in nanosecond steps
    (/proc/<pid>/task/*/schedstat; /proc/<pid>/stat counts 10 ms ticks)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", "r") as fh:
                total += int(fh.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread ended meanwhile
    return total / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# --- statistics ----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1 - q / 100.0) >= 10:
            return q
    return 50.0


def latency_summary(windows: list[list[float]], weight: int = 1) -> dict:
    """p50 over every sample; p99 is the median over the windows of each
    window's 99th percentile, so one burst of host noise moves it little.
    With ``weight``, each value stands for that many ops that share one
    measured request (and so one latency)."""
    every = [v for w in windows for v in w]
    return {
        "n": len(every) * weight,
        "windows": len(windows),
        "p50": statistics.median(every),
        "p99": statistics.median(percentile(w, 99.0) for w in windows),
        "window_pct": supported_percentile(min(len(w) for w in windows) * weight),
    }


# --- metadata --------------------------------------------------------------


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_metadata(seed: int, workload: str, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
