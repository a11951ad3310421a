"""sweep_envelope: the criterion-4 protocol in a worker child process
(sweep_worker.py): a fixed set of calibrations, then back-to-back envelopes
(calibrate to 3.1 cm with a 1.9 cm aim bias, every pick and place board,
both report formats). Each envelope's report digest must equal the one
pinned in sweep_digests.json for its base seed.

An envelope is requested whole and its trials are usable only with its
reports, so each trial's latency is its envelope's wall time, and each
envelope is one latency window.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    SETUP_REPEATS,
    BenchError,
    child_env,
    latency_summary,
    out_path,
    proc_cpu_s,
)

DIGESTS = os.path.join(BENCH_DIR, "sweep_digests.json")
TRIALS = 2  # per target and board in one envelope
PINNED_SEEDS = 8
CAL_SEEDS = (2024, 2025, 2026)  # the fixed calibration set: 3 targets each
CAL_REPEATS = 3
SWEEP_SHARE = 0.6  # of --seconds


def load_pinned() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["trials"] != TRIALS:
        raise BenchError(f"{DIGESTS} was pinned for {doc['trials']} trials, not {TRIALS}")
    return {int(k): v for k, v in doc["digests"].items()}


def envelope_seeds(seed: int, pinned: dict) -> list[int]:
    """Every pinned base seed once, in an order chosen by --seed. Envelope
    cost depends on the base seed (calibration steps, stability), so every
    run covers the same seeds, in whole cycles."""
    keys = sorted(pinned)
    random.Random(seed).shuffle(keys)
    return keys


def start_worker(trace_path: str | None = None) -> tuple[subprocess.Popen, float, float]:
    """Spawn a worker; returns it with its wall and CPU seconds to ready."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "sweep_worker.py")]
    if trace_path:
        argv.append(trace_path)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    line = _readline(proc, 60)
    ready = time.perf_counter() - t0
    if '"ready"' not in line:
        stop_worker(proc)
        raise BenchError(f"sweep worker did not get ready: {line!r}")
    return proc, ready, proc_cpu_s(proc.pid)


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            return ""
    return proc.stdout.readline()


def stop_worker(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def run_job(proc: subprocess.Popen, job: dict, timeout: float = 170.0) -> dict:
    proc.stdin.write(json.dumps(job) + "\n")
    proc.stdin.flush()
    line = _readline(proc, timeout)
    if not line:
        raise BenchError("sweep worker returned no result")
    return json.loads(line)


def failed_trials(envelopes: list, pinned: dict) -> int:
    """Trials of the envelopes whose report digest differs from the pinned one."""
    return sum(n for seed, _, n, digest in envelopes if pinned[seed] != digest)


def measure(seed: int, seconds: float, traced: bool) -> dict:
    pinned = load_pinned()
    seeds = envelope_seeds(seed, pinned)
    setup, setup_cpu = [], []
    trace_path = out_path("traces", "sweep_worker.jsonl") if traced else None
    if not traced:
        for _ in range(SETUP_REPEATS - 1):
            proc, ready, cpu = start_worker()
            setup.append(ready)
            setup_cpu.append(cpu)
            stop_worker(proc)
    proc, ready, cpu = start_worker(trace_path)
    setup.append(ready)
    setup_cpu.append(cpu)
    job = {
        "cal_seeds": list(CAL_SEEDS),
        "cal_repeats": CAL_REPEATS if seconds >= 5 else 1,
        "sweep_seeds": seeds,
        "sweep_seconds": SWEEP_SHARE * seconds,
        "trials": TRIALS,
    }
    try:
        result = run_job(proc, job)
    finally:
        stop_worker(proc)

    envelopes = result["envelopes"]
    failed = failed_trials(envelopes, pinned)
    trials = sum(n for _, _, n, _ in envelopes)
    per_env = envelopes[0][2]
    if any(n != per_env for _, _, n, _ in envelopes):
        raise BenchError("envelopes differ in trial count")
    lat = latency_summary([[w * 1000.0] for _, w, _, _ in envelopes], weight=per_env)
    return {
        "setup": setup,
        "setup_cpu": setup_cpu,
        "ops_per_s": statistics.median(n / w for _, w, n, _ in envelopes),
        "latency": lat,
        "cpu_us_per_op": result["sweep_cpu_s"] / trials * 1e6,
        "cpu_ops": trials,
        "peak_rss_mb": result["peak_rss_mb"],
        "attempted": trials,
        "failed": failed,
        "probes": [],
        "calibrate_s": statistics.median(result["cal_sets_s"]),
        "detail": {
            "ops": "Monte-Carlo trial",
            "trials_per_envelope": per_env,
            "envelopes": len(envelopes),
            "calibrate_set": f"{len(job['cal_seeds'])} seeds x 3 targets, {job['cal_repeats']} sets",
            "calibrate_set_s": result["cal_sets_s"],
            "sweep_wall_s": result["sweep_wall_s"],
        },
        "trace_files": [trace_path] if trace_path else [],
    }


def pin(path: str = DIGESTS, count: int = PINNED_SEEDS) -> None:
    """Record the report digests of base seeds 0..count-1 from this commit."""
    proc, _, _ = start_worker()
    try:
        result = run_job(proc, {"cal_seeds": [], "cal_repeats": 0, "sweep_seeds": list(range(count)),
                                "sweep_seconds": 0.0, "trials": TRIALS, "min_envelopes": count}, 600.0)
    finally:
        stop_worker(proc)
    digests = {str(s): d for s, _, _, d in result["envelopes"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"trials": TRIALS, "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
