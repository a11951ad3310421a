"""replay_file: `gesturepoint replay` in a fresh child process per run of a
generated recording (both hands, camera-frame output, place snaps on a
3-area registry), repeated until the time is up. Every output file must
equal the in-process reference byte for byte.

A replay request hands the whole file over at once, and no frame's result is
usable before the child exits, so each frame's latency is its run's wall
time, and each run is one latency window.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import inputs
import reference
from common import SETUP_REPEATS, BenchError, cli_argv, latency_summary, out_path, run_child

FRAMES = 4000  # per recording at --seconds 10 or more; fewer below
MIN_RUNS = 3


def _argv(plane: str, layout: str, stream: str, out: str, trace_path: str | None = None) -> list[str]:
    return cli_argv("replay", "--plane", plane, "--stream", stream, "--out", out,
                    "--hand", "both", "--pair", "shoulder-wrist", "--frame", "camera",
                    "--snap", "place", "--registry", layout, trace_path=trace_path)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def measure(seed: int, seconds: float, traced: bool) -> dict:
    plane, _, layout = inputs.common_files()
    frames = max(200, int(FRAMES * min(1.0, seconds / 10.0)))
    lines = inputs.replay_lines(seed, frames)
    stream = inputs.write_lines(out_path("inputs", "replay.jsonl"), lines)
    want = hashlib.sha256(reference.replay_bytes(lines, plane, layout)).hexdigest()
    out = out_path("replay_out.jsonl")
    ops = len(lines) - 1  # every input line after the header

    setup, setup_cpu = [], []
    if not traced:
        empty = inputs.write_lines(out_path("inputs", "replay_empty.jsonl"), lines[:1])
        for _ in range(SETUP_REPEATS):
            wall, code, cpu, _ = run_child(_argv(plane, layout, empty, out))
            if code != 0:
                raise BenchError(f"replay of an empty recording exited {code}")
            setup.append(wall)
            setup_cpu.append(cpu)

    runs, trace_files = [], []
    failed = 0
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        trace_path = out_path("traces", f"replay_{len(runs)}.jsonl") if traced else None
        wall, code, cpu, rss = run_child(_argv(plane, layout, stream, out, trace_path))
        if code != 0 or _digest(out) != want:
            failed += ops
        runs.append((wall, cpu, rss))
        if trace_path:
            trace_files.append(trace_path)

    probe_stream = inputs.write_lines(out_path("inputs", "replay_probe.jsonl"),
                                      lines[:21] + [inputs.HUGE_FRAME] + lines[21:26])
    _, probe_code, _, _ = run_child(_argv(plane, layout, probe_stream, out_path("probe_out.jsonl")))

    walls = [w for w, _, _ in runs]
    lat = latency_summary([[w * 1000.0] for w in walls], weight=ops)
    return {
        "setup": setup,
        "setup_cpu": setup_cpu,
        "ops_per_s": statistics.median(ops / w for w in walls),
        "latency": lat,
        "cpu_us_per_op": statistics.median(c / ops * 1e6 for _, c, _ in runs),
        "cpu_ops": ops * len(runs),
        "peak_rss_mb": statistics.median(r for _, _, r in runs),
        "attempted": ops * len(runs),
        "failed": failed,
        "probes": [("replay with a 1e308 frame exits 0", probe_code == 0)],
        "detail": {
            "ops": "input line of the recording (frames and malformed lines)",
            "recording_lines": ops,
            "recording_frames": frames,
            "runs": len(runs),
            "run_wall_s": walls,
        },
        "trace_files": trace_files,
    }
