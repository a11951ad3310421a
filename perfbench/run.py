"""gesturepoint benchmark: one command, three workloads.

    python3 perfbench/run.py --workload live_loopback|replay_file|sweep_envelope \
        --seed N --seconds S --trace 0|1

Run from the repository root (the sources are taken from ./src). Human-
readable lines (every metric with its unit and sample count, probes, run
metadata) come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
of BENCHMARK.json with --trace 0 and its per-layer metrics with --trace 1.
A full report is also written to .perfbench_out/result-*.json.

The exit code is 1 when any regular op fails its output check and 2 when
the benchmark cannot run (for example without ./src). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT, ROOT, BenchError, out_path, require_sources, run_metadata, write_json  # noqa: E402

WORKLOADS = ("live_loopback", "replay_file", "sweep_envelope")


def _workload_module(name: str):
    if name == "live_loopback":
        import wl_live as mod
    elif name == "replay_file":
        import wl_replay as mod
    else:
        import wl_sweep as mod
    return mod


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def figures(m: dict) -> tuple[dict, dict]:
    """Every figure of one measurement, with its sample count. The CPU-time
    figures are the bounded end-to-end metrics; the wall-clock ones follow
    the host's CPU steal (README.md) and are reported unbounded."""
    lat = m["latency"]
    d = m["detail"]
    chunks = len(d.get("flood_chunk_rates") or d.get("run_wall_s") or [0] * d.get("envelopes", 0))
    values = {
        "setup_s": statistics.median(m["setup_cpu"]),
        "cpu_us_per_op": m["cpu_us_per_op"],
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_wall_s": statistics.median(m["setup"]),
        "ops_per_s": m["ops_per_s"],
        "latency_p50_ms": lat["p50"],
        "latency_p99_ms": lat["p99"],
    }
    counts = {
        "setup_s": f"CPU seconds to ready, median of {len(m['setup_cpu'])} set-ups",
        "cpu_us_per_op": f"{m['cpu_ops']} ops",
        "peak_rss_mb": "one child" if "server_cpu_s" in m or "calibrate_s" in m
                       else f"median of {chunks} children",
        "setup_wall_s": f"median of {len(m['setup'])} set-ups",
        "ops_per_s": f"median of {chunks} chunks",
        "latency_p50_ms": f"{lat['n']} ops",
        "latency_p99_ms": f"median over {lat['windows']} windows of {lat['n']} ops; "
                          f"highest percentile supported in every window p{lat['window_pct']:g}",
    }
    return values, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="record the sweep report digests of this commit and exit")
    args = parser.parse_args(argv)
    try:
        require_sources()
        spec = _spec()
        if args.pin_digests:
            import wl_sweep

            wl_sweep.pin()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        return _run(args, spec)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def _run(args, spec: dict) -> int:
    shutil.rmtree(os.path.join(OUT, "traces"), ignore_errors=True)
    meta = run_metadata(args.seed, args.workload, args.trace)
    mod = _workload_module(args.workload)
    measured = [mod.measure(args.seed, args.seconds if not args.trace else args.seconds / 2, False)]
    if args.trace:
        measured.append(mod.measure(args.seed, args.seconds / 2, True))
    meta["loadavg_end"] = list(os.getloadavg())
    base = measured[0]
    attempted = sum(m["attempted"] for m in measured)
    failed = sum(m["failed"] for m in measured)
    probes = base["probes"]
    probe_failed = sum(1 for _, ok in probes if not ok)

    values, counts = figures(base)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        import layers
        import tracing

        agg, counters = tracing.merge([tracing.read_aggregate(p) for p in measured[1]["trace_files"]])
        layer_values = layers.derive(
            agg, counters, base, measured[1],
            overhead_frac=measured[1]["cpu_us_per_op"] / base["cpu_us_per_op"] - 1.0)
        for name in ("setup_wall_s", "ops_per_s", "latency_p50_ms", "latency_p99_ms"):
            layer_values[name] = values[name]
        reported = {n: layer_values[n] for n in (m["name"] for m in spec["per_layer"])}
    else:
        reported = {n: values[n] for n in (m["name"] for m in spec["end_to_end"])}

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key in ("nproc", "python", "numpy", "commit", "loadavg_start", "loadavg_end"):
        print(f"# {key}: {meta[key]}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]} ({counts[name]})")
    if "calibrate_s" in base:
        print(f"calibrate_s = {base['calibrate_s']:.6g} s (median of {base['detail']['calibrate_set']})")
    all_ops = attempted + len(probes)
    print(f"failed_frac = {(failed + probe_failed) / all_ops:.6g} ratio "
          f"({failed + probe_failed} failed of {all_ops} ops: {failed} of {attempted} regular, "
          f"{probe_failed} of {len(probes)} known-defect probes)")
    for label, ok in probes:
        print(f"probe {'PASS' if ok else 'FAIL'}: {label}")
    if args.trace:
        for name, value in reported.items():
            if name not in values and name != "calibrate_s":  # printed above
                print(f"{name} = {value:.6g} {units[name]}")
    for key, value in base["detail"].items():
        if not isinstance(value, list):
            print(f"# {key}: {value}")

    correct = failed == 0
    if not correct:
        print(f"OUTPUT CHECK FAILED: {failed} of {attempted} ops differ from the reference",
              file=sys.stderr)
    write_json(out_path(f"result-{args.workload}-{args.seed}-{args.trace}.json"), {
        "meta": meta, "figures": values, "reported": reported, "probes": probes,
        "measurements": [{k: v for k, v in m.items() if k != "trace_files"} for m in measured],
    })
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
