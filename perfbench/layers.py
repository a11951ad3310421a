"""Per-layer metrics from the traced run's span aggregates.

``.us`` is mean self time per call in microseconds (self = the span minus
its traced children). A metric whose layer the workload never calls reads 0.
"""

from __future__ import annotations


def _self_us(agg: dict, name: str) -> float:
    a = agg.get(name)
    return a["self_s"] / a["calls"] * 1e6 if a and a["calls"] else 0.0


def _total_us(agg: dict, name: str) -> float:
    a = agg.get(name)
    return a["total_s"] / a["calls"] * 1e6 if a and a["calls"] else 0.0


def _calls(agg: dict, name: str) -> int:
    a = agg.get(name)
    return a["calls"] if a else 0


def _outcome(agg: dict, name: str, *keys: str) -> int:
    a = agg.get(name)
    return sum(a["outcomes"].get(k, 0) for k in keys) if a else 0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(agg: dict, counters: dict, untraced: dict, traced: dict, overhead_frac: float) -> dict:
    """Per-layer metrics. ``untraced``/``traced`` are the two halves'
    measurements; loadgen figures and calibrate_s come from the untraced
    half."""
    snaps = _calls(agg, "snap.pick_snap") + _calls(agg, "snap.place_snap")
    selected = sum(_outcome(agg, n, "1", "2") for n in ("snap.pick_snap", "snap.place_snap"))
    fallback = sum(_outcome(agg, n, "2") for n in ("snap.pick_snap", "snap.place_snap"))
    gen = agg.get("stream.generate_scenario")
    gen_frames = _outcome(agg, "stream.generate_scenario", "1")
    m = {
        "stream.parse_frame.us": _self_us(agg, "stream.parse_frame"),
        "stream.parse_frame.calls": _calls(agg, "stream.parse_frame"),
        "stream.arm_ray.us": _self_us(agg, "stream.arm_ray"),
        "stream.arm_ray.ray_frac": _frac(_outcome(agg, "stream.arm_ray", "1"),
                                         _calls(agg, "stream.arm_ray")),
        "stream.generate_scenario.us_per_frame":
            _frac(gen["self_s"] * 1e6, gen_frames) if gen else 0.0,
        "stream.reader.malformed": counters.get("stream.reader.malformed", 0),
        "stream.reader.nonmonotonic": counters.get("stream.reader.nonmonotonic", 0),
        "geometry.intersect_ray_plane.us": _self_us(agg, "geometry.intersect_ray_plane"),
        "geometry.intersect_ray_plane.hit_frac": _frac(
            _outcome(agg, "geometry.intersect_ray_plane", "1"),
            _calls(agg, "geometry.intersect_ray_plane")),
        "geometry.to_workplane.us": _self_us(agg, "geometry.to_workplane"),
        "geometry.point_in_bounds.us": _self_us(agg, "geometry.point_in_bounds"),
        "geometry.deproject.us": _self_us(agg, "geometry.deproject"),
        "geometry.from_workplane.us": _self_us(agg, "geometry.from_workplane"),
        "stabilizer.push.us": _self_us(agg, "stabilizer.push"),
        "stabilizer.push.accept_frac": _frac(_outcome(agg, "stabilizer.push", "1"),
                                             _calls(agg, "stabilizer.push")),
        "pipeline.process.self_us": _self_us(agg, "pipeline.process"),
        "pipeline.process.calls": _calls(agg, "pipeline.process"),
        "pipeline.recent.us": _self_us(agg, "pipeline.recent"),
        "snap.stability_gate.us": _self_us(agg, "snap.stability_gate"),
        "snap.pick_snap.us": _self_us(agg, "snap.pick_snap"),
        "snap.place_snap.us": _self_us(agg, "snap.place_snap"),
        "snap.select_frac": _frac(selected, snaps),
        "snap.fallback_frac": _frac(fallback, selected),
        "live.handle_line.self_us": _self_us(agg, "live.handle_line"),
        "live.gesture_point_record.us": _self_us(agg, "live.gesture_point_record"),
        "live.server_io_us": 0.0,
        "live.err_replies": _outcome_sum(agg, "live.handle_line"),
        "evaluation.run_trial.self_us": _self_us(agg, "evaluation.run_trial"),
        "evaluation.mean_intersection_error.ms":
            _self_us(agg, "evaluation.mean_intersection_error") / 1000.0,
        "evaluation.calibrate_sigma.evals": _frac(_calls(agg, "evaluation.mean_intersection_error"),
                                                  _calls(agg, "evaluation.calibrate_sigma")),
        "evaluation.emit_report.ms": _self_us(agg, "evaluation.emit_report") / 1000.0,
        "cli.replay.self_s": _self_us(agg, "cli.cmd_replay") / 1e6,
        "cli.load_plane_file.ms": _total_us(agg, "cli.load_plane_file") / 1000.0,
        "loadgen.lag_p99_ms": 0.0,
        "loadgen.sent": 0,
        "loadgen.replies": 0,
        "tracing.overhead_frac": overhead_frac,
        "calibrate_s": untraced.get("calibrate_s", 0.0),
    }
    if "server_cpu_s" in traced:
        d = traced["detail"]
        lines = d["paced_lines"] + d["flood_lines"]
        handle = agg.get("live.handle_line")
        handle_cpu_us = handle["cpu_s"] / handle["calls"] * 1e6 if handle else 0.0
        m["live.server_io_us"] = traced["server_cpu_s"] / lines * 1e6 - handle_cpu_us
        u = untraced["detail"]
        m["loadgen.lag_p99_ms"] = u["loadgen_lag_ms"]["p99"]
        m["loadgen.sent"] = u["paced_lines"] + u["flood_lines"]
        m["loadgen.replies"] = u["replies"]
    return m


def _outcome_sum(agg: dict, name: str) -> int:
    a = agg.get(name)
    return sum(int(k) * v for k, v in a["outcomes"].items() if int(k) > 0) if a else 0
