"""In-process reference outputs built from the library's pipeline and snap
functions, with the wire formats written out here, so a change to the
serving layers (live sessions, replay) that alters a byte shows up.

Live expectations per input line are a list of replies, each one of
    ("line", text)  exact gesture-point line,
    ("json", dict)  snap result compared as parsed JSON,
    ("err", None)   any {"err": ...} object.
An out-of-bounds or ray-less frame expects no reply at all.
"""

from __future__ import annotations

import json

from gesturepoint.cli import load_plane_file
from gesturepoint.geometry import from_workplane
from gesturepoint.pipeline import GesturePipeline
from gesturepoint.snap import SnapRequest, evaluate_request, load_layout, place_snap
from gesturepoint.stream import MalformedRecordError, StreamReader, parse_frame

SNAP_N = 15
THRESHOLD = 0.05


def _sorted_layout(layout_path: str):
    targets, areas = load_layout(layout_path)
    return tuple(sorted(targets, key=lambda t: t.id)), tuple(sorted(areas, key=lambda a: a.id))


def _point_line(gp) -> str:
    doc = {"t": gp.timestamp, "hand": gp.hand, "u": gp.position.u, "v": gp.position.v,
           "window": gp.window_size}
    return json.dumps(doc, separators=(",", ":"))


def _camera_line(gp, frame) -> str:
    world = from_workplane(gp.position, frame)
    doc = {"t": gp.timestamp, "hand": gp.hand, "x": world.x, "y": world.y, "z": world.z,
           "window": gp.window_size}
    return json.dumps(doc, separators=(",", ":"))


def live_expectations(lines: list[str], plane_path: str, layout_path: str) -> list[list[tuple]]:
    """Expected replies of one live session (right hand, workplane output)."""
    plane, frame, _, _ = load_plane_file(plane_path)
    targets, areas = _sorted_layout(layout_path)
    pipe = GesturePipeline(plane, frame, hands=("right",))
    out = []
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            out.append([("err", None)])
            continue
        if not isinstance(obj, dict):
            out.append([("err", None)])
        elif "cmd" in obj:
            out.append([_snap_expectation(pipe, obj, targets, areas)])
        else:
            try:
                frame_obj = parse_frame(obj)
            except MalformedRecordError:
                out.append([("err", None)])
                continue
            out.append([("line", _point_line(gp)) for gp in pipe.process(frame_obj)])
    return out


def _snap_expectation(pipe: GesturePipeline, cmd: dict, targets, areas) -> tuple:
    n = cmd.get("n", SNAP_N)
    samples = pipe.recent(cmd.get("hand", "right"), n)
    if len(samples) < n:
        return ("err", None)
    request = SnapRequest(samples=tuple(samples), strategy=cmd.get("strategy", "pick"),
                          group_filter=cmd.get("group"))
    result = evaluate_request(request, targets, areas, threshold=THRESHOLD)
    if result is None:
        return ("json", {"ok": False, "id": None, "fallback": False})
    return ("json", {"ok": True, "id": result.selected_id, "fallback": result.fallback_used,
                     "mean": [result.mean_point.u, result.mean_point.v],
                     "max_dev": result.max_radial_deviation})


def reply_matches(expected: tuple, reply: str) -> bool:
    kind, want = expected
    if kind == "line":
        return reply == want
    try:
        got = json.loads(reply)
    except json.JSONDecodeError:
        return False
    if kind == "err":
        return isinstance(got, dict) and set(got) == {"err"}
    return got == want


def replay_bytes(lines: list[str], plane_path: str, layout_path: str) -> bytes:
    """Expected output file of `replay --hand both --pair shoulder-wrist
    --frame camera --snap place`: every stabilized point, plus a place snap
    record after every SNAP_N accepted points of a hand."""
    plane, frame, _, _ = load_plane_file(plane_path)
    _, areas = _sorted_layout(layout_path)
    pipe = GesturePipeline(plane, frame, hands=("left", "right"), pair="shoulder_wrist")
    accepted = {"left": 0, "right": 0}
    out = []
    for frame_obj in StreamReader(lines, skip_malformed=True):
        for gp in pipe.process(frame_obj):
            out.append(_camera_line(gp, frame))
            accepted[gp.hand] += 1
            if accepted[gp.hand] % SNAP_N == 0:
                result = place_snap(pipe.recent(gp.hand, SNAP_N), areas, threshold=THRESHOLD)
                snap = {"ok": result is not None,
                        "id": result.selected_id if result else None,
                        "fallback": result.fallback_used if result else False}
                out.append(json.dumps({"t": gp.timestamp, "hand": gp.hand, "snap": snap},
                                      separators=(",", ":")))
    return ("\n".join(out) + "\n").encode("utf-8") if out else b""
