"""An exact cost budget for the per-line path: the bytecode instructions
CPython executes per input line (``sys.settrace`` with
``frame.f_trace_opcodes``), counted over every frame the call runs, the
standard library's included. Unlike CPU time, the count repeats to the last
digit, so it tells a change of a few percent apart on a noisy host; it does
not see work done in C (JSON scanning, string joins, socket calls).

Two generated inputs, in the shape of the benchmark's: a 500-frame live
session (right hand, 3D joints, a snap line every 15 frames, ~2% malformed
lines) answered by ``LiveSession.handle_read`` in 1 KiB reads, and a
500-frame two-hand recording (an intrinsics header, ~30% pixel joints, ~0.5%
malformed lines) run through ``cli.main(["replay", ...])`` with place snaps
and camera-frame output. Each count may be at most its budget + 3%. A change
that moves the per-line path on purpose sets the budget again and says so.

Beside them, an exact memory budget: the bytes (``tracemalloc``) that a live
session with both hands enabled, fed the replay recording, still holds once
both per-hand histories are full, at most its budget + 10%.

The counts belong to one CPython minor version, so other versions skip.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tracemalloc

import pytest

from gesturepoint import cli
from gesturepoint.geometry import Point3, plane_from_corners, to_workplane, workplane_frame
from gesturepoint.live import LiveSession
from gesturepoint.pipeline import HISTORY_CAPACITY, PipelineSettings
from gesturepoint.snap import Area, AreaRegistry, Target, TargetRegistry, save_layout

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="opcode counts are pinned for CPython 3.11",
)

# instructions per input line, counted on CPython 3.11.7
LIVE_BUDGET = 935.53
REPLAY_BUDGET = 2113.89
SLACK = 1.03
# bytes a two-hand live session retains with both histories full, traced on CPython 3.11.7
SESSION_BUDGET = 128253
SESSION_SLACK = 1.10

FRAMES = 500
CORNERS = ((-0.3, -0.4, 1.2), (0.3, -0.4, 1.2), (0.3, 0.4, 1.2), (-0.3, 0.4, 1.2))
SHOULDERS = {"right": (0.15, -0.35, 0.6), "left": (-0.15, -0.35, 0.6)}
INTRINSICS = {"fx": 300.0, "fy": 300.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480}


def _gestures(rng: random.Random, hand: str):
    """Endless (shoulder, wrist) pairs: each aim held 30-60 frames, 5% of aims
    off the table, 6 mm joint noise, 0.55 m arms."""
    shoulder = SHOULDERS[hand]
    while True:
        off = rng.random() < 0.05
        aim = (rng.uniform(-0.6, 0.6) if off else rng.uniform(-0.28, 0.28), rng.uniform(-0.38, 0.38), 1.2)
        d = [a - s for a, s in zip(aim, shoulder)]
        scale = 0.55 / math.sqrt(sum(c * c for c in d))
        for _ in range(rng.randint(30, 60)):
            yield (tuple(s + rng.gauss(0, 0.006) for s in shoulder),
                   tuple(s + c * scale + rng.gauss(0, 0.006) for s, c in zip(shoulder, d)))


def _joint_3d(p, c):
    return {"x": round(p[0], 5), "y": round(p[1], 5), "z": round(p[2], 5), "c": c}


def _joint_px(p, c):
    i = INTRINSICS
    return {"px": round(i["fx"] * p[0] / p[2] + i["cx"], 2), "py": round(i["fy"] * p[1] / p[2] + i["cy"], 2),
            "depth": round(p[2], 5), "c": c}


def _confidence(rng: random.Random, low_share: float) -> float:
    return 0.1 if rng.random() < low_share else round(rng.uniform(0.6, 1.0), 3)


def _malformed(rng: random.Random, t: float) -> str:
    return rng.choice(['{"t": %.4f, "joints": {"right_wrist": ' % t, "[1, 2, 3]", json.dumps({"joints": {}}),
                       json.dumps({"t": t, "joints": {"right_wrist": "up"}})])


def live_lines() -> list[str]:
    rng = random.Random(35)
    arm = _gestures(rng, "right")
    lines = []
    for k in range(FRAMES):
        t = round(k / 30.0, 4)
        shoulder, wrist = next(arm)
        lines.append(json.dumps({"t": t, "source": "cam0", "joints": {
            "right_shoulder": _joint_3d(shoulder, _confidence(rng, 0.0)),
            "right_wrist": _joint_3d(wrist, _confidence(rng, 0.01))}}))
        if rng.random() < 0.02:
            lines.append(_malformed(rng, t))
        if (k + 1) % 15 == 0:
            cmd = {"cmd": "snap", "strategy": rng.choice(["pick", "pick", "place"]), "hand": "right", "n": 15}
            lines.append(json.dumps(cmd))
    return lines


def replay_lines() -> list[str]:
    rng = random.Random(36)
    arms = {hand: _gestures(rng, hand) for hand in ("right", "left")}
    lines = [json.dumps({"intrinsics": INTRINSICS})]
    for k in range(FRAMES):
        t = round(k / 30.0 - (0.5 if rng.random() < 0.003 else 0.0), 4)
        joints = {}
        for hand, arm in arms.items():
            for name, p in zip(("shoulder", "wrist"), next(arm)):
                c = _confidence(rng, 0.02)
                joints[f"{hand}_{name}"] = _joint_px(p, c) if rng.random() < 0.3 else _joint_3d(p, c)
        lines.append(json.dumps({"t": t, "source": "cam0", "joints": joints}))
        if rng.random() < 0.005:
            lines.append(_malformed(rng, t))
    return lines


def count_instructions(fn) -> int:
    """The bytecode instructions executed while ``fn()`` runs, in every frame it opens."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


@pytest.fixture(scope="module")
def layout(tmp_path_factory):
    """The desk plane and a layout of four bolts and three areas, as files."""
    root = tmp_path_factory.mktemp("opcodes")
    plane = plane_from_corners([Point3(*c) for c in CORNERS], Point3(0.0, 0.0, 0.0))
    frame = workplane_frame(plane)
    cli.save_plane_file(str(root / "plane.json"), plane, frame, 0, 1)
    targets = [Target(id=f"B{k}", label=f"bolt_{k}", position=to_workplane(Point3(x, y, 1.2), frame), group=group)
               for k, (x, y, group) in enumerate(((0.1, -0.1, "right"), (0.1, 0.1, "right"),
                                                  (-0.1, -0.1, "left"), (-0.1, 0.1, "left")))]
    areas = [Area(id=f"A{k}", center=to_workplane(Point3(0.0, y, 1.2), frame), half_extent=(0.05, 0.05))
             for k, y in enumerate((-0.25, 0.0, 0.25))]
    save_layout(root / "layout.json", targets, areas)
    return root, plane, frame, targets, areas


def test_live_instructions_per_line_stay_within_budget(layout):
    _, plane, frame, targets, areas = layout
    target_registry, area_registry = TargetRegistry(), AreaRegistry()
    target_registry.replace_all(targets)
    area_registry.replace_all(areas)
    session = LiveSession(PipelineSettings(plane, frame), target_registry, area_registry)
    lines = live_lines()
    data = ("\n".join(lines) + "\n").encode()
    pieces = [data[i:i + 1024] for i in range(0, len(data), 1024)]
    per_line = count_instructions(lambda: [session.handle_read(piece) for piece in pieces]) / len(lines)
    assert session.unsent.count(b"\n") > FRAMES  # a reply for (nearly) every frame, every snap and bad line
    assert per_line <= LIVE_BUDGET * SLACK, f"{per_line:.2f} instructions per live line, budget {LIVE_BUDGET}"


def test_replay_instructions_per_line_stay_within_budget(layout):
    root = layout[0]
    lines = replay_lines()
    (root / "replay.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["replay", "--plane", str(root / "plane.json"), "--stream", str(root / "replay.jsonl"),
            "--out", str(root / "out.jsonl"), "--hand", "both", "--pair", "shoulder-wrist", "--frame", "camera",
            "--snap", "place", "--registry", str(root / "layout.json")]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        per_line = count_instructions(lambda: cli.main(argv)) / len(lines)
    assert f"frames={FRAMES}" in err.getvalue().splitlines()[-1]
    assert per_line <= REPLAY_BUDGET * SLACK, f"{per_line:.2f} instructions per replay line, budget {REPLAY_BUDGET}"


def test_live_session_retains_within_budget_with_full_histories(layout):
    _, plane, frame, targets, areas = layout
    target_registry, area_registry = TargetRegistry(), AreaRegistry()
    target_registry.replace_all(targets)
    area_registry.replace_all(areas)
    settings = PipelineSettings(plane, frame, hands=("right", "left"))
    data = ("\n".join(replay_lines()) + "\n").encode()  # both hands, as replay's input
    pieces = [data[i:i + 1024] for i in range(0, len(data), 1024)]
    LiveSession(settings, target_registry, area_registry).handle_read(pieces[0])  # first-use caches, untraced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session = LiveSession(settings, target_registry, area_registry)
        for piece in pieces:
            session.handle_read(piece)
            session.unsent.clear()  # replies leave with the socket
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [len(h) for h in session.pipeline._history.values()] == [HISTORY_CAPACITY] * 2
    assert retained <= SESSION_BUDGET * SESSION_SLACK, f"a session retains {retained} bytes, budget {SESSION_BUDGET}"
