"""Seeded inputs for the workloads: the plane and layout files, live session
line streams, the replay recording and the known-defect probe lines.

Geometry (camera frame, meters): a 0.60 x 0.80 m table at depth 1.2 m seen
by a camera at the origin; each operator's shoulders sit 0.6 m from the
camera, 0.55 m arms point at the table. Gestures hold one aim for 30-60
frames with 6 mm joint noise; a share aims off the table, so its samples
fall out of bounds and are silently dropped.
"""

from __future__ import annotations

import json
import random

from common import out_path

CORNERS = ((-0.3, -0.4, 1.2), (0.3, -0.4, 1.2), (0.3, 0.4, 1.2), (-0.3, 0.4, 1.2))
SHOULDERS = {"right": (0.15, -0.35, 0.6), "left": (-0.15, -0.35, 0.6)}
ARM_LENGTH = 0.55
JOINT_SIGMA = 0.006
FRAME_RATE = 30.0
INTRINSICS = {"fx": 300.0, "fy": 300.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480}
SNAP_EVERY = 15  # live: one snap control line per this many frames per session

# world-frame positions of the layout entities (all on the table plane)
BOLTS = (("B1", 0.1, -0.1, "right"), ("B2", 0.1, 0.1, "right"),
         ("B3", -0.1, -0.1, "left"), ("B4", -0.1, 0.1, "left"))
AREAS = (("A1", 0.0, -0.25), ("A2", 0.0, 0.0), ("A3", 0.0, 0.25))
AREA_HALF = 0.05

# one line that overflows arm_ray's subtraction: finite joints at +-1e308
HUGE_FRAME = json.dumps({"t": 1e6, "joints": {
    "right_shoulder": {"x": 1e308, "y": 1e308, "z": 1e308, "c": 1.0},
    "right_wrist": {"x": -1e308, "y": -1e308, "z": -1e308, "c": 1.0}}})


def write_plane_file(path: str) -> str:
    from gesturepoint.cli import save_plane_file
    from gesturepoint.geometry import Point3, plane_from_corners, workplane_frame

    plane = plane_from_corners([Point3(*c) for c in CORNERS], Point3(0.0, 0.0, 0.0))
    save_plane_file(path, plane, workplane_frame(plane, 0, 1), 0, 1)
    return path


def write_layout_file(path: str, plane_path: str, *, bolts: bool) -> str:
    """Bolts (pick targets) and/or the three areas, in workplane coordinates."""
    from gesturepoint.cli import load_plane_file
    from gesturepoint.geometry import Point3, to_workplane
    from gesturepoint.snap import Area, Target, save_layout

    _, frame, _, _ = load_plane_file(plane_path)
    table_z = CORNERS[0][2]
    targets = []
    if bolts:
        for tid, x, y, group in BOLTS:
            uv = to_workplane(Point3(x, y, table_z), frame)
            targets.append(Target(id=tid, label=f"bolt_{tid.lower()}", position=uv, group=group))
    areas = [Area(id=aid, center=to_workplane(Point3(x, y, table_z), frame),
                  half_extent=(AREA_HALF, AREA_HALF)) for aid, x, y in AREAS]
    save_layout(path, targets, areas)
    return path


def _aim(rng: random.Random, off_plane_share: float) -> tuple[float, float, float]:
    z = CORNERS[0][2]
    roll = rng.random()
    if roll < off_plane_share:  # beyond an edge of the table: out of bounds
        side = rng.choice((-1.0, 1.0))
        if rng.random() < 0.5:
            return (side * rng.uniform(0.42, 0.55), rng.uniform(-0.3, 0.3), z)
        return (rng.uniform(-0.2, 0.2), side * rng.uniform(0.52, 0.65), z)
    if roll < off_plane_share + 0.5:  # near a bolt or an area centre
        x, y = rng.choice([(b[1], b[2]) for b in BOLTS] + [(a[1], a[2]) for a in AREAS])
        return (x + rng.gauss(0, 0.015), y + rng.gauss(0, 0.015), z)
    return (rng.uniform(-0.25, 0.25), rng.uniform(-0.35, 0.35), z)


class _Hand:
    """Joint positions of one arm, holding each aim for 30-60 frames."""

    def __init__(self, rng: random.Random, hand: str, off_plane_share: float) -> None:
        self.rng, self.hand, self.off = rng, hand, off_plane_share
        self.left = 0
        self.wrist = (0.0, 0.0, 0.0)

    def joints(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        rng = self.rng
        sx, sy, sz = SHOULDERS[self.hand]
        if self.left == 0:
            ax, ay, az = _aim(rng, self.off)
            dx, dy, dz = ax - sx, ay - sy, az - sz
            scale = ARM_LENGTH / (dx * dx + dy * dy + dz * dz) ** 0.5
            self.wrist = (sx + dx * scale, sy + dy * scale, sz + dz * scale)
            self.left = rng.randint(30, 60)
        self.left -= 1
        g = rng.gauss
        shoulder = (sx + g(0, JOINT_SIGMA), sy + g(0, JOINT_SIGMA), sz + g(0, JOINT_SIGMA))
        wrist = tuple(w + g(0, JOINT_SIGMA) for w in self.wrist)
        return shoulder, wrist


def _joint_3d(p, c: float) -> dict:
    return {"x": round(p[0], 5), "y": round(p[1], 5), "z": round(p[2], 5), "c": c}


def _joint_px(p, c: float) -> dict:
    i = INTRINSICS
    return {"px": round(i["fx"] * p[0] / p[2] + i["cx"], 2),
            "py": round(i["fy"] * p[1] / p[2] + i["cy"], 2),
            "depth": round(p[2], 5), "c": c}


def _confidence(rng: random.Random, low_share: float) -> float:
    return 0.1 if rng.random() < low_share else round(rng.uniform(0.6, 1.0), 3)


def _malformed(rng: random.Random, t: float) -> str:
    """A line every reader must reject: each kind fails a different check."""
    kind = rng.randrange(5)
    if kind == 0:
        return '{"t": %.4f, "joints": {"right_wrist": ' % t
    if kind == 1:
        return "[1, 2, 3]"
    if kind == 2:
        return json.dumps({"joints": {}})
    if kind == 3:
        return json.dumps({"t": t, "joints": {"right_wrist": "up"}})
    return json.dumps({"t": t, "joints": {"right_wrist": {"x": 0.1, "y": 0.1, "z": 0.9, "c": 1.7}}})


def live_session_lines(seed: int, session: int, frames: int) -> list[str]:
    """Right hand, 3D joints; a snap control line every SNAP_EVERY frames and
    about 2% malformed lines."""
    rng = random.Random(f"live:{seed}:{session}")
    hand = _Hand(rng, "right", off_plane_share=0.05)
    lines = []
    for k in range(frames):
        t = round(k / FRAME_RATE, 4)
        shoulder, wrist = hand.joints()
        lines.append(json.dumps({"t": t, "source": "cam0", "joints": {
            "right_shoulder": _joint_3d(shoulder, _confidence(rng, 0.0)),
            "right_wrist": _joint_3d(wrist, _confidence(rng, 0.01))}}))
        if rng.random() < 0.02:
            lines.append(_malformed(rng, t))
        if (k + 1) % SNAP_EVERY == 0:
            cmd = {"cmd": "snap", "strategy": "pick", "hand": "right", "n": 15}
            roll = rng.random()
            if roll < 0.25:
                cmd["strategy"] = "place"
            elif roll < 0.5:
                cmd["group"] = rng.choice(("right", "left"))
            lines.append(json.dumps(cmd))
    return lines


def steady_lines(frames: int) -> list[str]:
    """Noise-free right-arm frames aimed at the table centre (all in bounds)."""
    sx, sy, sz = SHOULDERS["right"]
    dx, dy, dz = -sx, -sy, CORNERS[0][2] - sz
    scale = ARM_LENGTH / (dx * dx + dy * dy + dz * dz) ** 0.5
    wrist = (sx + dx * scale, sy + dy * scale, sz + dz * scale)
    return [json.dumps({"t": round(k / FRAME_RATE, 4), "joints": {
        "right_shoulder": _joint_3d(SHOULDERS["right"], 1.0),
        "right_wrist": _joint_3d(wrist, 1.0)}}) for k in range(frames)]


def replay_lines(seed: int, frames: int) -> list[str]:
    """Both hands, intrinsics header, ~30% px/py/depth joints, 2% low
    confidence, 5% off-plane gestures, ~0.3% non-monotonic timestamps and
    ~0.5% malformed lines."""
    rng = random.Random(f"replay:{seed}")
    hands = {h: _Hand(rng, h, off_plane_share=0.05) for h in ("right", "left")}
    lines = [json.dumps({"intrinsics": INTRINSICS})]
    for k in range(frames):
        t = round(k / FRAME_RATE, 4)
        if rng.random() < 0.003:
            t = round(t - 0.5, 4)
        joints = {}
        for h, arm in hands.items():
            for name, p in zip(("shoulder", "wrist"), arm.joints()):
                c = _confidence(rng, 0.02)
                joints[f"{h}_{name}"] = _joint_px(p, c) if rng.random() < 0.3 else _joint_3d(p, c)
        lines.append(json.dumps({"t": t, "source": "cam0", "joints": joints}))
        if rng.random() < 0.005:
            lines.append(_malformed(rng, t))
    return lines


def write_lines(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def common_files() -> tuple[str, str, str]:
    """(plane, live layout with bolts and areas, replay layout with areas)."""
    plane = write_plane_file(out_path("inputs", "plane.json"))
    live_layout = write_layout_file(out_path("inputs", "live_layout.json"), plane, bolts=True)
    replay_layout = write_layout_file(out_path("inputs", "replay_layout.json"), plane, bolts=False)
    return plane, live_layout, replay_layout
