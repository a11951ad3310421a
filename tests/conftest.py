from __future__ import annotations

import json
import math
import os
import signal

import pytest

import gesturepoint
from gesturepoint.cli import main
from gesturepoint.geometry import Point3, plane_from_corners

# CLI subprocesses started by tests import the package from this same source tree
_SRC = os.path.dirname(os.path.dirname(gesturepoint.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def default_sigint() -> None:
    """``preexec_fn`` of a ``gesturepoint live`` child that a test stops with
    SIGINT: a child inherits an ignored SIGINT (as a background job's is), so
    without this it would never see the signal."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def run_cli(argv: list[str]) -> int:
    """Invoke the CLI in-process, folding argparse's SystemExit into a code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


def unit_square_plane():
    return plane_from_corners(
        [Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0), Point3(0, 1, 0)]
    )


def desk_corners() -> list[Point3]:
    return [Point3(0, 0, 0), Point3(0.6, 0, 0), Point3(0.6, 0.8, 0), Point3(0, 0.8, 0)]


SCENARIO_TEMPLATE = """\
# synthetic desk gesture
plane_corner_1 = 0.0, 0.0, 0.0
plane_corner_2 = 0.6, 0.0, 0.0
plane_corner_3 = 0.6, 0.8, 0.0
plane_corner_4 = 0.0, 0.8, 0.0
shoulder   = 0.3, -0.1, 0.6
target     = {target}
sigma      = {sigma}
arm_length = 0.55
seed       = {seed}
count      = {count}
"""


def write_scenario_file(path, *, target="0.3, 0.4, 0.0", sigma=0.0, seed=42, count=40):
    path.write_text(
        SCENARIO_TEMPLATE.format(target=target, sigma=sigma, seed=seed, count=count),
        encoding="utf-8",
    )
    return path


def write_corner_file(path, corners: list[Point3]):
    doc = {"corners": [{"x": c.x, "y": c.y, "z": c.z} for c in corners]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def project(point: Point3, intr) -> tuple[float, float]:
    """Pinhole projection of a point in front of the camera (z > 0): the
    inverse of ``geometry.deproject``, for building pixel-form inputs."""
    return (
        intr.fx * point.x / point.z + intr.cx,
        intr.fy * point.y / point.z + intr.cy,
    )


def make_plane_file(path, corners: list[Point3] | None = None):
    """Build a plane file via the CLI's own writer."""
    from gesturepoint.cli import save_plane_file
    from gesturepoint.geometry import workplane_frame

    plane = plane_from_corners(corners or desk_corners())
    frame = workplane_frame(plane)
    save_plane_file(str(path), plane, frame, 0, 1)
    return path


# --- input boundaries: every row is checked with NaN, +inf and -inf -----------

non_finite = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
INTRINSICS = {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480}
JOINT_FIELDS = ("x", "y", "z", "px", "py", "depth", "c")


def wrist_frame(field: str, value: float) -> dict:
    """A two-joint record with ``value`` in the timestamp (``"t"``) or in one
    field of the right wrist, in the 3D or the pixel form as ``field`` needs.
    Left at its default, the 3D form points at (0.3, 0.3) on the desk plane."""
    wrist = (
        {"px": 320, "py": 240, "depth": 0.9, "c": 0.9}
        if field in ("px", "py", "depth")
        else {"x": 0.3, "y": 0.1, "z": 0.3, "c": 0.9}
    )
    record = {"t": 0.0, "joints": {"right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.6, "c": 0.9},
                                   "right_wrist": wrist}}
    if field == "t":
        record["t"] = value
    else:
        wrist[field] = value
    return record
