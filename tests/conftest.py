from __future__ import annotations

import json
import os

import gesturepoint
from gesturepoint.cli import main
from gesturepoint.geometry import Point3, plane_from_corners

# CLI subprocesses started by tests import the package from this same source tree
_SRC = os.path.dirname(os.path.dirname(gesturepoint.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


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


def make_plane_file(path, corners: list[Point3] | None = None):
    """Build a plane file via the CLI's own writer."""
    from gesturepoint.cli import save_plane_file
    from gesturepoint.geometry import workplane_frame

    plane = plane_from_corners(corners or desk_corners())
    frame = workplane_frame(plane)
    save_plane_file(str(path), plane, frame, 0, 1)
    return path
