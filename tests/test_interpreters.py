"""The numpy-free commands write the same bytes on every CPython >= 3.10.

Each other interpreter found runs ``python -m gesturepoint.cli`` over the same
inputs as the running one, and every exit code, stdout, stderr and written
file must match byte for byte. Interpreters are found through the ``PATH``
names that actually start, plus the paths listed, separated by
``os.pathsep``, in the test-only variable ``GESTUREPOINT_TEST_PYTHONS``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import gesturepoint
from conftest import INTRINSICS, desk_corners, project, write_corner_file
from gesturepoint.geometry import Point3
from gesturepoint.stream import parse_intrinsics_header

_SRC = os.path.dirname(os.path.dirname(gesturepoint.__file__))
_NAMES = ("python3", "python", *(f"python3.{minor}" for minor in range(10, 16)))
_ENV = dict(os.environ, PYTHONPATH=_SRC, PYTHONDONTWRITEBYTECODE="1")
_PROBE = "import os, sys; print(sys.implementation.name, *sys.version_info[:2], os.path.realpath(sys.executable))"

# a session over the recording plus two snap lines, read in 997-byte pieces
_LIVE = """\
import sys
from gesturepoint.cli import load_plane_file
from gesturepoint.live import LiveSession, PipelineSettings
from gesturepoint.snap import AreaRegistry, TargetRegistry, load_layout

plane, frame, _, _ = load_plane_file("plane.json")
targets, areas = TargetRegistry(), AreaRegistry()
loaded_targets, loaded_areas = load_layout("layout.json")
targets.replace_all(loaded_targets)
areas.replace_all(loaded_areas)
with open(sys.argv[1], "rb") as f:
    data = f.read() + b'{"cmd": "snap", "strategy": "pick"}\\n{"cmd": "snap", "strategy": "place", "n": 5}\\n'
session = LiveSession(PipelineSettings(plane=plane, frame=frame), targets, areas)
for read in [data[i:i + 997] for i in range(0, len(data), 997)] + [b""]:  # the empty read is EOF
    session.handle_read(read)
    sys.stdout.buffer.write(session.unsent)
    session.unsent.clear()
"""


def _other_interpreters() -> list[str]:
    """Each CPython >= 3.10 that starts, other than the running one, once."""
    listed = [p for p in os.environ.get("GESTUREPOINT_TEST_PYTHONS", "").split(os.pathsep) if p]
    seen = {os.path.realpath(sys.executable)}
    found = []
    for candidate in [*filter(None, map(shutil.which, _NAMES)), *listed]:
        try:
            probe = subprocess.run([candidate, "-c", _PROBE], capture_output=True, text=True, timeout=30, env=_ENV)
        except OSError:
            continue
        if probe.returncode != 0:  # a pyenv shim with no version behind it exits 127
            continue
        name, major, minor, executable = probe.stdout.split(maxsplit=3)
        executable = executable.strip()
        if name == "cpython" and (int(major), int(minor)) >= (3, 10) and executable not in seen:
            seen.add(executable)
            found.append(candidate)
    return found


def _recording(path) -> None:
    """Noisy right-hand frames at the desk, aimed at (0.3, 0.3), then with
    the wrist in pixels, aimed near (0.13, 0.76); plus malformed and
    non-monotonic lines."""
    rng = random.Random(7)
    intr = parse_intrinsics_header({"intrinsics": INTRINSICS})
    shoulder = {"x": 0.3, "y": -0.1, "z": 0.6, "c": 0.9}
    lines = [json.dumps({"intrinsics": INTRINSICS})]
    for k in range(240):
        if k >= 160:
            wrist = Point3(0.28 + rng.gauss(0, 0.002), rng.gauss(0, 0.002), 0.53)
            px, py = project(wrist, intr)
            joint = {"px": px, "py": py, "depth": wrist.z, "c": 0.9}
        else:
            joint = {"x": 0.3 + rng.gauss(0, 0.003), "y": 0.1 + rng.gauss(0, 0.003), "z": 0.3, "c": 0.9}
        lines.append(json.dumps({"t": k / 30, "joints": {"right_shoulder": shoulder, "right_wrist": joint}}))
        if k % 40 == 17:
            lines += ["{broken", json.dumps({"t": k / 30 + 0.01, "joints": {"right_wrist": {"x": "0.3"}}})]
        if k % 50 == 33:
            lines.append(json.dumps({"t": 0.0, "joints": {"right_shoulder": shoulder, "right_wrist": joint}}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _inputs(directory) -> None:
    directory.mkdir()
    write_corner_file(directory / "corners.json", desk_corners())
    intr = parse_intrinsics_header({"intrinsics": INTRINSICS})
    tilted = [Point3(-0.3, -0.1, 1.0), Point3(0.3, -0.1, 1.1), Point3(0.3, 0.3, 1.2), Point3(-0.3, 0.3, 1.1)]
    corners = [{"px": px, "py": py, "depth": c.z} for c in tilted for px, py in [project(c, intr)]]
    (directory / "pixel_corners.json").write_text(json.dumps({"intrinsics": INTRINSICS, "corners": corners}),
                                                  encoding="utf-8")
    _recording(directory / "recording.jsonl")


_COMMANDS = [
    ["define-plane", "--corners", "../in/corners.json", "--out", "plane.json", "--viewpoint", "0.3,-0.1,0.6"],
    ["define-plane", "--corners", "../in/pixel_corners.json", "--out", "pixel_plane.json"],
    ["registry", "init", "--file", "layout.json"],
    ["registry", "add-target", "--file", "layout.json", "--id", "goal", "--u", "0.3", "--v", "0.3"],
    ["registry", "add-target", "--file", "layout.json", "--id", "far", "--u", "0.13", "--v", "0.76",
     "--group", "g"],
    ["registry", "add-area", "--file", "layout.json", "--id", "zone", "--cu", "0.3", "--cv", "0.3",
     "--hu", "0.05", "--hv", "0.05"],
    ["registry", "list", "--file", "layout.json"],
    ["replay", "--plane", "plane.json", "--stream", "../in/recording.jsonl", "--out", "workplane.jsonl",
     "--snap", "pick", "--registry", "layout.json", "--n", "5"],
    ["replay", "--plane", "plane.json", "--stream", "../in/recording.jsonl", "--out", "camera.jsonl",
     "--frame", "camera", "--snap", "place", "--registry", "layout.json", "--n", "5"],
]


def _run_all(python: str, directory) -> list:
    """Every command's exit code, stdout and stderr, the live session's
    replies, then every file written, run by ``python`` in ``directory``."""
    directory.mkdir()
    results = []
    for argv in _COMMANDS:
        done = subprocess.run([python, "-m", "gesturepoint.cli", *argv], cwd=directory, env=_ENV,
                              capture_output=True, timeout=120)
        results.append((argv[:2], done.returncode, done.stdout, done.stderr))
    done = subprocess.run([python, "-c", _LIVE, "../in/recording.jsonl"], cwd=directory, env=_ENV,
                          capture_output=True, timeout=120)
    results.append(("live", done.returncode, done.stdout, done.stderr))
    results += sorted((path.name, path.read_bytes()) for path in directory.iterdir())
    return results


def test_numpy_free_commands_write_the_same_bytes_on_every_interpreter(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other CPython >= 3.10 starts from PATH or GESTUREPOINT_TEST_PYTHONS")
    _inputs(tmp_path / "in")
    expected = _run_all(sys.executable, tmp_path / "reference")
    codes = [result[1] for result in expected[:len(_COMMANDS) + 1]]
    assert codes == [0] * len(codes), expected
    points = expected[len(_COMMANDS)][2]
    assert points.count(b'"u"') > 150 and b'"ok": true' in points
    for i, python in enumerate(others):
        assert _run_all(python, tmp_path / f"python{i}") == expected, python
