"""CLI tests: subcommands end to end, exit codes, env-var config defaults."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    INTRINSICS,
    JOINT_FIELDS,
    default_sigint,
    desk_corners,
    make_plane_file,
    non_finite,
    project,
    run_cli,
    wrist_frame,
    write_corner_file,
    write_scenario_file,
)
import gesturepoint
from gesturepoint import evaluation
from gesturepoint.cli import ConfigError, _load_registries, build_parser, load_plane_file
from gesturepoint.evaluation import EvalError, load_boards
from gesturepoint.geometry import GeometryError, PlanarPoint, Point3, CameraIntrinsics
from gesturepoint.live import LiveSession
from gesturepoint.pipeline import PipelineSettings
from gesturepoint.snap import (Area, AreaRegistry, DuplicateIdError, MalformedFileError, SnapError, Target,
                               TargetRegistry, load_layout, save_layout)
from gesturepoint.stream import InvalidParametersError, MalformedRecordError, StreamError


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


# --- define-plane ------------------------------------------------------------


def test_define_plane_from_3d_corners(tmp_path, capsys):
    corners = write_corner_file(tmp_path / "corners.json", desk_corners())
    out = tmp_path / "plane.json"
    assert run_cli(["define-plane", "--corners", str(corners), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "quaternion" in stdout and "residual" in stdout
    plane, frame, origin_corner, x_corner = load_plane_file(str(out))
    assert plane.normal.z == pytest.approx(1.0)
    assert (origin_corner, x_corner) == (0, 1)
    for c in plane.corners:
        assert abs(plane.signed_distance(c)) <= 0.005


def test_define_plane_pixel_corners_match_3d(tmp_path):
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    corners_3d = [Point3(-0.3, -0.1, 1.0), Point3(0.3, -0.1, 1.0), Point3(0.3, 0.3, 1.0), Point3(-0.3, 0.3, 1.0)]
    px_doc = {
        "intrinsics": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480},
        "corners": [
            {"px": project(c, intr)[0], "py": project(c, intr)[1], "depth": c.z} for c in corners_3d
        ],
    }
    px_file = tmp_path / "pixel_corners.json"
    px_file.write_text(json.dumps(px_doc), encoding="utf-8")
    xyz_file = write_corner_file(tmp_path / "xyz_corners.json", corners_3d)
    out_px, out_xyz = tmp_path / "px.json", tmp_path / "xyz.json"
    # pin the viewpoint so both runs share the normal convention
    assert run_cli(["define-plane", "--corners", str(px_file), "--out", str(out_px), "--viewpoint", "0,0,0"]) == 0
    assert run_cli(["define-plane", "--corners", str(xyz_file), "--out", str(out_xyz), "--viewpoint", "0,0,0"]) == 0
    plane_px, _, _, _ = load_plane_file(str(out_px))
    plane_xyz, _, _, _ = load_plane_file(str(out_xyz))
    assert plane_px.d == pytest.approx(plane_xyz.d, abs=1e-9)
    for a, b in zip(plane_px.corners, plane_xyz.corners):
        assert a.x == pytest.approx(b.x, abs=1e-9)
        assert a.y == pytest.approx(b.y, abs=1e-9)
        assert a.z == pytest.approx(b.z, abs=1e-9)


def test_define_plane_collinear_exits_2(tmp_path, capsys):
    corners = write_corner_file(
        tmp_path / "bad.json", [Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0)]
    )
    code = run_cli(["define-plane", "--corners", str(corners), "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: corners 1-3 are collinear (degenerate cross product)\n"


@pytest.mark.parametrize(
    "bad_corner",
    [{"x": "abc", "y": 0, "z": 0}, {"x": 0, "y": None, "z": 0}, {"px": "abc", "py": 1, "depth": 1}],
    ids=["x_text", "y_null", "px_text"],
)
def test_define_plane_non_numeric_corner_exits_2(tmp_path, capsys, bad_corner):
    doc = {
        "corners": [bad_corner, {"x": 1, "y": 0, "z": 0}, {"x": 1, "y": 1, "z": 0}],
        "intrinsics": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480},
    }
    corners = tmp_path / "corners.json"
    corners.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli(["define-plane", "--corners", str(corners), "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert "corner 1" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_define_plane_missing_file_exits_2(tmp_path):
    code = run_cli(["define-plane", "--corners", str(tmp_path / "nope.json"), "--out", str(tmp_path / "p.json")])
    assert code == 2


@pytest.mark.parametrize("spelling", ["same", "symlink"])
def test_define_plane_out_naming_its_corner_file_exits_2_and_keeps_it(tmp_path, capsys, spelling):
    corners = write_corner_file(tmp_path / "corners.json", desk_corners())
    out = corners
    if spelling == "symlink":
        out = tmp_path / "link.json"
        out.symlink_to(corners)
    before = corners.read_bytes()
    assert run_cli(["define-plane", "--corners", str(corners), "--out", str(out)]) == 2
    assert f"is the input file {corners}" in capsys.readouterr().err
    assert corners.read_bytes() == before


# --- generate ------------------------------------------------------------------


def test_generate_writes_deterministic_stream(tmp_path):
    scenario = write_scenario_file(tmp_path / "s.cfg", sigma=0.01, seed=5, count=12)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(["generate", "--scenario", str(scenario), "--out", str(out1)]) == 0
    assert run_cli(["generate", "--scenario", str(scenario), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(read_jsonl(out1)) == 12
    out3 = tmp_path / "c.jsonl"
    assert run_cli(["generate", "--scenario", str(scenario), "--out", str(out3), "--seed", "6"]) == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_generate_bad_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma = 0.1\n", encoding="utf-8")
    assert run_cli(["generate", "--scenario", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 2


def test_generate_out_naming_its_scenario_exits_2_and_keeps_it(tmp_path, capsys):
    scenario = write_scenario_file(tmp_path / "s.cfg", count=5)
    before = scenario.read_bytes()
    assert run_cli(["generate", "--scenario", str(scenario), "--out", str(scenario)]) == 2
    assert f"is the input file {scenario}" in capsys.readouterr().err
    assert scenario.read_bytes() == before


# --- replay ------------------------------------------------------------------


def test_replay_noiseless_hits_target(tmp_path, capsys):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", target="0.2, 0.3, 0.0", count=20)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    out = tmp_path / "points.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert len(records) == 20
    for r in records:
        assert r["hand"] == "right"
        assert abs(r["u"] - 0.2) < 1e-9
        assert abs(r["v"] - 0.3) < 1e-9
    summary = capsys.readouterr().err
    assert "frames=20" in summary and "warnings=0" in summary


def test_replay_is_deterministic(tmp_path):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", sigma=0.01, count=30)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out1)])
    run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_replay_absent_wrist_warns_per_frame(tmp_path, capsys):
    plane = make_plane_file(tmp_path / "plane.json")
    stream = tmp_path / "stream.jsonl"
    lines = [
        json.dumps({"t": i / 30, "joints": {"right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.6, "c": 0.9}}})
        for i in range(7)
    ]
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "points.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""
    assert "frames=7 points=0 warnings=7" in capsys.readouterr().err


def test_replay_skips_malformed_lines_with_warning(tmp_path, capsys):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=6)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    lines = stream.read_text(encoding="utf-8").splitlines()
    lines.insert(3, "{broken json")
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "points.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "line 4" in err
    assert "frames=6 points=6 warnings=1" in err


def test_replay_counts_overflowing_frame_as_malformed(tmp_path, capsys):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=6)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    lines = stream.read_text(encoding="utf-8").splitlines()
    huge = {"t": 0.1, "joints": {"right_shoulder": {"x": 1e308, "y": 1e308, "z": 1e308},
                                 "right_wrist": {"x": -1e308, "y": -1e308, "z": -1e308}}}
    lines.insert(3, json.dumps(huge))
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "points.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "line 4" in err
    assert "frames=6 points=6 warnings=1" in err


def test_replay_n_beyond_history_capacity_exits_2(tmp_path, capsys):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=5)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    base = ["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(tmp_path / "o.jsonl")]
    assert run_cli(base + ["--n", "300"]) == 2
    assert "argument --n: must be in 1..256, got 300" in capsys.readouterr().err
    assert run_cli(base + ["--n", "256"]) == 0


def test_load_registries_from_layout_file(tmp_path):
    path = tmp_path / "layout.json"
    save_layout(
        path,
        [Target(id=f"t{i}", label="", position=PlanarPoint(0.1 * i, 0.1)) for i in (7, 3, 5)],
        [Area(id="a1", center=PlanarPoint(0.3, 0.3), half_extent=(0.1, 0.1))],
    )
    targets, areas = _load_registries(str(path))
    assert [t.id for t in targets.snapshot()] == ["t3", "t5", "t7"]
    assert [a.id for a in areas.snapshot()] == ["a1"]
    empty_targets, empty_areas = _load_registries(None)
    assert empty_targets.snapshot() == () and empty_areas.snapshot() == ()
    with pytest.raises(ConfigError):
        _load_registries(str(tmp_path / "missing.json"))


def test_replay_with_snap_logs_selection(tmp_path):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", target="0.2, 0.3, 0.0", count=20)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    registry = tmp_path / "layout.json"
    registry.write_text(
        json.dumps(
            {
                "targets": [
                    {"id": "goal", "label": "goal", "u": 0.2, "v": 0.3},
                    {"id": "decoy", "label": "decoy", "u": 0.5, "v": 0.6},
                ],
                "areas": [],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "points.jsonl"
    assert run_cli(
        ["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out),
         "--snap", "pick", "--registry", str(registry)]
    ) == 0
    snaps = [r for r in read_jsonl(out) if "snap" in r]
    assert len(snaps) == 1  # 20 accepted points, one snap at the 15th
    assert snaps[0]["snap"] == {"ok": True, "id": "goal", "fallback": False}


def test_replay_snap_requires_registry(tmp_path):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=5)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    code = run_cli(["replay", "--plane", str(plane), "--stream", str(stream),
                    "--out", str(tmp_path / "o.jsonl"), "--snap", "pick"])
    assert code == 2


@pytest.mark.parametrize("strategy", ["pick", "place"])
def test_replay_snap_without_its_entries_exits_2_before_writing(tmp_path, capsys, strategy):
    plane = make_plane_file(tmp_path / "plane.json")
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(_generated_lines(tmp_path, count=20)) + "\n", encoding="utf-8")
    layout = tmp_path / "layout.json"  # holds only what the other strategy snaps to
    layout.write_text(json.dumps({"targets": [] if strategy == "pick" else [_LAYOUT_TARGET],
                                  "areas": [_LAYOUT_AREA] if strategy == "pick" else []}),
                      encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out),
                    "--snap", strategy, "--registry", str(layout)]) == 2
    kind = "targets" if strategy == "pick" else "areas"
    assert f"no {kind} registered" in capsys.readouterr().err
    assert not out.exists()


def test_replay_memory_does_not_grow_with_its_warnings(tmp_path, monkeypatch):
    """Each warning is printed as it occurs: the traced peak of replaying 20k
    malformed lines stays within 1 MB of 1k lines (keeping them costs ~3 MB)."""
    plane = make_plane_file(tmp_path / "plane.json")
    peaks = []
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stderr", devnull)
        for lines in (1_000, 20_000):
            stream = tmp_path / f"malformed-{lines}.jsonl"
            stream.write_text("{broken\n" * lines, encoding="utf-8")
            tracemalloc.start()
            try:
                assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream),
                                "--out", str(tmp_path / "o.jsonl")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def test_replay_unwritable_output_exits_1(tmp_path):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=5)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    code = run_cli(["replay", "--plane", str(plane), "--stream", str(stream),
                    "--out", str(tmp_path / "missing_dir" / "o.jsonl")])
    assert code == 1


@pytest.mark.parametrize("clobbered", ["plane", "stream", "registry"])
def test_replay_out_naming_one_of_its_inputs_exits_2_and_keeps_it(tmp_path, capsys, clobbered):
    inputs = {"plane": make_plane_file(tmp_path / "plane.json"), "stream": tmp_path / "stream.jsonl",
              "registry": tmp_path / "layout.json"}
    inputs["stream"].write_text("\n".join(_generated_lines(tmp_path, count=20)) + "\n", encoding="utf-8")
    inputs["registry"].write_text(json.dumps({"targets": [_LAYOUT_TARGET], "areas": []}), encoding="utf-8")
    before = {name: path.read_bytes() for name, path in inputs.items()}
    assert run_cli(["replay", "--plane", str(inputs["plane"]), "--stream", str(inputs["stream"]),
                    "--snap", "pick", "--registry", str(inputs["registry"]),
                    "--out", str(inputs[clobbered])]) == 2
    assert f"is the input file {inputs[clobbered]}" in capsys.readouterr().err
    assert {name: path.read_bytes() for name, path in inputs.items()} == before


# --- sweep and calibrate --------------------------------------------------------


def test_sweep_noiseless_pick(tmp_path):
    out_dir = tmp_path / "reports"
    code = run_cli(["sweep", "--kind", "pick", "--trials", "2", "--seed", "3",
                    "--distances", "0.10,0.04", "--out", str(out_dir)])
    assert code == 0
    csv_text = (out_dir / "pick_square_report.csv").read_text(encoding="utf-8")
    rows = csv_text.strip().splitlines()
    assert len(rows) == 1 + 2 * 4
    assert all(",100.00," in row for row in rows[1:])
    assert (out_dir / "pick_square_report.json").exists()


def test_sweep_writes_the_boards_it_ran_on_a_scenario_plane(tmp_path):
    scenario = tmp_path / "wide.cfg"
    scenario.write_text(
        "plane_corner_1 = 0, 0, 0\nplane_corner_2 = 1.0, 0, 0\n"
        "plane_corner_3 = 1.0, 1.2, 0\nplane_corner_4 = 0, 1.2, 0\n"
        "shoulder = 0.5, -0.1, 0.6\ntarget = 0.5, 0.6, 0\nsigma = 0\n"
        "arm_length = 0.55\nseed = 1\ncount = 30\n",
        encoding="utf-8",
    )
    args = ["sweep", "--kind", "pick", "--scenario", str(scenario), "--trials", "2",
            "--seed", "3", "--distances", "0.4"]
    generated, replayed = tmp_path / "generated", tmp_path / "replayed"
    assert run_cli(args + ["--out", str(generated)]) == 0
    boards = json.loads((generated / "pick_square_boards.json").read_text(encoding="utf-8"))
    (board,) = boards["boards"]
    assert board["board"]["plane_size_m"] == pytest.approx([1.0, 1.2])
    b1 = next(t for t in board["targets"] if t["id"] == "B1")
    assert (b1["u"], b1["v"]) == pytest.approx((0.7, 0.4))
    # sweeping the written boards file reproduces the reports byte for byte
    written = generated / "pick_square_boards.json"
    assert run_cli(args[:-2] + ["--board", str(written), "--out", str(replayed)]) == 0
    for name in ("pick_square_report.csv", "pick_square_report.json"):
        assert (generated / name).read_bytes() == (replayed / name).read_bytes()


def test_sweep_n_outside_trial_frames_exits_2(tmp_path, capsys):
    base = ["sweep", "--kind", "pick", "--trials", "2", "--distances", "0.2", "--out", str(tmp_path)]
    assert run_cli(base + ["--n", "40"]) == 2
    assert "snap sample count" in capsys.readouterr().err
    assert run_cli(base + ["--n", "0"]) == 2  # below 1: the flag's own type says so
    assert "argument --n: invalid positive_int value: '0'" in capsys.readouterr().err
    assert not (tmp_path / "pick_square_report.csv").exists()
    assert run_cli(base + ["--n", "30"]) == 0


def test_sweep_board_of_another_kind_exits_2(tmp_path, capsys):
    base = ["sweep", "--trials", "1", "--seed", "3"]
    assert run_cli(base + ["--kind", "place", "--sizes", "0.2", "--out", str(tmp_path / "place")]) == 0
    assert run_cli(base + ["--kind", "pick", "--distances", "0.2", "--out", str(tmp_path / "pick")]) == 0
    capsys.readouterr()
    place_boards = tmp_path / "place" / "place_areas_boards.json"
    pick_boards = tmp_path / "pick" / "pick_square_boards.json"
    for kind, boards in (("pick", place_boards), ("quantitative", place_boards), ("place", pick_boards)):
        out = tmp_path / f"{kind}-mismatch"
        assert run_cli(base + ["--kind", kind, "--board", str(boards), "--out", str(out)]) == 2
        assert f"does not fit --kind {kind}" in capsys.readouterr().err
        assert not out.exists()
    # quantitative boards select by pick, so pick boards fit --kind quantitative
    assert run_cli(base + ["--kind", "quantitative", "--board", str(pick_boards),
                           "--out", str(tmp_path / "q")]) == 0


def test_sweep_board_with_duplicate_ids_exits_2(tmp_path, capsys):
    def target(u, v):
        return {"id": "B1", "label": "bolt", "group": None, "u": u, "v": v}

    doc = {"boards": [
        {"board": {"kind": "custom"}, "targets": [target(0.1, 0.1)], "areas": []},
        {"board": {"kind": "custom"}, "targets": [target(0.1, 0.1), target(0.5, 0.7)], "areas": []},
    ]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(EvalError, match=r"board 2 \(custom\): id 'B1' appears twice"):
        load_boards(path)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--kind", "pick", "--trials", "1", "--board", str(path),
                    "--out", str(out)]) == 2
    assert "id 'B1' appears twice" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_board_with_targets_and_areas_exits_2(tmp_path, capsys):
    """A board holds targets or areas, not both: either kind of sweep would
    drop one of them."""
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"board": {"kind": "custom"},
                                "targets": [{"id": "T1", "label": "t", "group": None, "u": 0.3, "v": 0.3}],
                                "areas": [{"id": "A1", "cu": 0.3, "cv": 0.5, "hu": 0.05, "hv": 0.05}]}),
                    encoding="utf-8")
    with pytest.raises(EvalError, match="board 1 holds both targets and areas"):
        load_boards(path)
    for kind in ("pick", "place"):
        out = tmp_path / kind
        assert run_cli(["sweep", "--kind", kind, "--trials", "1", "--board", str(path), "--out", str(out)]) == 2
        assert "board 1 holds both targets and areas" in capsys.readouterr().err
        assert not out.exists()


def _board_file(path, **layout):
    path.write_text(json.dumps({"boards": [{"board": {"kind": "custom"}, **layout}]}), encoding="utf-8")
    return str(path)


def test_sweep_boards_off_the_workspace_exit_2(tmp_path, capsys, monkeypatch):
    """Every aimed target and area center must lie in the workspace. Listing
    the desk corners clockwise puts it at v in [-0.6, 0], off every
    generated board, and a board file may place a target or area off the
    table; each exits 2 before any report is written, and before
    ``--calibrate`` runs a calibration."""
    def no_calibration(*args, **kwargs):
        raise AssertionError("sweep calibrated before it checked its boards against the workspace")

    monkeypatch.setattr(evaluation, "calibrate_sigma", no_calibration)
    clockwise = tmp_path / "cw.cfg"
    clockwise.write_text(
        "plane_corner_1 = 0, 0, 0\nplane_corner_2 = 0, 0.8, 0\n"
        "plane_corner_3 = 0.6, 0.8, 0\nplane_corner_4 = 0.6, 0, 0\n"
        "shoulder = 0.3, -0.1, 0.6\ntarget = 0.3, 0.4, 0\nsigma = 0\n"
        "arm_length = 0.55\nseed = 1\ncount = 30\n",
        encoding="utf-8",
    )
    pick = _board_file(tmp_path / "pick.json", targets=[{"id": "T1", "label": "t", "u": 0.3, "v": 0.4},
                                                        {"id": "T2", "label": "t", "u": 0.9, "v": 0.4}])
    place = _board_file(tmp_path / "place.json", areas=[{"id": "A1", "cu": 0.3, "cv": -0.05, "hu": 0.1, "hv": 0.1}])
    cases = [
        (["--kind", "quantitative", "--scenario", str(clockwise)], "quantitative_10 board: T1 at (u, v) = (0.1000, 0.1000)"),
        (["--kind", "pick", "--board", pick], "custom board: T2 at (u, v) = (0.9000, 0.4000)"),
        (["--kind", "place", "--board", place], "custom board: A1 at (u, v) = (0.3000, -0.0500)"),
    ]
    for args, where in cases:
        for calibrate in ([], ["--calibrate", "0.03"]):
            out = tmp_path / "out"
            assert run_cli(["sweep", "--trials", "1", *calibrate, *args, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {where} lies off the workspace\n"
            assert not out.exists()


def test_sweep_checks_its_series_before_calibrating(tmp_path, capsys, monkeypatch):
    def no_calibration(*args, **kwargs):
        raise AssertionError("sweep calibrated before it checked its board series")

    monkeypatch.setattr(evaluation, "calibrate_sigma", no_calibration)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    place = _board_file(tmp_path / "place.json", areas=[{"id": "A1", "cu": 0.3, "cv": 0.4, "hu": 0.05, "hv": 0.05}])
    cases = [
        (["--board", str(broken)], "error: bad board file: "),
        (["--distances", "5.0"], "error: side 5.0 m does not fit the 0.6x0.8 m plane\n"),
        (["--board", place], f"error: {place}: board 1 (custom) does not fit --kind pick\n"),
    ]
    for args, message in cases:
        out = tmp_path / "out"
        assert run_cli(["sweep", "--kind", "pick", "--calibrate", "0.03", *args, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_sweep_rerun_byte_identical(tmp_path):
    args = ["sweep", "--kind", "place", "--trials", "2", "--seed", "3", "--sizes", "0.20"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(args + ["--out", str(d1)]) == 0
    assert run_cli(args + ["--out", str(d2)]) == 0
    for name in ("place_areas_report.csv", "place_areas_report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_sweep_invalid_length_list_exits_2(tmp_path):
    assert run_cli(["sweep", "--kind", "pick", "--distances", "0.1,-0.2",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["sweep", "--kind", "pick", "--distances", "abc",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["sweep", "--kind", "pick", "--distances", "0.9",
                    "--out", str(tmp_path)]) == 2


def test_sweep_calibrate_echoes_sigma(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = run_cli(["sweep", "--kind", "pick", "--trials", "1", "--seed", "3",
                    "--distances", "0.10", "--calibrate", "0.02", "--out", str(out_dir)])
    assert code == 0
    err = capsys.readouterr().err
    assert "sigma_m=" in err
    sigma = float(err.split("sigma_m=")[1].split()[0])
    assert sigma > 0
    doc = json.loads((out_dir / "pick_square_report.json").read_text(encoding="utf-8"))
    assert doc["config"]["sigma_m"] == pytest.approx(sigma, abs=5e-7)


def test_calibrate_zero_target_prints_zero(tmp_path, capsys):
    assert run_cli(["calibrate", "--target-error", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_calibrate_unreachable_exits_1(tmp_path):
    code = run_cli(["calibrate", "--target-error", "0.005", "--aim-bias", "0.05",
                    "--samples", "2000"])
    assert code == 1


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_calibrate_samples_below_one_exits_2(capsys, samples):
    assert run_cli(["calibrate", "--target-error", "0.03", "--samples", samples]) == 2
    assert f"argument --samples: invalid positive_int value: {samples!r}" in capsys.readouterr().err


# --- registry ------------------------------------------------------------------


def test_registry_lifecycle(tmp_path, capsys):
    layout = tmp_path / "layout.json"
    assert run_cli(["registry", "init", "--file", str(layout)]) == 0
    assert run_cli(["registry", "init", "--file", str(layout)]) == 1  # refuses overwrite
    assert run_cli(["registry", "add-target", "--file", str(layout), "--id", "t1",
                    "--label", "bolt", "--group", "big", "--u", "0.2", "--v", "0.3"]) == 0
    assert run_cli(["registry", "add-area", "--file", str(layout), "--id", "a1",
                    "--cu", "0.4", "--cv", "0.5", "--hu", "0.1", "--hv", "0.1"]) == 0
    capsys.readouterr()
    assert run_cli(["registry", "list", "--file", str(layout)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["targets"][0]["id"] == "t1"
    assert doc["areas"][0]["id"] == "a1"
    before = layout.read_bytes()
    for action, flags, message in [
        ("add-target", ["--id", "t1", "--u", "0.0", "--v", "0.0"], "error: target id 't1' already registered"),
        ("add-area", ["--id", "a1", "--cu", "0", "--cv", "0", "--hu", "0.1", "--hv", "0.1"],
         "error: area id 'a1' already registered"),
        ("remove-target", ["--id", "zzz"], "error: target id 'zzz' not registered"),
        ("remove-area", ["--id", "zzz"], "error: area id 'zzz' not registered"),
    ]:
        assert run_cli(["registry", action, "--file", str(layout), *flags]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert layout.read_bytes() == before
    assert run_cli(["registry", "remove-target", "--file", str(layout), "--id", "t1"]) == 0
    assert run_cli(["registry", "remove-area", "--file", str(layout), "--id", "a1"]) == 0
    assert json.loads(layout.read_text(encoding="utf-8")) == {"targets": [], "areas": []}


def test_registry_add_target_with_an_empty_group_stores_null_so_other_edits_keep_its_bytes(tmp_path):
    """``--group ""`` means no group, as the layout reader takes it: the
    target is written with ``"group": null``, and adding another entry
    rewrites the first one's text unchanged."""
    layout = tmp_path / "layout.json"
    assert run_cli(["registry", "init", "--file", str(layout)]) == 0
    assert run_cli(["registry", "add-target", "--file", str(layout), "--id", "t1", "--group", "",
                    "--u", "0.2", "--v", "0.3"]) == 0
    first = layout.read_text(encoding="utf-8")
    assert json.loads(first)["targets"] == [{"id": "t1", "label": "t1", "group": None, "u": 0.2, "v": 0.3}]
    assert run_cli(["registry", "add-target", "--file", str(layout), "--id", "t2", "--u", "0.4", "--v", "0.5"]) == 0
    entry = first[first.index("    {"):first.index("    }") + 5]  # t1's text
    assert '"group": null' in entry and entry in layout.read_text(encoding="utf-8")


def test_registry_missing_flags_exit_2(tmp_path):
    layout = tmp_path / "layout.json"
    run_cli(["registry", "init", "--file", str(layout)])
    assert run_cli(["registry", "add-target", "--file", str(layout), "--id", "t1"]) == 2


def test_registry_malformed_file_exits_2(tmp_path):
    layout = tmp_path / "layout.json"
    layout.write_text("{broken", encoding="utf-8")
    assert run_cli(["registry", "list", "--file", str(layout)]) == 2


@pytest.mark.parametrize("doc", [{"targets": 5}, {"areas": 5}, {"targets": {"id": "t"}}])
def test_registry_layout_without_lists_exits_2(tmp_path, capsys, doc):
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["registry", "list", "--file", str(layout)]) == 2
    assert "must be lists" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--hu", "0"), ("--hv", "0"), ("--hu", "-0.1")])
def test_registry_add_area_with_bad_half_extent_exits_2(tmp_path, flag, value):
    layout = tmp_path / "layout.json"
    run_cli(["registry", "init", "--file", str(layout)])
    before = layout.read_bytes()
    argv = ["registry", "add-area", "--file", str(layout), "--id", "a",
            "--cu", "0.1", "--cv", "0.1", "--hu", "0.1", "--hv", "0.1"]
    assert run_cli(argv + [f"{flag}={value}"]) == 2
    assert layout.read_bytes() == before


# --- each range check on outside input is made once, by the reader that reads it --

_BAD_HEADERS = {
    "fx-0": ({"fx": 0}, "bad intrinsics header: focal lengths must be positive, got fx=0.0, fy=600.0"),
    "cx-outside": ({"cx": 700}, "bad intrinsics header: principal point (700.0, 240.0) outside 640x480 image"),
}


@pytest.mark.parametrize("case", sorted(_BAD_HEADERS))
def test_bad_intrinsics_header_message_in_live_replay_and_define_plane(tmp_path, capsys, case):
    change, message = _BAD_HEADERS[case]
    header = {"intrinsics": {**INTRINSICS, **change}}
    plane = str(make_plane_file(tmp_path / "plane.json"))
    session = LiveSession(PipelineSettings(*load_plane_file(plane)[:2]), TargetRegistry(), AreaRegistry())
    assert session.handle_line(json.dumps(header)) == [json.dumps({"err": message})]
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps(header) + "\n", encoding="utf-8")
    assert run_cli(["replay", "--plane", plane, "--stream", str(stream), "--out", str(tmp_path / "o.jsonl")]) == 0
    assert capsys.readouterr().err == f"warning: line 1: {message}\nframes=0 points=0 warnings=1\n"
    corners = tmp_path / "corners.json"
    corners.write_text(json.dumps({**header, "corners": [{"px": 1, "py": 1, "depth": 1}] * 3}), encoding="utf-8")
    assert run_cli(["define-plane", "--corners", str(corners), "--out", str(tmp_path / "p.json")]) == 2
    assert capsys.readouterr().err == f"error: {corners}: {message}\n"


@pytest.mark.parametrize("x, message", [(0.3, "confidence 1.5 outside [0, 1]"),
                                        ("a", "joint 'right_wrist': expected a finite JSON number, got 'a'")],
                         ids=["confidence", "position-first"])
def test_joint_confidence_outside_0_1_message_in_live_and_replay(tmp_path, capsys, x, message):
    record = wrist_frame("c", 1.5)
    record["joints"]["right_wrist"]["x"] = x
    plane = str(make_plane_file(tmp_path / "plane.json"))
    session = LiveSession(PipelineSettings(*load_plane_file(plane)[:2]), TargetRegistry(), AreaRegistry())
    assert session.handle_line(json.dumps(record)) == [json.dumps({"err": message})]
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run_cli(["replay", "--plane", plane, "--stream", str(stream), "--out", str(tmp_path / "o.jsonl")]) == 0
    assert capsys.readouterr().err == f"warning: line 1: {message}\nframes=0 points=0 warnings=1\n"


def test_area_half_extent_0_message_for_every_layout_reader_and_registry_add_area(tmp_path, capsys):
    message = "area 'a1' half_extent must be positive and finite, got (0.0, 0.1)"
    area = {"id": "a1", "cu": 0.3, "cv": 0.4, "hu": 0, "hv": 0.1}
    layout, empty = tmp_path / "layout.json", tmp_path / "empty.json"
    layout.write_text(json.dumps({"areas": [area]}), encoding="utf-8")
    empty.write_text(json.dumps({}), encoding="utf-8")
    board = _board_file(tmp_path / "board.json", areas=[area])
    plane = str(make_plane_file(tmp_path / "plane.json"))
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(_generated_lines(tmp_path)) + "\n", encoding="utf-8")
    capsys.readouterr()
    cases = [
        (["replay", "--plane", plane, "--stream", str(stream), "--out", str(tmp_path / "o.jsonl"),
          "--snap", "place", "--registry", str(layout)], message),
        (["live", "--plane", plane, "--registry", str(layout)], message),
        (["registry", "list", "--file", str(layout)], message),
        (["sweep", "--kind", "place", "--trials", "1", "--board", board, "--out", str(tmp_path / "out")],
         f"bad board file: {board}: board 1 (custom): {message}"),
        (["registry", "add-area", "--file", str(empty), "--id", "a1",
          "--cu", "0.3", "--cv", "0.4", "--hu", "0", "--hv", "0.1"], message),
    ]
    for argv, err in cases:
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not (tmp_path / "o.jsonl").exists() and not (tmp_path / "out").exists()
    assert json.loads(empty.read_text(encoding="utf-8")) == {}


def test_sweep_place_size_whose_half_rounds_to_0_exits_2(tmp_path, capsys):
    """5e-324 m passes the length list, but its half, each area's half
    extent, is 0: a bad flag value, not a runtime failure."""
    out = tmp_path / "out"
    assert run_cli(["sweep", "--kind", "place", "--sizes", "5e-324", "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: place_areas needs a side length whose half is above 0, got 5e-324\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_replay_empty_group_filters_nothing(tmp_path, monkeypatch, source):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", target="0.2, 0.3, 0.0", count=30)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    registry = tmp_path / "layout.json"
    registry.write_text(json.dumps({"targets": [{"id": "goal", "group": "left", "u": 0.2, "v": 0.3},
                                                {"id": "decoy", "u": 0.5, "v": 0.6}]}), encoding="utf-8")
    base = ["replay", "--plane", str(plane), "--stream", str(stream), "--snap", "pick", "--registry", str(registry)]
    assert run_cli(base + ["--out", str(tmp_path / "none.jsonl")]) == 0
    if source == "flag":
        base += ["--group", ""]
    else:
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("group =\n", encoding="utf-8")
        monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(base + ["--out", str(tmp_path / "empty.jsonl")]) == 0
    snaps = [r["snap"] for r in read_jsonl(tmp_path / "empty.jsonl") if "snap" in r]
    assert snaps == [{"ok": True, "id": "goal", "fallback": False}] * 2
    assert (tmp_path / "empty.jsonl").read_bytes() == (tmp_path / "none.jsonl").read_bytes()


# --- env config ------------------------------------------------------------------


def test_env_config_supplies_defaults(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("target_error = 0\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    # --target-error is required by argparse, so pass it explicitly but let the
    # env file cover an optional flag instead
    cfg.write_text("samples = 2000\nseed = 4\n", encoding="utf-8")
    assert run_cli(["calibrate", "--target-error", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_calibrate_ignores_env_config_n_beyond_trial_frames(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "defaults.cfg"
    # calibrate has no snap flags, so neither key is read, not even a bad threshold
    cfg.write_text("n = 40\nthreshold = nan\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(["calibrate", "--target-error", "0.03", "--samples", "2000"]) == 0
    assert float(capsys.readouterr().out) > 0


@pytest.mark.parametrize("flag", ["--n=5", "--threshold=0.03"])
def test_calibrate_takes_no_snap_flags(capsys, flag):
    assert run_cli(["calibrate", "--target-error", "0", flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_env_config_flags_override(tmp_path, monkeypatch):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=6)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"plane = {tmp_path / 'nonexistent.json'}\nhand = left\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    # the explicit --plane flag wins over the bad env value
    out = tmp_path / "o.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
    # without the flag, the env default is used and fails as a config error
    assert run_cli(["replay", "--stream", str(stream), "--out", str(out)]) == 2


def test_env_config_hand_applies(tmp_path, monkeypatch):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=6)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("hand = left\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    out = tmp_path / "o.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""  # stream is right-handed, config says left


@pytest.mark.parametrize("key,choice", [("hand", "left"), ("pair", "elbow-wrist"),
                                        ("frame", "camera"), ("snap", "pick")])
def test_env_config_key_outside_its_choices_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                      capsys, key, choice):
    argv = _float_flag_commands(tmp_path)["replay"]
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"registry = {tmp_path / 'layout.json'}\n{key} = banana\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    for flags in ([], [f"--{key}", choice]):  # a valid flag does not excuse the file
        assert run_cli(argv + flags) == 2
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_env_config_overrides_a_flag_default_and_the_flag_overrides_it(tmp_path, monkeypatch):
    corners = write_corner_file(tmp_path / "corners.json", desk_corners())
    out = tmp_path / "plane.json"
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("origin_corner = 2\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    argv = ["define-plane", "--corners", str(corners), "--out", str(out)]
    assert run_cli(argv) == 0
    assert load_plane_file(str(out))[2:] == (2, 1)
    assert run_cli(argv + ["--origin-corner", "0"]) == 0
    assert load_plane_file(str(out))[2:] == (0, 1)


_COMMAND_PARSERS = build_parser().get_default("commands")


# any text, plus every option's choices and numbers of any size, as text
_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(sorted({c for command in _COMMAND_PARSERS.values()
                            for action in command._actions for c in action.choices or ()})),
    st.integers().map(str),
    st.floats().map(repr),
)


def _option_keys(command: str) -> list[str]:
    return sorted({action.dest for action in _COMMAND_PARSERS[command]._actions})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_env_config_fuzz_any_key_and_value_exits_cleanly(tmp_path, monkeypatch, data):
    """Any option key of the subcommand, with any text, ends in exit 0, 1 or 2."""
    layout = tmp_path / "layout.json"
    save_layout(layout, [], [])
    if not (tmp_path / "stream.jsonl").exists():
        write_corner_file(tmp_path / "corners.json", desk_corners())
        make_plane_file(tmp_path / "plane.json")
        (tmp_path / "stream.jsonl").write_text(json.dumps(wrist_frame("c", 0.9)) + "\n",
                                               encoding="utf-8")
    argv = data.draw(st.sampled_from([
        ["replay", "--plane", str(tmp_path / "plane.json"), "--stream", str(tmp_path / "stream.jsonl"),
         "--out", str(tmp_path / "o.jsonl")],
        ["define-plane", "--corners", str(tmp_path / "corners.json"), "--out", str(tmp_path / "p.json")],
        ["registry", "list", "--file", str(layout)],
        ["registry", "add-target", "--file", str(layout)],
    ]))
    entries = data.draw(st.lists(st.tuples(st.sampled_from(_option_keys(argv[0])),
                                           _CONFIG_VALUES), min_size=1, max_size=3))
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries), encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(argv) in (0, 1, 2)


_REGISTRY_FLOAT_KEYS = {"add-target": ("u", "v"), "add-area": ("cu", "cv", "hu", "hv")}


@pytest.mark.parametrize("action", sorted(_REGISTRY_FLOAT_KEYS))
def test_env_config_registry_float_keys_apply(tmp_path, monkeypatch, action):
    layout = tmp_path / "layout.json"
    run_cli(["registry", "init", "--file", str(layout)])
    keys = _REGISTRY_FLOAT_KEYS[action]
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{key} = 0.1\n" for key in keys), encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(["registry", action, "--file", str(layout), "--id", "e1"]) == 0
    doc = json.loads(layout.read_text(encoding="utf-8"))
    (entry,) = doc["targets"] if action == "add-target" else doc["areas"]
    assert {key: entry[key] for key in keys} == dict.fromkeys(keys, 0.1)


@non_finite
@pytest.mark.parametrize("key", [k for keys in _REGISTRY_FLOAT_KEYS.values() for k in keys])
def test_env_config_registry_key_with_non_finite_value_exits_2(tmp_path, monkeypatch, capsys, key, bad):
    layout = tmp_path / "layout.json"
    run_cli(["registry", "init", "--file", str(layout)])
    before = layout.read_bytes()
    action = next(a for a, keys in _REGISTRY_FLOAT_KEYS.items() if key in keys)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{k} = {bad if k == key else 0.1!r}\n"
                           for k in _REGISTRY_FLOAT_KEYS[action]), encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(["registry", action, "--file", str(layout), "--id", "e1"]) == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    assert layout.read_bytes() == before


# --- usage errors ------------------------------------------------------------------


def test_nonpositive_numeric_params_exit_2(tmp_path):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=5)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    base = ["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(tmp_path / "o.jsonl")]
    assert run_cli(base + ["--n", "0"]) == 2
    assert run_cli(base + ["--threshold", "-0.01"]) == 2
    assert run_cli(base + ["--min-confidence", "1.5"]) == 2
    assert run_cli(base + ["--window", str(2**63)]) == 2  # beyond what a deque can hold
    assert run_cli(["sweep", "--kind", "pick", "--trials", "0", "--out", str(tmp_path)]) == 2


# Each range is its flag's type, so a value outside it fails where it enters,
# named by its flag (argv) or its key (config file), before the command reads
# any file. Per value: its command, flag, text, and the type's message from
# argv and from the file (a ValueError reads "invalid <type> value" in argv).
_OUT_OF_RANGE = [
    ("replay", "--n", "0", "must be in 1..256, got 0", None),
    ("replay", "--n", "257", "must be in 1..256, got 257", None),
    ("replay", "--window", "0", f"must be in 1..{sys.maxsize}, got 0", None),
    ("replay", "--window", str(2**63), f"must be in 1..{sys.maxsize}, got {2**63}", None),
    ("replay", "--threshold", "0", "must be > 0, got 0.0", None),
    ("live", "--min-confidence", "1.5", "must be in [0, 1], got 1.5", None),
    ("live", "--listen", "127.0.0.1:99999", "bad port '99999'", None),
    ("live", "--listen", "localhost", "expects HOST:PORT, got 'localhost'", None),
    ("sweep", "--trials", "0", "invalid positive_int value: '0'", "expected an integer >= 1, got '0'"),
    ("sweep", "--distances", "0.1,-0.2", "length list must hold positive sizes, got '0.1,-0.2'", None),
    ("sweep", "--sizes", "0.1,x", "bad length list '0.1,x': expected a plain decimal number, got 'x'", None),
    ("sweep", "--n", "0", "invalid positive_int value: '0'", "expected an integer >= 1, got '0'"),
    ("sweep", "--threshold", "0", "invalid positive_float value: '0'", "expected a number > 0, got '0'"),
    ("calibrate", "--samples", "0", "invalid positive_int value: '0'", "expected an integer >= 1, got '0'"),
]
_OUT_OF_RANGE_IDS = [f"{command}{flag}={value}" for command, flag, value, *_ in _OUT_OF_RANGE]


def _missing_input_commands(tmp_path) -> dict[str, list[str]]:
    """Each command of ``_OUT_OF_RANGE`` with every file it would read missing."""
    missing, out = str(tmp_path / "missing.json"), str(tmp_path / "out")
    return {"replay": ["replay", "--plane", missing, "--stream", missing, "--out", out],
            "live": ["live", "--plane", missing, "--registry", missing],
            "sweep": ["sweep", "--kind", "pick", "--scenario", missing, "--board", missing, "--out", out],
            "calibrate": ["calibrate", "--target-error", "0.02", "--scenario", missing]}


@pytest.mark.parametrize("command, flag, value, message, _", _OUT_OF_RANGE, ids=_OUT_OF_RANGE_IDS)
def test_out_of_range_flag_exits_2_naming_the_flag_before_any_file_is_read(tmp_path, monkeypatch, capsys,
                                                                           command, flag, value, message, _):
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    assert run_cli(_missing_input_commands(tmp_path)[command] + [f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f": error: argument {flag}: {message}\n"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value, message, from_file", _OUT_OF_RANGE, ids=_OUT_OF_RANGE_IDS)
def test_env_config_out_of_range_value_exits_2_as_a_bad_value_for_its_key(tmp_path, monkeypatch, capsys,
                                                                          command, flag, value, message, from_file):
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(_missing_input_commands(tmp_path)[command]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: bad value for {key}: {from_file or message}\n"
    assert not (tmp_path / "out").exists()


def test_listen_type_reads_host_and_port_and_defaults_to_loopback():
    def listen(*flags: str):
        return build_parser(["live"]).parse_args(["live", *flags]).listen

    assert listen("--listen", "0.0.0.0:8080") == ("0.0.0.0", 8080)
    assert listen("--listen", ":0") == ("127.0.0.1", 0)
    assert listen() == ("127.0.0.1", 0)  # argparse runs the string default through the type


def test_no_command_prints_usage():
    assert run_cli([]) == 2


def test_unknown_flag_exits_2():
    assert run_cli(["sweep", "--kind", "pick", "--bogus-flag", "1"]) == 2


EXIT_CODES = [
    (ConfigError, 2), (GeometryError, 2), (StreamError, 2), (MalformedRecordError, 2),
    (MalformedFileError, 2), (InvalidParametersError, 2),
    (SnapError, 1), (DuplicateIdError, 1), (EvalError, 1), (OSError, 1), (RuntimeError, 1),
]


@pytest.mark.parametrize("error, code", EXIT_CODES, ids=[error.__name__ for error, _ in EXIT_CODES])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code):
    """Input faults exit 2 and failed runs 1, each printing its message; a
    MalformedFileError (a SnapError) and an InvalidParametersError (an
    EvalError) exit 2 although their bases exit 1."""
    def fail(args):
        raise error("the reason")

    monkeypatch.setattr("gesturepoint.offline.cmd_calibrate", fail)
    assert run_cli(["calibrate", "--target-error", "0.01"]) == code
    assert capsys.readouterr().err == "error: the reason\n"


@pytest.mark.parametrize("error, code", EXIT_CODES, ids=[error.__name__ for error, _ in EXIT_CODES])
def test_each_error_class_exits_with_its_code_from_a_cli_command(monkeypatch, capsys, error, code):
    """The same codes from replay, which ``cli`` holds itself, as from
    calibrate, which it imports from ``offline``: both paths map alike."""
    def fail(args):
        raise error("the reason")

    monkeypatch.setattr("gesturepoint.cli.cmd_replay", fail)
    assert run_cli(["replay", "--stream", "s.jsonl", "--out", "o.jsonl"]) == code
    assert capsys.readouterr().err == "error: the reason\n"


def test_version_flag():
    assert run_cli(["--version"]) == 0


# sha256 (first 16 hex digits) of "{code}\n{stdout}\0{stderr}" at 80 columns,
# taken before the parser built only the chosen command's flags
_CLI_TEXTS = {
    "help": (["--help"], "46eecb3688535dcd"),
    "define-plane-help": (["define-plane", "--help"], "01b8ebc9a483ff88"),
    "generate-help": (["generate", "--help"], "73f4d0e7fa7c4e5b"),
    "replay-help": (["replay", "--help"], "1c1e43eb1ba3ea8d"),
    "live-help": (["live", "--help"], "d61a4398a837b257"),
    "sweep-help": (["sweep", "--help"], "80857a9cb388529b"),
    "calibrate-help": (["calibrate", "--help"], "cfd44f826f729c93"),
    "registry-help": (["registry", "--help"], "bb2a223631fc71d2"),
    "no-command": ([], "d9a0176d080afd2d"),
    "bogus": (["bogus"], "9a5f4041c9c57ad2"),
    "sweep-without-kind": (["sweep"], "957442732e10a414"),
    "replay-extra": (["replay", "--plane", "p.json", "--stream", "s", "--out", "o", "extra"], "c581418a0b07193e"),
    "version": (["--version"], "5a2fff76d45e5ee3"),
}


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="argparse's text is pinned for CPython 3.11")
@pytest.mark.parametrize("case", sorted(_CLI_TEXTS))
def test_help_usage_and_version_text_keep_their_bytes(monkeypatch, capsys, case):
    argv, digest = _CLI_TEXTS[case]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GESTURE_POINTER_CONFIG", raising=False)
    code = run_cli(argv)
    out, err = capsys.readouterr()
    text = f"{code}\n{out}\0{err}"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, text


def test_package_all_names_resolve():
    assert [name for name in gesturepoint.__all__ if not hasattr(gesturepoint, name)] == []


# --- input boundaries: NaN and infinities exit 2 where they enter ------------------


class _NoServer:
    """Stands in for LiveServer: `live` must exit before it would serve."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("live got past its input checks")


@pytest.mark.parametrize("port", ["99999", "-1", "x", "9" * 5000, "\u0668\u0660"],
                         ids=["99999", "-1", "x", "5000-digits", "arabic-indic-80"])
def test_live_port_outside_0_to_65535_exits_2(tmp_path, monkeypatch, capsys, port):
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    plane = make_plane_file(tmp_path / "plane.json")
    assert run_cli(["live", "--plane", str(plane), f"--listen=127.0.0.1:{port}"]) == 2
    assert f"bad port {port!r}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config-nul", "flag-idna"])
def test_live_listen_host_the_socket_cannot_encode_exits_2(tmp_path, monkeypatch, capsys, source):
    """A NUL (only a config file can carry one) or a host IDNA cannot encode
    fails before any name lookup, as a usage error."""
    plane = make_plane_file(tmp_path / "plane.json")
    argv = ["live", "--plane", str(plane)]
    if source == "config-nul":
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("listen = a\0b:0\n", encoding="utf-8")
        monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    else:
        argv.append("--listen=" + "\u00e4" * 300 + ":0")
    assert run_cli(argv) == 2
    assert "bad --listen host" in capsys.readouterr().err


def _generated_lines(tmp_path, count=6) -> list[str]:
    stream = tmp_path / "generated.jsonl"
    run_cli(["generate", "--scenario", str(write_scenario_file(tmp_path / "s.cfg", count=count)),
             "--out", str(stream)])
    return stream.read_text(encoding="utf-8").splitlines()


@non_finite
@pytest.mark.parametrize("field", ("t",) + JOINT_FIELDS + tuple(sorted(INTRINSICS)))
def test_replay_counts_non_finite_stream_value_as_one_warning(tmp_path, capsys, field, bad):
    _replay_counts_one_warning(tmp_path, capsys, field, bad)


@pytest.mark.parametrize("field, bad", [("t", "0.5"), ("c", True), ("x", "0.1"), ("width", 640.5), ("fx", "300")],
                         ids=["t-text", "c-bool", "x-text", "width-fraction", "fx-text"])
def test_replay_counts_a_stream_value_that_is_no_json_number_as_one_warning(tmp_path, capsys, field, bad):
    _replay_counts_one_warning(tmp_path, capsys, field, bad)


def _replay_counts_one_warning(tmp_path, capsys, field, bad) -> None:
    """``bad`` in one frame's ``field``, or in the header's intrinsics, is one
    malformed line of a 6-frame replay."""
    plane = make_plane_file(tmp_path / "plane.json")
    header = {"intrinsics": dict(INTRINSICS)}
    lines = _generated_lines(tmp_path)
    if field in INTRINSICS:
        header["intrinsics"][field] = bad  # a bad header line is one malformed line
    else:
        lines.insert(3, json.dumps(wrist_frame(field, bad)))
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join([json.dumps(header)] + lines) + "\n", encoding="utf-8")
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream),
                    "--out", str(tmp_path / "o.jsonl")]) == 0
    assert "frames=6 points=6 warnings=1" in capsys.readouterr().err


def _set_plane_value(doc: dict, field: str, bad: float) -> None:
    if field == "d":
        doc["d"] = bad
    elif field == "normal":
        doc["normal"][0] = bad
    else:
        doc["corners"][2][1] = bad


@non_finite
@pytest.mark.parametrize("command", ["replay", "live"])
@pytest.mark.parametrize("field", ["normal", "d", "corners"])
def test_plane_file_with_non_finite_value_exits_2(tmp_path, monkeypatch, command, field, bad):
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    plane = make_plane_file(tmp_path / "plane.json")
    doc = json.loads(plane.read_text(encoding="utf-8"))
    _set_plane_value(doc, field, bad)
    plane.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--plane", str(plane)]
    if command == "replay":
        stream = tmp_path / "stream.jsonl"
        stream.write_text("\n".join(_generated_lines(tmp_path)) + "\n", encoding="utf-8")
        argv += ["--stream", str(stream), "--out", str(tmp_path / "o.jsonl")]
    assert run_cli(argv) == 2


@pytest.mark.parametrize("command", ["replay", "live"])
def test_plane_file_beyond_coordinate_bound_exits_2(tmp_path, monkeypatch, capsys, command):
    """Corners at 1e200 m once overflowed the bounds test of the first frame."""
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({
        "normal": [0.0, 0.0, 1.0], "d": 0.0,
        "corners": [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [1e200, 1e200, 0.0], [0.0, 1e200, 0.0]],
    }), encoding="utf-8")
    argv = [command, "--plane", str(plane)]
    if command == "replay":
        stream = tmp_path / "stream.jsonl"
        stream.write_text(_generated_lines(tmp_path, count=1)[0] + "\n", encoding="utf-8")
        argv += ["--stream", str(stream), "--out", str(tmp_path / "o.jsonl")]
    assert run_cli(argv) == 2
    assert "1e+06" in capsys.readouterr().err


@non_finite
@pytest.mark.parametrize("field", ["x", "y", "z", "px", "py", "depth"])
def test_corner_file_with_non_finite_value_exits_2(tmp_path, field, bad):
    if field in ("px", "py", "depth"):
        corners = [{"px": px, "py": py, "depth": 1.0} for px, py in ((100, 100), (500, 100), (500, 400))]
    else:
        corners = [{"x": c.x, "y": c.y, "z": c.z} for c in desk_corners()]
    corners[1][field] = bad
    path = tmp_path / "corners.json"
    path.write_text(json.dumps({"corners": corners, "intrinsics": INTRINSICS}), encoding="utf-8")
    out = tmp_path / "p.json"
    assert run_cli(["define-plane", "--corners", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@non_finite
def test_viewpoint_with_non_finite_value_exits_2(tmp_path, bad):
    corners = write_corner_file(tmp_path / "corners.json", desk_corners())
    out = tmp_path / "p.json"
    assert run_cli(["define-plane", "--corners", str(corners), "--out", str(out),
                    f"--viewpoint=0, {bad!r}, 1"]) == 2
    assert not out.exists()


_SCENARIO = {
    "plane_corner_1": "0, 0, 0", "plane_corner_2": "0.6, 0, 0", "plane_corner_3": "0.6, 0.8, 0",
    "plane_corner_4": "0, 0.8, 0", "shoulder": "0.3, -0.1, 0.6", "target": "0.3, 0.4, 0",
    "sigma": "0.01", "arm_length": "0.55", "frame_rate": "30", "seed": "1", "count": "5",
}


@non_finite
@pytest.mark.parametrize("command", ["generate", "sweep", "calibrate"])
@pytest.mark.parametrize("key", [k for k in _SCENARIO if k not in ("seed", "count")])
def test_scenario_with_non_finite_value_exits_2(tmp_path, command, key, bad):
    values = dict(_SCENARIO)
    parts = values[key].split(", ")
    parts[len(parts) // 2] = repr(bad)  # the middle number of a triplet
    values[key] = ", ".join(parts)
    scenario = tmp_path / "s.cfg"
    scenario.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--scenario", str(scenario), "--out", str(out)],
        "sweep": ["sweep", "--kind", "pick", "--scenario", str(scenario), "--trials", "1",
                  "--distances", "0.2", "--out", str(out)],
        "calibrate": ["calibrate", "--target-error", "0.02", "--scenario", str(scenario),
                      "--samples", "200"],
    }[command]
    assert run_cli(argv) == 2
    assert not out.exists()


_LAYOUT_TARGET = {"id": "t1", "label": "t1", "u": 0.2, "v": 0.3}
_LAYOUT_AREA = {"id": "a1", "cu": 0.3, "cv": 0.4, "hu": 0.1, "hv": 0.1}


@non_finite
@pytest.mark.parametrize("command", ["replay", "live", "registry"])
@pytest.mark.parametrize("field", ["u", "v", "cu", "cv", "hu", "hv"])
def test_layout_with_non_finite_value_exits_2(tmp_path, monkeypatch, command, field, bad):
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    target, area = dict(_LAYOUT_TARGET), dict(_LAYOUT_AREA)
    (target if field in target else area)[field] = bad
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"targets": [target], "areas": [area]}), encoding="utf-8")
    plane = make_plane_file(tmp_path / "plane.json")
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(_generated_lines(tmp_path)) + "\n", encoding="utf-8")
    argv = {
        "replay": ["replay", "--plane", str(plane), "--stream", str(stream),
                   "--out", str(tmp_path / "o.jsonl"), "--snap", "pick", "--registry", str(layout)],
        "live": ["live", "--plane", str(plane), "--registry", str(layout)],
        "registry": ["registry", "list", "--file", str(layout)],
    }[command]
    assert run_cli(argv) == 2


@non_finite
@pytest.mark.parametrize("field", ["u", "v", "cu", "cv", "hu", "hv", "l_m", "plane_size_m"])
def test_board_file_with_non_finite_value_exits_2(tmp_path, capsys, field, bad):
    meta = {"kind": "custom", "l_m": 0.2, "plane_size_m": [0.6, 0.8]}
    target, area = dict(_LAYOUT_TARGET), dict(_LAYOUT_AREA)
    if field in target:
        target[field] = bad
    elif field in area:
        area[field] = bad
    elif field == "l_m":
        meta["l_m"] = bad
    else:
        meta["plane_size_m"][1] = bad
    kind = "place" if field in area else "pick"
    board = {"board": meta, "targets": [] if kind == "place" else [target],
             "areas": [area] if kind == "place" else []}
    path = tmp_path / "boards.json"
    path.write_text(json.dumps({"boards": [board]}), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["sweep", "--kind", kind, "--trials", "1", "--board", str(path),
                    "--out", str(out)]) == 2
    assert "board" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "meta",
    [{"l_m": "x"}, {"l_m": True}, {"l_m": 0}, {"plane_size_m": "abc"}, {"plane_size_m": [0.6]},
     {"plane_size_m": [0.6, -0.8]}, {"plane_size_m": [0.6, None]}],
    ids=["l_text", "l_bool", "l_zero", "size_text", "size_one", "size_negative", "size_null"],
)
def test_board_file_with_bad_metadata_exits_2(tmp_path, capsys, meta):
    board = {"board": dict({"kind": "custom"}, **meta), "targets": [_LAYOUT_TARGET], "areas": []}
    path = tmp_path / "boards.json"
    path.write_text(json.dumps({"boards": [board]}), encoding="utf-8")
    with pytest.raises(EvalError, match="board 1: (l_m|plane_size_m) of a 'custom' board"):
        load_boards(path)
    assert run_cli(["sweep", "--kind", "pick", "--trials", "1", "--board", str(path),
                    "--out", str(tmp_path / "out")]) == 2
    assert "board 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["corners", "plane", "layout", "board"])
def test_input_file_with_overlong_integer_exits_2(tmp_path, kind):
    plane = make_plane_file(tmp_path / "plane.json")
    out = str(tmp_path / "out")
    doc, argv = {
        "corners": ({"corners": [{"x": "HUGE", "y": 0, "z": 0}, {"x": 1, "y": 0, "z": 0}, {"x": 1, "y": 1, "z": 0}]},
                    ["define-plane", "--out", out, "--corners"]),
        "plane": (dict(json.loads(plane.read_text(encoding="utf-8")), d="HUGE"),
                  ["replay", "--stream", str(plane), "--out", out, "--plane"]),
        "layout": ({"targets": [{"id": "t", "u": "HUGE", "v": 0}]}, ["registry", "list", "--file"]),
        "board": ({"board": {"l_m": "HUGE"}, "targets": [_LAYOUT_TARGET]},
                  ["sweep", "--kind", "pick", "--trials", "1", "--out", out, "--board"]),
    }[kind]
    path = tmp_path / "input.json"
    # a JSON integer no float can hold
    path.write_text(json.dumps(doc).replace('"HUGE"', "9" * 400), encoding="utf-8")
    assert run_cli(argv + [str(path)]) == 2
    assert not (tmp_path / "out").exists()


def _float_flag_commands(tmp_path) -> dict[str, list[str]]:
    plane = make_plane_file(tmp_path / "plane.json")
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(_generated_lines(tmp_path)) + "\n", encoding="utf-8")
    layout = tmp_path / "layout.json"
    save_layout(layout, [], [])
    out = str(tmp_path / "out")
    return {
        "replay": ["replay", "--plane", str(plane), "--stream", str(stream), "--out", out],
        "live": ["live", "--plane", str(plane)],
        "sweep": ["sweep", "--kind", "pick", "--trials", "1", "--distances", "0.2", "--out", out],
        "calibrate": ["calibrate", "--target-error", "0.02", "--samples", "200"],
        "add-target": ["registry", "add-target", "--file", str(layout), "--id", "t",
                       "--u", "0.1", "--v", "0.1"],
        "add-area": ["registry", "add-area", "--file", str(layout), "--id", "a",
                     "--cu", "0.1", "--cv", "0.1", "--hu", "0.1", "--hv", "0.1"],
    }


@non_finite
@pytest.mark.parametrize("command,flag", [
    ("replay", "--min-confidence"), ("replay", "--threshold"),
    ("live", "--min-confidence"), ("live", "--threshold"),
    ("sweep", "--sigma"), ("sweep", "--aim-bias"), ("sweep", "--calibrate"), ("sweep", "--threshold"),
    ("sweep", "--distances"), ("sweep", "--sizes"),
    ("calibrate", "--target-error"), ("calibrate", "--aim-bias"),
    ("add-target", "--u"), ("add-target", "--v"),
    ("add-area", "--cu"), ("add-area", "--cv"), ("add-area", "--hu"), ("add-area", "--hv"),
])
def test_float_flag_with_non_finite_value_exits_2(tmp_path, monkeypatch, command, flag, bad):
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    argv = _float_flag_commands(tmp_path)[command]
    if flag == "--sizes":
        argv[argv.index("pick")] = "place"
    # "=" keeps argparse from reading "-inf" as an option; the last occurrence wins
    value = f"0.2,{bad!r}" if flag in ("--distances", "--sizes") else repr(bad)
    before = (tmp_path / "layout.json").read_bytes()
    assert run_cli(argv + [f"{flag}={value}"]) == 2
    assert (tmp_path / "layout.json").read_bytes() == before
    assert not (tmp_path / "out").exists()


@non_finite
@pytest.mark.parametrize("key", ["threshold", "min_confidence", "sigma", "calibrate", "aim_bias"])
def test_env_config_float_key_with_non_finite_value_exits_2(tmp_path, monkeypatch, capsys, key, bad):
    # target_error, the last float key, can only come from its required flag
    commands = _float_flag_commands(tmp_path)
    argv = {"threshold": commands["sweep"], "min_confidence": commands["replay"],
            "sigma": commands["sweep"], "calibrate": commands["sweep"],
            "aim_bias": commands["calibrate"]}[key]
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"{key} = {bad!r}\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(argv) == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# text numbers that are no plain ASCII decimal: each was read as the number
# Python's int() or float() makes of it
_NOT_PLAIN = {"underscore": lambda v: "0_" + v,
              "arabic-indic": lambda v: v.translate({ord(d): 0x660 + int(d) for d in "0123456789"})}


@pytest.mark.parametrize("form", sorted(_NOT_PLAIN))
@pytest.mark.parametrize("command, flag, value", [
    ("replay", "--n", "5"), ("replay", "--window", "3"), ("replay", "--min-confidence", "0.3"),
    ("live", "--n", "5"), ("live", "--window", "3"), ("live", "--threshold", "0.03"),
    ("define-plane", "--origin-corner", "2"), ("define-plane", "--x-corner", "3"),
    ("generate", "--count", "5"), ("generate", "--seed", "7"),
    ("sweep", "--trials", "1"), ("sweep", "--n", "5"), ("sweep", "--seed", "3"), ("sweep", "--sigma", "0.01"),
    ("calibrate", "--samples", "200"), ("calibrate", "--seed", "3"),
    ("add-target", "--u", "0.2"),
])
def test_flag_number_that_is_no_plain_decimal_exits_2(tmp_path, monkeypatch, command, flag, value, form):
    monkeypatch.setattr("gesturepoint.live.LiveServer", _NoServer)
    out = str(tmp_path / "out")
    argv = dict(_float_flag_commands(tmp_path), **{
        "define-plane": ["define-plane", "--corners", str(write_corner_file(tmp_path / "c.json", desk_corners())),
                         "--out", out],
        "generate": ["generate", "--scenario", str(write_scenario_file(tmp_path / "s.cfg")), "--out", out],
    })[command]
    before = (tmp_path / "layout.json").read_bytes()
    assert run_cli(argv + [f"{flag}={_NOT_PLAIN[form](value)}"]) == 2
    assert (tmp_path / "layout.json").read_bytes() == before
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("form", sorted(_NOT_PLAIN))
@pytest.mark.parametrize("source, key, value", [
    ("config", "seed", "3"), ("config", "trials", "1"), ("config", "sigma", "0.01"),
    ("scenario", "sigma", "0.01"), ("scenario", "seed", "1"), ("scenario", "count", "5"),
    ("scenario", "target", "0.3"),
])
def test_file_number_that_is_no_plain_decimal_exits_2(tmp_path, monkeypatch, source, key, value, form):
    """A ``GESTURE_POINTER_CONFIG`` value goes through its flag's type; a
    scenario value (a triplet's first number for ``target``) through the
    scenario reader."""
    out = tmp_path / "out"
    argv = ["sweep", "--kind", "pick", "--trials", "1", "--distances", "0.2", "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text(f"{key} = {_NOT_PLAIN[form](value)}\n", encoding="utf-8")
        monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    else:
        values = dict(_SCENARIO)
        values[key] = _NOT_PLAIN[form](value) + values[key][len(value):]
        scenario = tmp_path / "s.cfg"
        scenario.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        argv = ["generate", "--scenario", str(scenario), "--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()


# --- replay reads its stream line by line -------------------------------------------


def test_replay_streams_crlf_file_with_unchanged_line_numbers(tmp_path, capsys):
    plane = make_plane_file(tmp_path / "plane.json")
    lines = _generated_lines(tmp_path)
    lines.insert(3, "{broken json")
    outputs = []
    for newline in ("\n", "\r\n"):
        stream = tmp_path / "stream.jsonl"
        stream.write_bytes(newline.join(lines + [""]).encode("utf-8"))
        out = tmp_path / "o.jsonl"
        assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning: line 4: invalid JSON" in err and "frames=6 points=6 warnings=1" in err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_replay_splits_lines_where_live_does(tmp_path, capsys):
    """Lines end at "\\n" alone in both: a bare "\\r" joins two records into
    one malformed line, and a CRLF line's "\\r" is stripped."""
    plane = make_plane_file(tmp_path / "plane.json")
    first, second, third = _generated_lines(tmp_path, count=3)
    data = f"{first}\r{second}\r\n{third}\n".encode("utf-8")
    stream, out = tmp_path / "stream.jsonl", tmp_path / "o.jsonl"
    stream.write_bytes(data)
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
    assert "frames=1 points=1 warnings=1" in capsys.readouterr().err
    session = LiveSession(PipelineSettings(*load_plane_file(plane)[:2]), TargetRegistry(), AreaRegistry())
    session.handle_read(data)
    replies = session.unsent.decode("utf-8").splitlines()
    docs = [json.loads(r) for r in replies]
    assert [set(doc) for doc in docs if "err" in doc] == [{"err"}]
    assert [r for r, doc in zip(replies, docs) if "err" not in doc] == out.read_text(encoding="utf-8").splitlines()


def test_replay_undecodable_bytes_are_one_malformed_line(tmp_path, capsys):
    plane = make_plane_file(tmp_path / "plane.json")
    lines = [line.encode("utf-8") for line in _generated_lines(tmp_path)]
    lines.insert(2, b'{"t": 0.05, "joints": \xff\xfe}')
    stream = tmp_path / "stream.jsonl"
    stream.write_bytes(b"\n".join(lines) + b"\n")
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream),
                    "--out", str(tmp_path / "o.jsonl")]) == 0
    err = capsys.readouterr().err
    assert "line 3" in err and "frames=6 points=6 warnings=1" in err


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
def test_replay_unreadable_stream_exits_2(tmp_path, capsys, missing):
    plane = make_plane_file(tmp_path / "plane.json")
    stream = tmp_path / ("nope.jsonl" if missing else "")
    out = tmp_path / "o.jsonl"
    assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["replay --plane", "registry list --file", "calibrate --scenario",
                                     "config"])
def test_undecodable_input_file_exits_2(tmp_path, monkeypatch, capsys, command):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe{}\n")
    argv = {"replay --plane": ["replay", "--plane", str(binary), "--stream", str(binary),
                               "--out", str(tmp_path / "o.jsonl")],
            "registry list --file": ["registry", "list", "--file", str(binary)],
            "calibrate --scenario": ["calibrate", "--target-error", "0.03", "--scenario", str(binary)],
            "config": ["registry", "list", "--file", str(binary)]}[command]
    if command == "config":
        monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(binary))
    assert run_cli(argv) == 2
    assert f"cannot read {binary}" in capsys.readouterr().err


@pytest.mark.parametrize("key, argv", [
    ("out", ["sweep", "--kind", "pick", "--trials", "1", "--distances", "0.2"]),
    ("scenario", ["calibrate", "--target-error", "0.03"]),
    ("board", ["sweep", "--kind", "pick", "--trials", "1"]),
])
def test_env_config_path_with_nul_byte_exits_2(tmp_path, monkeypatch, capsys, key, argv):
    """A NUL cannot come from a real command line, so the config file is the
    only way one reaches a path."""
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"{key} = a\0b\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    assert "null byte" in capsys.readouterr().err


# --- one reader per input format --------------------------------------------------

BOM = "\ufeff"


def _json_inputs(tmp_path) -> dict[str, tuple[str, list[str]]]:
    """Per JSON input file kind: a valid document, and the command that reads
    it with the file's path appended. Each command but ``registry list``
    writes ``out``."""
    plane = make_plane_file(tmp_path / "plane.json")
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps(wrist_frame("t", 0.0)) + "\n", encoding="utf-8")
    out = str(tmp_path / "out")
    return {
        "corners": (json.dumps({"corners": [{"x": c.x, "y": c.y, "z": c.z} for c in desk_corners()]}),
                    ["define-plane", "--out", out, "--corners"]),
        "plane": (plane.read_text(encoding="utf-8"),
                  ["replay", "--stream", str(stream), "--out", out, "--plane"]),
        "layout": (json.dumps({"targets": [_LAYOUT_TARGET], "areas": [_LAYOUT_AREA]}),
                   ["registry", "list", "--file"]),
        "board": (json.dumps({"boards": [{"board": {"kind": "custom", "l_m": 0.1, "plane_size_m": [0.6, 0.8]},
                                          "targets": [_LAYOUT_TARGET], "areas": []}]}),
                  ["sweep", "--kind", "pick", "--trials", "1", "--out", out, "--board"]),
    }


def _written(path) -> dict:
    """Every file under ``path`` (or ``path`` itself) by name, as bytes."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return {path.name: path.read_bytes()} if path.exists() else {}


@pytest.mark.parametrize("kind", ["corners", "plane", "layout", "board"])
@pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "9" * 5000],
                         ids=["nested-past-recursion-limit", "5000-digit-integer"])
def test_input_file_past_the_json_decoder_limits_exits_2(tmp_path, capsys, kind, value):
    text, argv = _json_inputs(tmp_path)[kind]
    path = tmp_path / "input.json"
    path.write_text('{"pad": %s, %s' % (value, text.lstrip()[1:]), encoding="utf-8")
    assert run_cli(argv + [str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("frame", [None, [0, 1], "x"], ids=["null", "list", "text"])
def test_plane_file_whose_frame_is_no_object_exits_2(tmp_path, capsys, frame):
    text, argv = _json_inputs(tmp_path)["plane"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(dict(json.loads(text), frame=frame)), encoding="utf-8")
    assert run_cli(argv + [str(path)]) == 2
    assert '"frame" must be an object' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, where, value", [
    ("plane", ["normal"], "001"),
    ("plane", ["corners"], ["000", "100", "110", "010"]),
    ("plane", ["d"], "0"),
    ("plane", ["d"], False),
    ("plane", ["frame"], {"origin_corner": 1.9, "x_corner": 2}),
    ("plane", ["frame"], {"origin_corner": True, "x_corner": 2}),
    ("corners", ["corners", 0, "x"], "0"),
    ("layout", ["targets", 0, "u"], "0.1"),
    ("layout", ["areas", 0, "hv"], True),
    ("layout", ["targets", 0, "id"], None),
    ("layout", ["targets", 0, "label"], [1]),
    ("layout", ["targets", 0, "group"], 5),
    ("board", ["boards", 0, "board", "kind"], 5),
], ids=["plane-normal-text", "plane-corners-text", "plane-d-text", "plane-d-false", "plane-origin-fraction",
        "plane-origin-true", "corner-x-text", "layout-u-text", "layout-hv-true", "layout-id-null",
        "layout-label-list", "layout-group-number", "board-kind-number"])
def test_input_file_with_a_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, kind, where, value):
    """Every number of a plane, corner, layout or board file is a JSON number
    (an integer where it counts corners), and every id, label, group and board
    kind a JSON string."""
    text, argv = _json_inputs(tmp_path)[kind]
    doc = json.loads(text)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(argv + [str(path)]) == 2
    assert "expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entity", ["targets", "areas"])
@pytest.mark.parametrize("command", ["registry", "replay"])
def test_layout_with_a_repeated_id_exits_2(tmp_path, capsys, entity, command):
    _, argv = _json_inputs(tmp_path)["layout"]
    if command == "replay":
        stream = tmp_path / "stream.jsonl"
        stream.write_text("\n".join(_generated_lines(tmp_path)) + "\n", encoding="utf-8")
        argv = ["replay", "--plane", str(make_plane_file(tmp_path / "plane.json")), "--stream", str(stream),
                "--out", str(tmp_path / "out"), "--snap", "pick" if entity == "targets" else "place",
                "--registry"]
    entry = _LAYOUT_TARGET if entity == "targets" else _LAYOUT_AREA
    path = tmp_path / "layout.json"
    path.write_text(json.dumps({entity: [entry, dict(entry)]}), encoding="utf-8")
    assert run_cli(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert f"id {entry['id']!r} appears twice" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["corners", "plane", "layout", "board", "scenario"])
def test_input_file_with_bom_reads_as_without(tmp_path, capsys, kind):
    if kind == "scenario":
        text = write_scenario_file(tmp_path / "s.cfg").read_text(encoding="utf-8")
        argv = ["generate", "--out", str(tmp_path / "out"), "--scenario"]
    else:
        text, argv = _json_inputs(tmp_path)[kind]
    path = tmp_path / "input"
    results = []
    for prefix in ("", BOM):
        path.write_text(prefix + text, encoding="utf-8")
        assert run_cli(argv + [str(path)]) == 0
        results.append((capsys.readouterr().out, _written(tmp_path / "out")))
    assert results[0] == results[1]
    assert results[0][0] if kind == "layout" else results[0][1]


def test_env_config_with_bom_applies_its_first_key(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(BOM + "hand = banana\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(_float_flag_commands(tmp_path)["replay"]) == 2
    assert "bad value for hand" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _pixel_wrist_lines(tmp_path) -> list[str]:
    """The generated stream with each right wrist in the pixel form, after
    an intrinsics header (fx = fy = 100, so the wrists fall in the image)."""
    intrinsics = dict(INTRINSICS, fx=100, fy=100)
    camera = CameraIntrinsics(**intrinsics)
    lines = [json.dumps({"intrinsics": intrinsics})]
    for line in _generated_lines(tmp_path):
        record = json.loads(line)
        wrist = record["joints"]["right_wrist"]
        px, py = project(Point3(wrist["x"], wrist["y"], wrist["z"]), camera)
        record["joints"]["right_wrist"] = {"px": px, "py": py, "depth": wrist["z"], "c": wrist["c"]}
        lines.append(json.dumps(record))
    return lines


@pytest.mark.parametrize("lead", ["\n", BOM, BOM + "\n\n"], ids=["blank-line", "bom", "bom-blank-lines"])
def test_replay_header_after_blank_line_or_bom_writes_the_same_output(tmp_path, capsys, lead):
    plane = make_plane_file(tmp_path / "plane.json")
    text = "\n".join(_pixel_wrist_lines(tmp_path)) + "\n"
    outputs = []
    for prefix in ("", lead):
        stream = tmp_path / "stream.jsonl"
        stream.write_text(prefix + text, encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert run_cli(["replay", "--plane", str(plane), "--stream", str(stream), "--out", str(out)]) == 0
        assert "frames=6 points=6 warnings=0" in capsys.readouterr().err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("case", ["generate --seed", "generate scenario seed", "sweep --seed",
                                  "calibrate --seed", "generate config seed", "sweep config seed",
                                  "calibrate config seed"])
def test_negative_seed_exits_2_before_any_output(tmp_path, monkeypatch, capsys, case):
    out = tmp_path / "out"
    scenario = write_scenario_file(tmp_path / "s.cfg", seed=-5 if case == "generate scenario seed" else 1)
    argv = {
        "generate": ["generate", "--scenario", str(scenario), "--out", str(out)],
        "sweep": ["sweep", "--kind", "pick", "--trials", "1", "--distances", "0.2", "--out", str(out)],
        "calibrate": ["calibrate", "--target-error", "0.02", "--samples", "200"],
    }[case.split()[0]]
    if case.endswith("--seed"):
        argv.append("--seed=-1")
    elif case.endswith("config seed"):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("seed = -1\n", encoding="utf-8")
        monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "sweep"])
def test_negative_target_error_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {"calibrate": ["calibrate", "--target-error=-0.01"],
            "sweep": ["sweep", "--kind", "pick", "--trials", "1", "--calibrate=-0.01", "--out", str(out)]}
    assert run_cli(argv[command]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


_FILE_KEYS = ("corners", "intrinsics", "x", "y", "z", "px", "py", "depth", "fx", "fy", "cx", "cy",
              "width", "height", "normal", "d", "frame", "origin_corner", "x_corner", "targets",
              "areas", "id", "label", "group", "u", "v", "cu", "cv", "hu", "hv", "boards", "board",
              "kind", "l_m", "plane_size_m")
# stand-ins for raw JSON text that no json.dumps writes
_RAW = {'"@deep@"': "[" * 5000 + "]" * 5000, '"@near-limit@"': "[" * 950 + "]" * 950,
        '"@long-int@"': "9" * 4400}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([0, 0.2, 1, 640, 1e300, -1, "t1"] + [k.strip('"') for k in _RAW]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FILE_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=16,
)


# the keys whose value every file reader takes as a number
_NUMBER_KEYS = frozenset(("x", "y", "z", "px", "py", "depth", "fx", "fy", "cx", "cy", "width", "height", "d",
                          "origin_corner", "x_corner", "u", "v", "cu", "cv", "hu", "hv", "l_m"))


# what a number-keyed value is replaced by when the fuzz aims at that rule
_NON_NUMBERS = (st.booleans() | st.none() | st.integers().map(str) | st.floats().map(repr)
                | st.lists(st.integers(), max_size=2) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _number_slots(doc) -> list[tuple]:
    """Every (container, key) of ``doc``, at any depth, whose key is in
    ``_NUMBER_KEYS``."""
    if isinstance(doc, list):
        return [slot for item in doc for slot in _number_slots(item)]
    if not isinstance(doc, dict):
        return []
    return [(doc, k) for k in doc if k in _NUMBER_KEYS] + [s for v in doc.values() for s in _number_slots(v)]


def _replace_one_value(data, doc) -> tuple:
    """Replace one value of ``doc``, at any depth, by an arbitrary one;
    returns the key (or list index) it replaced and the new value."""
    key = data.draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
    if isinstance(doc[key], (dict, list)) and doc[key] and data.draw(st.booleans()):
        return _replace_one_value(data, doc[key])
    doc[key] = data.draw(_JSON_VALUES)
    return key, doc[key]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(kind=st.sampled_from(["corners", "plane", "layout", "board"]), how=st.integers(0, 4),
       bom=st.booleans(), data=st.data())
def test_input_file_fuzz_exits_0_or_2(tmp_path, capsys, kind, how, bom, data):
    """A plane, corner, layout or board file holding any JSON value, a valid
    document with one value replaced (deep nesting and over-long integers
    included), or either behind a BOM, ends in exit 0 or 2, never a traceback.
    A number replaced by anything but an int or a float (a bool included)
    exits 2; only ``l_m`` may be null. One mode in five aims at that rule: it
    replaces the value of a number key by a bool, a numeric string, null or a
    container."""
    example_dir = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))  # an earlier example's out stays apart
    text, argv = _json_inputs(example_dir)[kind]
    doc = json.loads(text)
    not_a_number = False
    if how == 0:
        doc = data.draw(_JSON_VALUES)
    elif how < 3:
        key, value = _replace_one_value(data, doc)
        not_a_number = (key in _NUMBER_KEYS and not (key == "l_m" and value is None)
                        and (isinstance(value, bool) or not isinstance(value, (int, float))))
    elif how == 4:
        container, key = data.draw(st.sampled_from(_number_slots(doc)))
        container[key] = data.draw(_NON_NUMBERS)
        not_a_number = not (key == "l_m" and container[key] is None)
    text = json.dumps(doc)
    for marker, raw in _RAW.items():
        text = text.replace(marker, raw)
    path = example_dir / "fuzz.json"
    path.write_text(BOM * bom + text, encoding="utf-8")
    if kind == "layout":
        try:
            load_layout(path)
        except (MalformedFileError, ConfigError):
            pass
    assert run_cli(argv + [str(path)]) in ((2,) if not_a_number else (0, 2))
    capsys.readouterr()


# --- saved documents are written whole ----------------------------------------------


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def _write_every_document(d: pathlib.Path) -> list[pathlib.Path]:
    """Write a plane, a layout, and a sweep's reports and boards into ``d``."""
    corners = write_corner_file(d / "corners.json", desk_corners())
    assert run_cli(["define-plane", "--corners", str(corners), "--out", str(d / "plane.json")]) == 0
    assert run_cli(["registry", "init", "--file", str(d / "layout.json")]) == 0
    assert run_cli(["sweep", "--kind", "pick", "--trials", "1", "--distances", "0.2", "--out", str(d / "sweep")]) == 0
    sweep = ["pick_square_report.csv", "pick_square_report.json", "pick_square_boards.json"]
    return [d / "plane.json", d / "layout.json"] + [d / "sweep" / name for name in sweep]


def test_saved_documents_get_the_mode_of_a_new_file(tmp_path, umask_022, capsys):
    for path in _write_every_document(tmp_path):
        assert os.stat(path).st_mode & 0o777 == 0o644, path.name


def test_registry_edit_keeps_a_readable_layout_readable(tmp_path, umask_022):
    layout = tmp_path / "layout.json"
    layout.write_text('{"areas": [], "targets": []}\n', encoding="utf-8")
    os.chmod(layout, 0o644)
    assert run_cli(["registry", "add-target", "--file", str(layout), "--id", "t1", "--u", "0.1", "--v", "0.2"]) == 0
    assert os.stat(layout).st_mode & 0o777 == 0o644


def test_failed_document_write_leaves_the_old_file_and_no_other(tmp_path, monkeypatch, capsys):
    plane, layout = _write_every_document(tmp_path)[:2]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def refuse(src, dst):
        assert os.path.exists(src)  # the write fails after its temporary file exists
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_layout(str(layout), [Target("t", "t", PlanarPoint(0.1, 0.2))], [])
    for argv in (["registry", "add-target", "--file", str(layout), "--id", "t1", "--u", "0.1", "--v", "0.2"],
                 ["define-plane", "--corners", str(tmp_path / "corners.json"), "--out", str(plane)],
                 ["sweep", "--kind", "pick", "--trials", "1", "--distances", "0.2", "--out", str(tmp_path / "sweep")]):
        assert run_cli(argv) == 1
        assert "replace refused" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# --- docs ------------------------------------------------------------------------


def test_readme_library_surface_imports_resolve():
    """Every import of the README's "Library surface" block names a symbol
    the package still has."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library surface"):]
    start = section.index("```python") + len("```python")
    block = section[start:section.index("```", start)]
    imports = [node for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)]
    assert any(node.module == "gesturepoint" for node in imports)
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})


# --- the streaming side runs on the standard library ---------------------------------

_STREAMING_SIDE = """
import json, sys
import gesturepoint, gesturepoint.cli, gesturepoint.live
from gesturepoint.cli import _load_registries, load_plane_file, main
from gesturepoint.live import LiveSession, PipelineSettings

d, frame_line = sys.argv[1], sys.argv[2]
codes = [
    main(["define-plane", "--corners", f"{d}/corners.json", "--out", f"{d}/plane.json"]),
    main(["registry", "init", "--file", f"{d}/layout.json"]),
    main(["registry", "add-target", "--file", f"{d}/layout.json", "--id", "t1",
          "--u", "0.3", "--v", "0.3"]),
    main(["registry", "list", "--file", f"{d}/layout.json"]),
    main(["replay", "--plane", f"{d}/plane.json", "--stream", f"{d}/stream.jsonl",
          "--out", f"{d}/out.jsonl"]),
]
plane, frame, _, _ = load_plane_file(f"{d}/plane.json")
session = LiveSession(PipelineSettings(plane=plane, frame=frame),
                      *_load_registries(f"{d}/layout.json"))
replies = session.handle_line(frame_line)
replies += session.handle_line('{"cmd": "snap", "strategy": "pick", "n": 1}')
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
print(json.dumps({"codes": codes, "replies": replies, "numpy": loaded}))
"""


def test_streaming_side_never_imports_numpy(tmp_path):
    """Importing the package, its CLI and live modules, and running define-plane,
    registry, a one-frame replay and a live session's frame and snap lines
    loads no numpy: only generate, sweep and calibrate need it."""
    write_corner_file(tmp_path / "corners.json", desk_corners())
    frame_line = json.dumps(wrist_frame("c", 0.9))
    (tmp_path / "stream.jsonl").write_text(frame_line + "\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", _STREAMING_SIDE, str(tmp_path), frame_line],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert len(read_jsonl(tmp_path / "out.jsonl")) == 1
    point, snap = (json.loads(r) for r in result["replies"])
    assert (point["u"], point["v"]) == pytest.approx((0.3, 0.3))
    assert snap["ok"] and snap["id"] == "t1"
    assert result["numpy"] == []


_TYPING_LOADED = "import sys; sys.path.insert(0, sys.argv[1]); import gesturepoint.cli; print('typing' in sys.modules)"


def test_the_package_never_imports_typing():
    """Annotations are never evaluated (``from __future__ import annotations``),
    so their names come from ``collections.abc``: no package module imports
    ``typing``, and a ``python -S`` child (no host ``site`` to load it first)
    that imports the CLI leaves it unloaded."""
    src = pathlib.Path(gesturepoint.__file__).parent
    imported = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append((path.name, node.module))
    assert [(name, module) for name, module in imported if module.partition(".")[0] == "typing"] == []
    child = subprocess.run([sys.executable, "-S", "-c", _TYPING_LOADED, str(src.parent)],
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.split() == ["False"]


# the modules loaded when a CLI run ends, after its exit code; the CLI runs
# as ``python -m gesturepoint.cli`` does, as ``__main__``
_MODULES_AT_EXIT = """
import runpy, sys
try:
    runpy.run_module("gesturepoint.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, *sorted(sys.modules))
"""


def _modules_at_exit(proc: subprocess.Popen) -> tuple[int, set[str]]:
    out, _ = proc.communicate(timeout=60)
    code, *modules = out.splitlines()[-1].split()
    return int(code), set(modules)


def test_each_command_loads_only_what_it_runs(tmp_path):
    """Over a bare interpreter's start set (this host's ``site`` may already
    load ``threading``, so it is not pinned): define-plane, registry and
    replay load neither the socket layer nor ``dataclasses``/``inspect``, and
    a live session adds no ``dataclasses``/``inspect``; none of them loads
    numpy, and each loads only its own package modules: ``offline`` for
    registry and generate alone, ``evaluation`` for generate alone. Run as a
    module, no command loads ``gesturepoint.cli`` beside ``__main__``."""
    bare = set(subprocess.run([sys.executable, "-c", "import sys; print(*sorted(sys.modules))"],
                              capture_output=True, text=True, timeout=60, check=True).stdout.split())
    write_corner_file(tmp_path / "corners.json", desk_corners())
    frame_line = json.dumps(wrist_frame("c", 0.9))
    (tmp_path / "stream.jsonl").write_text(frame_line + "\n", encoding="utf-8")
    plane, layout = str(tmp_path / "plane.json"), str(tmp_path / "layout.json")
    runs = {
        "define-plane": ["--corners", str(tmp_path / "corners.json"), "--out", plane],
        "registry": ["add-target", "--file", layout, "--id", "t1", "--u", "0.3", "--v", "0.3"],
        "replay": ["--plane", plane, "--stream", str(tmp_path / "stream.jsonl"), "--out", str(tmp_path / "out.jsonl"),
                   "--snap", "pick", "--n", "1", "--registry", layout],
        "generate": ["--scenario", str(write_scenario_file(tmp_path / "s.cfg", count=2)),
                     "--out", str(tmp_path / "generated.jsonl")],
    }
    added = {}
    assert run_cli(["registry", "init", "--file", layout]) == 0
    for command, argv in runs.items():
        code, modules = _modules_at_exit(subprocess.Popen(
            [sys.executable, "-c", _MODULES_AT_EXIT, command, *argv], stdout=subprocess.PIPE, text=True))
        assert code == 0
        added[command] = modules - bare
    assert [r["snap"]["id"] for r in read_jsonl(tmp_path / "out.jsonl") if "snap" in r] == ["t1"]

    proc = subprocess.Popen([sys.executable, "-c", _MODULES_AT_EXIT, "live", "--plane", plane, "--registry", layout,
                             "--listen", "127.0.0.1:0"],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, preexec_fn=default_sigint)
    try:
        host, port = json.loads(proc.stdout.readline())["listening"].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as conn, conn.makefile("rb") as replies:
            conn.sendall(f'{frame_line}\n{{"cmd": "snap", "n": 1}}\n'.encode("utf-8"))
            point, snap = json.loads(replies.readline()), json.loads(replies.readline())
        proc.send_signal(signal.SIGINT)
        code, modules = _modules_at_exit(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert code == 0 and "u" in point and snap["id"] == "t1"
    added["live"] = modules - bare

    heavy = {"dataclasses", "inspect", "numpy"}
    own = {"live": {"live"}, "registry": {"offline"}, "generate": {"offline", "evaluation"}}
    for command, modules in added.items():
        package = {m.split(".", 1)[1] for m in modules if m.startswith("gesturepoint.")}
        assert package == {"geometry", "pipeline", "snap", "stabilizer", "stream"} | own.get(command, set()), command
        if command != "generate":
            assert not modules & (heavy if command == "live" else heavy | {"socket", "selectors"}), command


_OPENBLAS_AFTER_IMPORT = """
import importlib, json, os, sys
importlib.import_module(sys.argv[1])
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


def test_offline_commands_run_one_openblas_thread_unless_set():
    """Importing ``offline``, as generate, sweep, calibrate and registry do
    before numpy loads, sets ``OPENBLAS_NUM_THREADS`` to 1 when it is unset
    and keeps a value the user set; importing ``evaluation`` alone, as a
    library, leaves the environment as it was."""
    def after_import(module: str, preset: str | None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", _OPENBLAS_AFTER_IMPORT, module], env=env,
                             capture_output=True, text=True, timeout=60, check=True).stdout
        return json.loads(out)

    assert after_import("gesturepoint.offline", None) == "1"
    assert after_import("gesturepoint.offline", "4") == "4"
    assert after_import("gesturepoint.evaluation", None) is None
