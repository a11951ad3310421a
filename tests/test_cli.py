"""CLI tests: subcommands end to end, exit codes, env-var config defaults."""

from __future__ import annotations

import json

import pytest

from conftest import (
    INTRINSICS,
    JOINT_FIELDS,
    desk_corners,
    make_plane_file,
    non_finite,
    run_cli,
    wrist_frame,
    write_corner_file,
    write_scenario_file,
)
import gesturepoint
from gesturepoint.cli import ConfigError, _load_registries, load_plane_file
from gesturepoint.evaluation import EvalError, load_boards
from gesturepoint.geometry import PlanarPoint, Point3, project, CameraIntrinsics
from gesturepoint.snap import Area, Target, save_layout


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
    assert "CollinearCorners" in capsys.readouterr().err


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
    assert "--n must be in 1..256" in capsys.readouterr().err
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


def test_replay_unwritable_output_exits_1(tmp_path):
    plane = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=5)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    code = run_cli(["replay", "--plane", str(plane), "--stream", str(stream),
                    "--out", str(tmp_path / "missing_dir" / "o.jsonl")])
    assert code == 1


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
    for n in ("40", "0"):
        assert run_cli(base + ["--n", n]) == 2
        assert "snap sample count" in capsys.readouterr().err
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
    assert run_cli(["registry", "add-target", "--file", str(layout), "--id", "t1",
                    "--u", "0.0", "--v", "0.0"]) == 1  # duplicate
    assert run_cli(["registry", "remove-target", "--file", str(layout), "--id", "zzz"]) == 1
    assert run_cli(["registry", "remove-target", "--file", str(layout), "--id", "t1"]) == 0
    assert run_cli(["registry", "remove-area", "--file", str(layout), "--id", "a1"]) == 0


def test_registry_missing_flags_exit_2(tmp_path):
    layout = tmp_path / "layout.json"
    run_cli(["registry", "init", "--file", str(layout)])
    assert run_cli(["registry", "add-target", "--file", str(layout), "--id", "t1"]) == 2


def test_registry_malformed_file_exits_2(tmp_path):
    layout = tmp_path / "layout.json"
    layout.write_text("{broken", encoding="utf-8")
    assert run_cli(["registry", "list", "--file", str(layout)]) == 2


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
    cfg.write_text("n = 40\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(["calibrate", "--target-error", "0.03", "--samples", "2000"]) == 0
    assert float(capsys.readouterr().out) > 0


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
    assert run_cli(["sweep", "--kind", "pick", "--trials", "0", "--out", str(tmp_path)]) == 2


def test_no_command_prints_usage():
    assert run_cli([]) == 2


def test_unknown_flag_exits_2():
    assert run_cli(["sweep", "--kind", "pick", "--bogus-flag", "1"]) == 2


def test_version_flag():
    assert run_cli(["--version"]) == 0


def test_package_all_names_resolve():
    assert [name for name in gesturepoint.__all__ if not hasattr(gesturepoint, name)] == []


# --- input boundaries: NaN and infinities exit 2 where they enter ------------------


class _NoServer:
    """Stands in for LiveServer: `live` must exit before it would serve."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("live got past its input checks")


def _generated_lines(tmp_path, count=6) -> list[str]:
    stream = tmp_path / "generated.jsonl"
    run_cli(["generate", "--scenario", str(write_scenario_file(tmp_path / "s.cfg", count=count)),
             "--out", str(stream)])
    return stream.read_text(encoding="utf-8").splitlines()


@non_finite
@pytest.mark.parametrize("field", ("t",) + JOINT_FIELDS + tuple(sorted(INTRINSICS)))
def test_replay_counts_non_finite_stream_value_as_one_warning(tmp_path, capsys, field, bad):
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
    monkeypatch.setattr("gesturepoint.cli.LiveServer", _NoServer)
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
    monkeypatch.setattr("gesturepoint.cli.LiveServer", _NoServer)
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
    ("calibrate", "--target-error"), ("calibrate", "--aim-bias"), ("calibrate", "--threshold"),
    ("add-target", "--u"), ("add-target", "--v"),
    ("add-area", "--cu"), ("add-area", "--cv"), ("add-area", "--hu"), ("add-area", "--hv"),
])
def test_float_flag_with_non_finite_value_exits_2(tmp_path, monkeypatch, command, flag, bad):
    monkeypatch.setattr("gesturepoint.cli.LiveServer", _NoServer)
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
    argv = {"threshold": commands["calibrate"], "min_confidence": commands["replay"],
            "sigma": commands["sweep"], "calibrate": commands["sweep"],
            "aim_bias": commands["calibrate"]}[key]
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"{key} = {bad!r}\n", encoding="utf-8")
    monkeypatch.setenv("GESTURE_POINTER_CONFIG", str(cfg))
    assert run_cli(argv) == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
