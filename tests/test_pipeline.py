"""Pipeline wiring tests: hand selection, bounds filtering, history, plus the
file surfaces that feed it (2D streams with headers, board files, plane
files)."""

from __future__ import annotations

import ast
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gesturepoint.pipeline
from conftest import make_plane_file, project, run_cli, write_scenario_file
from gesturepoint.evaluation import (
    ScenarioTemplate,
    board_document,
    load_boards,
    make_board,
    run_boards,
    save_boards,
)
from gesturepoint.geometry import CameraIntrinsics, Point3, Quaternion, plane_from_corners, workplane_frame
from gesturepoint.live import gesture_point_record
from gesturepoint.geometry import PlanarPoint
from gesturepoint.pipeline import HISTORY_CAPACITY, GesturePipeline, PipelineSettings
from gesturepoint.snap import Area, SnapError, SnapRequest, Target, evaluate_request
from gesturepoint.stream import KeypointFrame, parse_frame

PLANE = plane_from_corners(
    [Point3(0, 0, 0), Point3(0.6, 0, 0), Point3(0.6, 0.8, 0), Point3(0, 0.8, 0)]
)


def two_hand_frame(t=0.0, left_target=(0.1, 0.2), right_target=(0.5, 0.6)):
    """Both arms pointing at distinct plane positions."""
    def joints(side, target):
        shoulder = (target[0], target[1] - 0.25, 0.5)
        wrist = (
            shoulder[0] + 0.5 * (target[0] - shoulder[0]),
            shoulder[1] + 0.5 * (target[1] - shoulder[1]),
            shoulder[2] + 0.5 * (0.0 - shoulder[2]),
        )
        return {
            f"{side}_shoulder": {"x": shoulder[0], "y": shoulder[1], "z": shoulder[2], "c": 0.9},
            f"{side}_wrist": {"x": wrist[0], "y": wrist[1], "z": wrist[2], "c": 0.9},
        }

    return parse_frame(
        {"t": t, "joints": {**joints("left", left_target), **joints("right", right_target)}}
    )


def test_both_hands_kept_independent():
    pipe = GesturePipeline(PLANE, hands=("left", "right"))
    points = pipe.process(two_hand_frame())
    assert sorted(p.hand for p in points) == ["left", "right"]
    by_hand = {p.hand: p for p in points}
    assert by_hand["left"].position.u == pytest.approx(0.1, abs=1e-9)
    assert by_hand["left"].position.v == pytest.approx(0.2, abs=1e-9)
    assert by_hand["right"].position.u == pytest.approx(0.5, abs=1e-9)
    assert by_hand["right"].position.v == pytest.approx(0.6, abs=1e-9)
    assert pipe.recent("left", 5) != pipe.recent("right", 5)


def test_single_hand_config_ignores_other_hand():
    pipe = GesturePipeline(PLANE, hands=("right",))
    points = pipe.process(two_hand_frame())
    assert [p.hand for p in points] == ["right"]
    assert pipe.recent("left", 5) == []


def test_out_of_bounds_intersection_is_counted_not_emitted():
    pipe = GesturePipeline(PLANE, hands=("right",))
    # aims far beyond the far edge of the plane
    frame = parse_frame(
        {
            "t": 0.0,
            "joints": {
                "right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.2, "c": 0.9},
                "right_wrist": {"x": 0.3, "y": 0.4, "z": 0.19, "c": 0.9},
            },
        }
    )
    assert pipe.process(frame) == []
    assert pipe.discarded_out_of_bounds == 1
    assert pipe.frames_without_ray == 0


def test_frames_without_ray_counter():
    pipe = GesturePipeline(PLANE, hands=("right",))
    frame = parse_frame({"t": 0.0, "joints": {}})
    assert pipe.process(frame) == []
    assert pipe.frames_without_ray == 1


def test_per_frame_path_never_rebuilds_the_rotation(monkeypatch):
    """The frame's rotation rows are computed once, before the first frame:
    neither process nor a camera-frame record rebuilds them."""
    settings = PipelineSettings(plane=PLANE, frame=workplane_frame(PLANE, 1, 2), frame_mode="camera",
                                hands=("left", "right"))
    pipe = settings.make_pipeline()

    def rebuild(_):
        raise AssertionError("rotation matrix rebuilt after the pipeline was built")

    monkeypatch.setattr(Quaternion, "to_matrix", rebuild)
    points = [p for t in range(6) for p in pipe.process(two_hand_frame(t=t / 30))]
    assert len(points) == 12
    for p in points:
        record = json.loads(gesture_point_record(p, settings))
        assert record["z"] == pytest.approx(0.0, abs=1e-9)


def test_recent_returns_oldest_first():
    pipe = GesturePipeline(PLANE, hands=("right",))
    for i in range(4):
        pipe.process(two_hand_frame(t=i / 30, right_target=(0.1 + 0.1 * i, 0.4)))
    recent = pipe.recent("right", 3)
    assert len(recent) == 3
    assert recent[0].u < recent[1].u < recent[2].u


def test_recent_reads_the_last_count_points_as_the_whole_history_slice_does():
    """``recent`` equals the slice of the whole history, oldest first, for
    every count from 0 to past the capacity, before and after the history
    fills up and starts dropping its oldest points."""
    pipe = GesturePipeline(PLANE, hands=("right",))
    history = pipe._history["right"]
    for i in range(HISTORY_CAPACITY + 40):
        pipe.process(two_hand_frame(t=i / 30, right_target=(0.05 + 0.5 * ((i * 37) % 101) / 101, 0.4)))
        if i in (0, 9, HISTORY_CAPACITY - 1, HISTORY_CAPACITY + 39):
            assert len(history) == min(i + 1, HISTORY_CAPACITY)
            for count in range(301):
                expected = list(history)[-count:] if count > 0 else []
                assert pipe.recent("right", count) == expected


@pytest.mark.parametrize("count", [0, -3])
def test_recent_with_a_count_below_one_returns_no_points(count):
    pipe = GesturePipeline(PLANE, hands=("right",))
    for i in range(5):
        pipe.process(two_hand_frame(t=i / 30))
    assert len(pipe.recent("right", 5)) == 5
    assert pipe.recent("right", count) == []


def _pointing_frame(t: float, aims: dict) -> KeypointFrame:
    """Each hand's arm points straight down at its (u, v) on PLANE."""
    joints = {}
    for hand, (u, v) in aims.items():
        joints[f"{hand}_shoulder"], joints[f"{hand}_wrist"] = (u, v, 0.5, 0.9), (u, v, 0.25, 0.9)
    return KeypointFrame(t, joints)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), frames=st.integers(0, 2 * HISTORY_CAPACITY),
       n=st.integers(1, HISTORY_CAPACITY), strategy=st.sampled_from(["pick", "place"]),
       group=st.sampled_from([None, "g1"]), hand=st.sampled_from(["left", "right"]))
@example(seed=1, frames=0, n=1, strategy="pick", group=None, hand="right")  # no samples
@example(seed=2, frames=10, n=HISTORY_CAPACITY, strategy="place", group=None, hand="left")  # too few
@example(seed=3, frames=2 * HISTORY_CAPACITY, n=HISTORY_CAPACITY, strategy="pick", group="g1", hand="right")
def test_snap_reads_exactly_the_last_n_points_of_its_hand(seed, frames, n, strategy, group, hand):
    """``GesturePipeline.snap`` is ``evaluate_request`` on ``recent(hand, n)``
    (histories past the 256-point capacity included); redrawing every point
    older than the hand's last n, and every point of the other hand, leaves
    its result as it was; fewer than n points raise the protocol's texts."""
    rng = random.Random(seed)
    cu, cv, spread = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.7), rng.choice([0.001, 0.02, 0.05])
    aim = lambda: (cu + rng.uniform(-spread, spread), cv + rng.uniform(-spread, spread))  # noqa: E731
    history = [{h: aim() for h in ("left", "right") if rng.random() < 0.7} for _ in range(frames)]
    targets = [Target(f"t{i}", f"t{i}", PlanarPoint(rng.uniform(0, 0.6), rng.uniform(0, 0.8)),
                      rng.choice([None, "g1", "g2"])) for i in range(rng.randint(1, 4))]
    areas = [Area(f"a{i}", PlanarPoint(rng.uniform(0, 0.6), rng.uniform(0, 0.8)),
                  (rng.uniform(0.01, 0.2), rng.uniform(0.01, 0.2))) for i in range(rng.randint(1, 4))]
    k = sum(hand in aims for aims in history)
    redrawn, seen = [], 0
    for aims in history:
        seen += hand in aims
        redrawn.append({h: (uv if h == hand and seen > k - n else aim()) for h, uv in aims.items()})
    pipes = []
    for frames_fed in (history, redrawn):
        pipe = GesturePipeline(PLANE, hands=("left", "right"), window=1)
        for t, aims in enumerate(frames_fed):
            pipe.process(_pointing_frame(float(t), aims))
        pipes.append(pipe)
    pipe, redrawn_pipe = pipes
    args = (hand, n, strategy, group, targets, areas, 0.05)
    if k < n:
        for p in pipes:
            with pytest.raises(SnapError) as caught:
                p.snap(*args)
            assert str(caught.value) == ("no samples" if k == 0 else f"insufficient samples: {k} of {n}")
        return
    result = pipe.snap(*args)
    samples = tuple(pipe.recent(hand, n))
    assert len(samples) == n
    assert result == evaluate_request(SnapRequest(samples, strategy, group), targets, areas, threshold=0.05)
    assert redrawn_pipe.snap(*args) == result


def test_only_snap_and_pipeline_name_the_snap_request():
    """``GesturePipeline.snap`` is the one place that builds a SnapRequest
    and calls ``evaluate_request``: no other source module's code (imports,
    names, attributes; docstrings aside) names either."""
    def names(path: Path) -> set[str]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}

    naming = {path.name for path in Path(gesturepoint.pipeline.__file__).parent.glob("*.py")
              if names(path) & {"SnapRequest", "evaluate_request"}}
    assert naming == {"snap.py", "pipeline.py"}


def test_replay_supports_2d_streams_with_header(tmp_path, capsys):
    intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    # camera 2 m above the plane center, looking straight down: reuse the 3D
    # joints of a noiseless gesture, expressed as pixels + depth
    shoulder = Point3(0.3, -0.1, 0.6)
    target = Point3(0.3, 0.4, 0.0)
    reach = math.dist(target.as_tuple(), shoulder.as_tuple())
    wrist = Point3(*(s + (t - s) / reach * 0.55 for s, t in zip(shoulder.as_tuple(), target.as_tuple())))

    def cam(p: Point3) -> Point3:
        # camera 2 m above the plane center looking down (180 deg about x)
        return Point3(p.x - 0.3, 0.4 - p.y, 2.0 - p.z)

    lines = [json.dumps({"intrinsics": {"fx": 500, "fy": 500, "cx": 320, "cy": 240, "width": 640, "height": 480}})]
    for i in range(6):
        rec = {"t": i / 30, "joints": {}}
        for name, p in (("right_shoulder", cam(shoulder)), ("right_wrist", cam(wrist))):
            px, py = project(p, intr)
            rec["joints"][name] = {"px": px, "py": py, "depth": p.z, "c": 0.9}
        lines.append(json.dumps(rec))
    stream = tmp_path / "stream2d.jsonl"
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # plane expressed in the same camera frame
    cam_corners = [cam(c) for c in PLANE.corners]
    cam_plane_file = tmp_path / "cam_plane.json"
    from gesturepoint.cli import save_plane_file
    from gesturepoint.geometry import plane_from_corners as pfc, workplane_frame

    cam_plane = pfc(cam_corners, viewpoint=Point3(0, 0, 0))
    save_plane_file(str(cam_plane_file), cam_plane, workplane_frame(cam_plane), 0, 1)
    out = tmp_path / "points.jsonl"
    assert run_cli(["replay", "--plane", str(cam_plane_file), "--stream", str(stream), "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 6
    for r in records:
        assert r["u"] == pytest.approx(0.3, abs=1e-6)
        assert r["v"] == pytest.approx(0.4, abs=1e-6)


def test_board_file_round_trip_and_custom_sweep(tmp_path):
    boards = [make_board("pick_square", 0.12), make_board("pick_square", 0.3)]
    path = tmp_path / "boards.json"
    save_boards(path, boards)
    loaded = load_boards(path)
    assert loaded == boards
    report = run_boards(ScenarioTemplate.desk_default(0.0), loaded, trials_per_target=2, base_seed=1)
    assert len(report.cells) == 8
    assert all(row["success_pct"] == 100.0 for row in report.rows)


def test_sweep_with_custom_board_file(tmp_path):
    board = make_board("place_areas", 0.15)
    path = tmp_path / "board.json"
    # a lone board document reads as a one-board series
    path.write_text(json.dumps(board_document(board)), encoding="utf-8")
    assert load_boards(path) == [board]
    out_dir = tmp_path / "rep"
    assert run_cli(["sweep", "--kind", "place", "--board", str(path), "--trials", "2",
                    "--out", str(out_dir)]) == 0
    csv_text = (out_dir / "place_areas_report.csv").read_text(encoding="utf-8")
    assert len(csv_text.strip().splitlines()) == 1 + 3
    boards_doc = json.loads((out_dir / "place_areas_boards.json").read_text(encoding="utf-8"))
    assert len(boards_doc["boards"]) == 1


def test_tampered_plane_file_is_config_error(tmp_path):
    plane_file = make_plane_file(tmp_path / "plane.json")
    doc = json.loads(plane_file.read_text(encoding="utf-8"))
    doc["corners"][3][2] = 0.3  # corner pulled far off the plane
    plane_file.write_text(json.dumps(doc), encoding="utf-8")
    scenario = write_scenario_file(tmp_path / "s.cfg", count=3)
    stream = tmp_path / "stream.jsonl"
    run_cli(["generate", "--scenario", str(scenario), "--out", str(stream)])
    code = run_cli(["replay", "--plane", str(plane_file), "--stream", str(stream),
                    "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
