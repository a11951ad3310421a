"""Live line-protocol tests: TCP sessions, snap commands, session isolation,
and replay/live output equivalence."""

from __future__ import annotations

import dataclasses
import json
import math
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import INTRINSICS, desk_corners, make_plane_file, run_cli, wrist_frame, write_scenario_file
from gesturepoint.cli import load_plane_file
from gesturepoint.live import LiveServer, LiveSession, PipelineSettings
from gesturepoint.geometry import PlanarPoint, plane_from_corners, workplane_frame
from gesturepoint.snap import Area, AreaRegistry, Target, TargetRegistry
from gesturepoint.stream import serialize_frame, generate_scenario, load_scenario_config


def make_settings(tmp_path) -> PipelineSettings:
    plane, frame, _, _ = load_plane_file(str(make_plane_file(tmp_path / "plane.json")))
    return PipelineSettings(plane=plane, frame=frame)


def registries():
    targets, areas = TargetRegistry(), AreaRegistry()
    targets.replace_all([
        Target(id="goal", label="goal", position=PlanarPoint(0.2, 0.3)),
        Target(id="decoy", label="decoy", position=PlanarPoint(0.5, 0.6)),
    ])
    areas.replace_all([Area(id="zone", center=PlanarPoint(0.2, 0.3), half_extent=(0.1, 0.1))])
    return targets, areas


def stream_lines(tmp_path, count=20, target="0.2, 0.3, 0.0", sigma=0.0, seed=42):
    scenario = load_scenario_config(
        write_scenario_file(tmp_path / "s.cfg", target=target, sigma=sigma, seed=seed, count=count)
    )
    return [serialize_frame(f) for f in generate_scenario(scenario)]


def talk(address, lines) -> list[dict]:
    """Send lines to a live server, half-close, read every response line."""
    with socket.create_connection(address, timeout=10) as sock:
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    text = b"".join(chunks).decode("utf-8")
    return [json.loads(line) for line in text.splitlines()]


def test_session_emits_points_and_snaps(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path) + [json.dumps({"cmd": "snap", "strategy": "pick"})]
        responses = talk(server.address, lines)
    points = [r for r in responses if "u" in r]
    snaps = [r for r in responses if "ok" in r]
    assert len(points) == 20
    assert abs(points[-1]["u"] - 0.2) < 1e-9
    assert len(snaps) == 1
    assert snaps[0]["ok"] is True
    assert snaps[0]["id"] == "goal"
    assert snaps[0]["fallback"] is False


def test_place_snap_over_live(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path) + [json.dumps({"cmd": "snap", "strategy": "place"})]
        responses = talk(server.address, lines)
    snap = [r for r in responses if "ok" in r][0]
    assert snap == {
        "ok": True, "id": "zone", "fallback": False,
        "mean": snap["mean"], "max_dev": snap["max_dev"],
    }
    assert abs(snap["mean"][0] - 0.2) < 1e-9


def test_snap_before_any_points(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        responses = talk(server.address, [json.dumps({"cmd": "snap", "strategy": "pick"})])
    assert responses == [{"err": "no samples"}]


def test_snap_with_too_few_points(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path, count=5) + [json.dumps({"cmd": "snap"})]
        responses = talk(server.address, lines)
    errs = [r for r in responses if "err" in r]
    assert errs == [{"err": "insufficient samples: 5 of 15"}]


@pytest.mark.parametrize("n", [0, -3, 2.7, True, 257, "15"])
def test_snap_rejects_bad_sample_count(tmp_path, n):
    targets, areas = registries()
    session = LiveSession(make_settings(tmp_path), targets, areas)
    for line in stream_lines(tmp_path):
        session.handle_line(line)
    replies = session.handle_line(json.dumps({"cmd": "snap", "strategy": "pick", "n": n}))
    assert [set(json.loads(r)) for r in replies] == [{"err"}]
    ok = json.loads(session.handle_line(json.dumps({"cmd": "snap", "n": 20}))[0])
    assert ok["ok"] is True and ok["id"] == "goal"


def test_overflowing_frame_answered_with_err_and_session_kept(tmp_path):
    targets, areas = registries()
    session = LiveSession(make_settings(tmp_path), targets, areas)
    huge = {"t": 0.0, "joints": {"right_shoulder": {"x": 1e308, "y": 1e308, "z": 1e308},
                                 "right_wrist": {"x": -1e308, "y": -1e308, "z": -1e308}}}
    replies = session.handle_line(json.dumps(huge))
    assert [set(json.loads(r)) for r in replies] == [{"err"}]
    assert len(session.handle_line(stream_lines(tmp_path, count=1)[0])) == 1


def test_malformed_lines_answered_without_terminating(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = [
            "{broken json",
            json.dumps({"cmd": "launch"}),
            json.dumps({"cmd": "snap", "strategy": "sideways"}),
            json.dumps({"t": 0.0, "joints": {"right_wrist": {"x": 0, "y": 0, "c": 2}}}),
            stream_lines(tmp_path, count=1)[0],
        ]
        responses = talk(server.address, lines)
    assert sum("err" in r for r in responses) == 4
    assert sum("u" in r for r in responses) == 1  # the session survived to process it


def test_concurrent_sessions_have_independent_buffers(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path)
        snap_cmd = json.dumps({"cmd": "snap", "strategy": "pick"})
        with socket.create_connection(server.address, timeout=10) as first:
            # session A accumulates 20 points and holds its connection open
            first.sendall(("\n".join(lines) + "\n").encode("utf-8"))
            reader = first.makefile("r", encoding="utf-8")
            for _ in range(20):
                assert "u" in json.loads(reader.readline())
            # session B, opened while A is live, has no samples of its own
            responses = talk(server.address, [snap_cmd])
            assert responses == [{"err": "no samples"}]
            # session A still snaps fine afterwards
            first.sendall((snap_cmd + "\n").encode("utf-8"))
            snap = json.loads(reader.readline())
            assert snap["ok"] is True and snap["id"] == "goal"


def test_intrinsics_header_enables_2d_joints(tmp_path):
    targets, areas = registries()
    session = LiveSession(make_settings(tmp_path), targets, areas)
    header = json.dumps(
        {"intrinsics": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480}}
    )
    assert session.handle_line(header) == []
    record = json.dumps(
        {
            "t": 0.0,
            "joints": {
                "right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.6, "c": 0.9},
                "right_wrist": {"px": 320, "py": 240, "depth": 0.2, "c": 0.9},
            },
        }
    )
    out = session.handle_line(record)
    assert len(out) <= 1  # parses; may or may not intersect in-bounds
    no_header = LiveSession(make_settings(tmp_path), targets, areas)
    assert "err" in json.loads(no_header.handle_line(record)[0])


@pytest.mark.parametrize("seed,target,sigma", [
    (11, "0.2, 0.3, 0.0", 0.0),
    (12, "0.45, 0.55, 0.0", 0.008),
    (13, "0.1, 0.7, 0.0", 0.015),
])
def test_replay_and_live_emit_identical_sequences(tmp_path, seed, target, sigma):
    plane_file = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", target=target, sigma=sigma, seed=seed, count=40)
    stream_path = tmp_path / "stream.jsonl"
    assert run_cli(["generate", "--scenario", str(scenario), "--out", str(stream_path)]) == 0
    replay_out = tmp_path / "replay.jsonl"
    assert run_cli(["replay", "--plane", str(plane_file), "--stream", str(stream_path),
                    "--out", str(replay_out)]) == 0
    plane, frame, _, _ = load_plane_file(str(plane_file))
    settings = PipelineSettings(plane=plane, frame=frame)
    with LiveServer("127.0.0.1", 0, settings) as server:
        live_lines = talk(server.address, stream_path.read_text(encoding="utf-8").splitlines())
    replay_lines = [json.loads(l) for l in replay_out.read_text(encoding="utf-8").splitlines()]
    assert live_lines == replay_lines


def test_per_frame_path_runs_no_finiteness_check(tmp_path, monkeypatch):
    base = make_settings(tmp_path)
    sessions = [LiveSession(dataclasses.replace(base, frame_mode=mode), *registries())
                for mode in ("workplane", "camera")]
    for session in sessions:  # the header is a boundary: its intrinsics are checked once
        assert session.handle_line(json.dumps({"intrinsics": INTRINSICS})) == []

    def forbidden(*args):
        raise AssertionError("finiteness check on the per-frame path")

    lines = stream_lines(tmp_path) + [json.dumps(wrist_frame("px", 330))]
    monkeypatch.setattr("gesturepoint.geometry._require_finite", forbidden)
    for session in sessions:
        replies = [session.handle_line(line) for line in lines]
        assert all(len(r) == 1 for r in replies[:-1])


# --- fuzzing the line boundary ---------------------------------------------------

_NUMBERS = (
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, 5e-324, 0, 0.5, 1])
    | st.floats()
    | st.integers()
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _some_of(keys, values):
    return st.fixed_dictionaries({}, optional={k: values for k in keys})


_JOINT_NAMES = st.sampled_from(["right_shoulder", "right_elbow", "right_wrist", "left_wrist", "nose"])
_FRAME = st.fixed_dictionaries({"t": _NUMBERS | _JSON}, optional={
    "joints": st.dictionaries(_JOINT_NAMES, _some_of(["x", "y", "z", "px", "py", "depth", "c"], _NUMBERS) | _JSON,
                              max_size=3) | _JSON,
    "source": _JSON,
})
_HEADER = st.fixed_dictionaries({"intrinsics": _some_of(sorted(INTRINSICS), _NUMBERS) | _JSON})
_SNAP = st.fixed_dictionaries({"cmd": st.just("snap") | _JSON}, optional={
    "strategy": st.sampled_from(["pick", "place"]) | _JSON,
    "n": _NUMBERS | _JSON,
    "hand": st.sampled_from(["right", "left"]) | _JSON,
    "group": _JSON,
})
_LINES = st.lists((_FRAME | _HEADER | _SNAP | _JSON).map(json.dumps) | st.text(max_size=20), max_size=8)
_DESK = plane_from_corners(desk_corners())
_DESK_SETTINGS = PipelineSettings(plane=_DESK, frame=workplane_frame(_DESK))
# 20 points aimed at the "goal" target, so snap lines reach evaluate_request
_WARM_UP = [json.dumps(wrist_frame("t", k / 30)) for k in range(20)]


def _refuse_constant(name):
    raise AssertionError(f"reply holds the non-JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(lines=_LINES)
@example(lines=["1" * 5000, "[" * 100_000, '{"t": 0, "joints": {"right_wrist": {"x": ' + "9" * 400 + ', "y": 0, "z": 1}}}',
                '{"intrinsics": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": Infinity, "height": 480}}',
                '{"cmd": "snap", "n": NaN}', '{"cmd": "snap", "strategy": "place", "n": 20}'])
def test_handle_line_fuzz_never_raises_and_answers_in_json(lines):
    session = LiveSession(_DESK_SETTINGS, *registries())
    for line in _WARM_UP:
        session.handle_line(line)
    for line in lines:
        replies = session.handle_line(line)
        for reply in replies:
            assert isinstance(json.loads(reply, parse_constant=_refuse_constant), dict)
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict) and "cmd" in obj:
            assert len(replies) == 1
    # the session survives whatever came before
    assert len(session.handle_line(json.dumps(wrist_frame("t", 99.0)))) == 1
