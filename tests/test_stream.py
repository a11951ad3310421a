"""Stream tests: JSONL parsing, arm rays, and the synthetic generator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import INTRINSICS, JOINT_FIELDS, desk_corners, non_finite, wrist_frame, write_scenario_file
from gesturepoint.evaluation import ScenarioTemplate, mean_intersection_error
from gesturepoint.geometry import (
    CameraIntrinsics,
    Point3,
    intersect_ray_plane,
    plane_from_corners,
    workplane_frame,
)
from gesturepoint.live import LiveSession
from gesturepoint.pipeline import PipelineSettings
from gesturepoint.snap import AreaRegistry, TargetRegistry
from gesturepoint.stream import (
    MAX_JOINT_COORD,
    GestureScenario,
    MalformedRecordError,
    StreamError,
    StreamReader,
    TargetUnreachableError,
    arm_ray,
    generate_scenario,
    load_scenario_config,
    parse_frame,
    parse_intrinsics_header,
    parse_triplet,
    sample_joint_positions,
    serialize_frame,
    write_stream,
)

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def make_scenario(**overrides) -> GestureScenario:
    params = dict(
        plane=plane_from_corners(desk_corners()),
        shoulder_base=Point3(0.3, -0.1, 0.6),
        target=Point3(0.3, 0.4, 0.0),
        noise_sigma=0.0,
        arm_length=0.55,
        sample_count=30,
        rng_seed=42,
    )
    params.update(overrides)
    return GestureScenario(**params)


# --- parsing ------------------------------------------------------------------


def test_parse_frame_basic():
    line = json.dumps(
        {
            "t": 1.5,
            "source": "cam0",
            "joints": {
                "right_shoulder": {"x": 0.0, "y": 0.0, "z": 1.0, "c": 0.9},
                "right_wrist": {"x": 0.0, "y": 0.0, "z": 0.5, "c": 0.8},
            },
        }
    )
    frame = parse_frame(line)
    assert frame.timestamp == 1.5
    assert frame.source_id == "cam0"
    assert set(frame.joints) == {"right_shoulder", "right_wrist"}
    assert frame.joint("right_wrist").position == Point3(0.0, 0.0, 0.5)
    assert frame.joint("right_wrist").confidence == 0.8


def test_parse_frame_ignores_unknown_joints():
    frame = parse_frame(
        {"t": 0.0, "joints": {"nose": {"x": 1, "y": 1, "z": 1, "c": 1}, "left_wrist": {"x": 0, "y": 0, "z": 1, "c": 1}}}
    )
    assert set(frame.joints) == {"left_wrist"}


def test_parse_frame_confidence_out_of_range():
    with pytest.raises(MalformedRecordError):
        parse_frame({"t": 0.0, "joints": {"right_wrist": {"x": 0, "y": 0, "z": 1, "c": 1.3}}})


def test_parse_frame_bad_json_and_missing_fields():
    with pytest.raises(MalformedRecordError):
        parse_frame("{not json")
    with pytest.raises(MalformedRecordError):
        parse_frame({"joints": {}})
    with pytest.raises(MalformedRecordError):
        parse_frame({"t": 0.0, "joints": {"right_wrist": {"x": 0, "y": 0, "c": 1}}})


def test_parse_frame_2d_form_deprojects():
    record = {"t": 0.0, "joints": {"right_wrist": {"px": 320, "py": 240, "depth": 1.0, "c": 1.0}}}
    frame = parse_frame(record, INTR)
    assert frame.joint("right_wrist").position == Point3(0.0, 0.0, 1.0)


def test_parse_frame_2d_form_requires_intrinsics():
    record = {"t": 0.0, "joints": {"right_wrist": {"px": 320, "py": 240, "depth": 1.0, "c": 1.0}}}
    with pytest.raises(MalformedRecordError):
        parse_frame(record)


def test_parse_frame_rejects_joints_beyond_coordinate_bound():
    at_bound = {"x": MAX_JOINT_COORD, "y": -MAX_JOINT_COORD, "z": 1.0}
    assert parse_frame({"t": 0.0, "joints": {"right_wrist": at_bound}}).joint("right_wrist")
    for spec in ({"x": 1e308, "y": 1e308, "z": 1e308}, {"x": 0.0, "y": -2 * MAX_JOINT_COORD, "z": 1.0}):
        with pytest.raises(MalformedRecordError, match="beyond"):
            parse_frame({"t": 0.0, "joints": {"right_shoulder": spec}})
    # the 2D form is bounded after deprojection
    deep = {"px": 0, "py": 0, "depth": 1e300, "c": 1.0}
    with pytest.raises(MalformedRecordError, match="beyond"):
        parse_frame({"t": 0.0, "joints": {"right_wrist": deep}}, INTR)


# --- input boundaries: NaN and infinities are rejected where they enter --------


@non_finite
@pytest.mark.parametrize("field", ("t",) + JOINT_FIELDS)
def test_parse_frame_rejects_non_finite_values(field, bad):
    with pytest.raises(MalformedRecordError):
        parse_frame(json.dumps(wrist_frame(field, bad)), INTR)


@non_finite
@pytest.mark.parametrize("key", sorted(INTRINSICS))
def test_intrinsics_header_rejects_non_finite_values(key, bad):
    with pytest.raises(MalformedRecordError):
        parse_intrinsics_header(json.dumps({"intrinsics": dict(INTRINSICS, **{key: bad})}))


@non_finite
@pytest.mark.parametrize("field", ("t",) + JOINT_FIELDS + tuple(sorted(INTRINSICS)))
def test_live_answers_non_finite_stream_value_with_err_and_keeps_session(field, bad):
    plane = plane_from_corners(desk_corners())
    session = LiveSession(
        PipelineSettings(plane=plane, frame=workplane_frame(plane)), TargetRegistry(), AreaRegistry()
    )
    assert session.handle_line(json.dumps({"intrinsics": INTRINSICS})) == []
    if field in INTRINSICS:
        line = json.dumps({"intrinsics": dict(INTRINSICS, **{field: bad})})
    else:
        line = json.dumps(wrist_frame(field, bad))
    assert [set(json.loads(r)) for r in session.handle_line(line)] == [{"err"}]
    (point,) = [json.loads(r) for r in session.handle_line(json.dumps(wrist_frame("t", 1.0)))]
    assert (point["u"], point["v"]) == pytest.approx((0.3, 0.3))


@non_finite
@pytest.mark.parametrize("position", range(3))
def test_parse_triplet_rejects_non_finite_numbers(position, bad):
    parts = ["0.1", "0.2", "0.3"]
    parts[position] = repr(bad)
    with pytest.raises(StreamError):
        parse_triplet(", ".join(parts), "target")


@non_finite
@pytest.mark.parametrize("field", ["noise_sigma", "aim_bias_sigma", "arm_length", "frame_rate"])
def test_scenario_rejects_non_finite_parameters(field, bad):
    with pytest.raises(StreamError):
        make_scenario(**{field: bad})


def test_serialize_parse_round_trip():
    line = json.dumps(
        {
            "t": 0.25,
            "source": "s",
            "joints": {
                "left_wrist": {"x": 0.1, "y": -0.2, "z": 0.9, "c": 0.5},
                "left_shoulder": {"x": 0.0, "y": 0.1, "z": 1.1, "c": 0.7},
            },
        }
    )
    frame = parse_frame(line)
    canonical = serialize_frame(frame)
    assert parse_frame(canonical) == frame
    assert serialize_frame(parse_frame(canonical)) == canonical


def test_stream_reader_header_and_warnings():
    lines = [
        json.dumps({"intrinsics": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480}}),
        json.dumps({"t": 0.0, "joints": {"right_wrist": {"px": 320, "py": 240, "depth": 1.0, "c": 1.0}}}),
        json.dumps({"t": 1.0, "joints": {}}),
        json.dumps({"t": 0.5, "joints": {}}),  # goes backwards: warning, not error
    ]
    reader = StreamReader(lines)
    frames = list(reader)
    assert len(frames) == 3
    assert frames[0].joint("right_wrist").position == Point3(0.0, 0.0, 1.0)
    assert reader.nonmonotonic == 1
    assert reader.malformed == 0


def test_stream_reader_skip_malformed_counts():
    lines = [
        json.dumps({"t": 0.0, "joints": {}}),
        "{broken",
        json.dumps({"t": 1.0, "joints": {}}),
    ]
    reader = StreamReader(lines, skip_malformed=True)
    assert len(list(reader)) == 2
    assert reader.malformed == 1
    strict = StreamReader(lines)
    with pytest.raises(MalformedRecordError):
        list(strict)


# --- arm rays ------------------------------------------------------------------


def _frame_with(joints):
    return parse_frame({"t": 0.0, "joints": joints})


def test_arm_ray_present():
    frame = _frame_with(
        {
            "right_shoulder": {"x": 0, "y": 0, "z": 1, "c": 0.9},
            "right_wrist": {"x": 0, "y": 0, "z": 0.5, "c": 0.9},
        }
    )
    ray = arm_ray(frame, "right")
    assert ray is not None
    assert ray.start == Point3(0, 0, 1)
    assert ray.through == Point3(0, 0, 0.5)


def test_arm_ray_low_confidence():
    frame = _frame_with(
        {
            "right_shoulder": {"x": 0, "y": 0, "z": 1, "c": 0.9},
            "right_wrist": {"x": 0, "y": 0, "z": 0.5, "c": 0.1},
        }
    )
    assert arm_ray(frame, "right", min_confidence=0.3) is None
    assert arm_ray(frame, "right", min_confidence=0.05) is not None


def test_arm_ray_missing_joint_and_degenerate():
    only_wrist = _frame_with({"right_wrist": {"x": 0, "y": 0, "z": 0.5, "c": 0.9}})
    assert arm_ray(only_wrist, "right") is None
    coincident = _frame_with(
        {
            "right_shoulder": {"x": 0, "y": 0, "z": 1, "c": 0.9},
            "right_wrist": {"x": 0, "y": 0, "z": 1, "c": 0.9},
        }
    )
    assert arm_ray(coincident, "right") is None


def test_arm_ray_elbow_pair():
    frame = _frame_with(
        {
            "left_shoulder": {"x": 0, "y": 0, "z": 1.2, "c": 0.9},
            "left_elbow": {"x": 0, "y": 0, "z": 1.0, "c": 0.9},
            "left_wrist": {"x": 0, "y": 0, "z": 0.5, "c": 0.9},
        }
    )
    ray = arm_ray(frame, "left", pair="elbow_wrist")
    assert ray.start == Point3(0, 0, 1.0)


# --- scenarios ------------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(Exception):
        make_scenario(target=Point3(0.3, 0.4, 0.2))  # off the plane
    with pytest.raises(Exception):
        make_scenario(noise_sigma=-0.1)
    with pytest.raises(Exception):
        make_scenario(sample_count=0)
    with pytest.raises(TargetUnreachableError):
        make_scenario(arm_length=0.9)  # reaches past the target


def test_generator_deterministic_bitwise():
    scenario = make_scenario(noise_sigma=0.01, aim_bias_sigma=0.005)
    first = [serialize_frame(f) for f in generate_scenario(scenario)]
    second = [serialize_frame(f) for f in generate_scenario(scenario)]
    assert first == second
    other_seed = make_scenario(noise_sigma=0.01, aim_bias_sigma=0.005, rng_seed=43)
    assert [serialize_frame(f) for f in generate_scenario(other_seed)] != first


def test_generator_timestamps_step():
    frames = list(generate_scenario(make_scenario(sample_count=4)))
    assert [f.timestamp for f in frames] == [0.0, 1 / 30, 2 / 30, 3 / 30]


def test_noiseless_frames_intersect_exactly_at_target():
    scenario = make_scenario(noise_sigma=0.0)
    for frame in generate_scenario(scenario):
        ray = arm_ray(frame, "right")
        hit = intersect_ray_plane(ray.start, ray.through, scenario.plane)
        err = (hit.point - scenario.target).norm()
        assert err < 1e-9


def test_vectorized_sampling_matches_generator():
    scenario = make_scenario(noise_sigma=0.013, aim_bias_sigma=0.004, sample_count=50)
    shoulders, wrists = sample_joint_positions(scenario)
    assert shoulders.shape == wrists.shape == (1, 50, 3)
    for i, frame in enumerate(generate_scenario(scenario)):
        assert frame.joint("right_shoulder").position.as_tuple() == tuple(shoulders[0, i])
        assert frame.joint("right_wrist").position.as_tuple() == tuple(wrists[0, i])


def test_calibration_sampling_draws_one_bias_and_one_frame_per_trial():
    scenario = make_scenario(noise_sigma=0.013, aim_bias_sigma=0.004, rng_seed=7)
    trials = 64
    shoulders, wrists = sample_joint_positions(scenario, trials=trials, frames=1)
    assert shoulders.shape == wrists.shape == (trials, 1, 3)
    rng = np.random.default_rng(7)
    bias = 0.004 * rng.standard_normal((trials, 2))
    eps = rng.standard_normal((trials, 2, 3))
    base = np.array([0.3, -0.1, 0.6])
    np.testing.assert_array_equal(shoulders[:, 0], base + 0.013 * eps[:, 0])
    # the desk plane's in-plane axes are world x and y, so the bias shifts
    # the aim point by (du, dv, 0); the ideal wrist is 0.55 m toward it
    aims = np.column_stack([0.3 + bias[:, 0], 0.4 + bias[:, 1], np.zeros(trials)])
    reach = aims - base
    ideal = base + 0.55 * reach / np.linalg.norm(reach, axis=1, keepdims=True)
    np.testing.assert_allclose(wrists[:, 0], ideal + 0.013 * eps[:, 1], rtol=0, atol=1e-15)


def test_mean_error_monotone_in_sigma():
    plane = plane_from_corners(desk_corners())
    template = ScenarioTemplate(
        plane=plane,
        frame=workplane_frame(plane),
        shoulder_base=Point3(0.3, -0.1, 0.6),
        arm_length=0.55,
        sigma=0.0,
    )
    target = Point3(0.3, 0.4, 0.0)
    errors = [
        mean_intersection_error(template, target, s, samples=10_000, seed=99)
        for s in (0.0, 0.002, 0.005, 0.01, 0.02, 0.04)
    ]
    assert errors[0] < 1e-9
    for lo, hi in zip(errors, errors[1:]):
        assert hi >= lo * 0.95  # non-decreasing within Monte-Carlo slack


# --- files ------------------------------------------------------------------


def test_write_and_read_stream(tmp_path):
    scenario = make_scenario(noise_sigma=0.01, sample_count=10)
    path = tmp_path / "stream.jsonl"
    count = write_stream(path, generate_scenario(scenario))
    assert count == 10
    with open(path, "r", encoding="utf-8") as fh:
        frames = list(StreamReader(fh))
    assert len(frames) == 10
    assert frames[0] == next(iter(generate_scenario(scenario)))


def test_scenario_config_round_trip(tmp_path):
    path = write_scenario_file(tmp_path / "scenario.cfg", sigma=0.012, seed=9, count=25)
    scenario = load_scenario_config(path)
    assert scenario.noise_sigma == 0.012
    assert scenario.rng_seed == 9
    assert scenario.sample_count == 25
    assert scenario.shoulder_base == Point3(0.3, -0.1, 0.6)
    assert scenario.plane.normal.z == pytest.approx(1.0)


def test_scenario_config_missing_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sigma = 0.1\n", encoding="utf-8")
    with pytest.raises(Exception, match="missing keys"):
        load_scenario_config(path)
