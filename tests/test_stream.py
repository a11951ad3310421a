"""Stream tests: JSONL parsing, arm rays (through ``GesturePipeline.process``),
and the synthetic generator."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    INTRINSICS,
    JOINT_FIELDS,
    desk_corners,
    non_finite,
    unit_square_plane,
    wrist_frame,
    write_scenario_file,
)
from gesturepoint.evaluation import (
    ScenarioTemplate,
    draw_joint_noise,
    generate_scenario,
    ideal_wrists,
    load_scenario_config,
    mean_intersection_error,
    noisy_joints,
)
from gesturepoint.geometry import (
    CameraIntrinsics,
    GeometryError,
    Point3,
    deproject,
    from_workplane,
    plane_from_corners,
    workplane_frame,
)
from gesturepoint.live import LiveSession
from gesturepoint.pipeline import GesturePipeline, PipelineSettings
from gesturepoint.snap import AreaRegistry, TargetRegistry
from gesturepoint.stream import (
    MAX_JOINT_COORD,
    KeypointFrame,
    MalformedRecordError,
    StreamError,
    StreamReader,
    decimal_int,
    decode_object,
    finite_float,
    json_number,
    parse_frame,
    parse_intrinsics_header,
    parse_triplet,
    serialize_frame,
    write_document,
    write_stream,
)

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


TARGET = Point3(0.3, 0.4, 0.0)


def make_template(**overrides) -> ScenarioTemplate:
    plane = plane_from_corners(desk_corners())
    params = dict(
        plane=plane,
        shoulder_base=Point3(0.3, -0.1, 0.6),
        arm_length=0.55,
        sigma=0.0,
    )
    params.update(overrides)
    return ScenarioTemplate(**params)


def sampled(template: ScenarioTemplate, target: Point3, seed: int, trials: int, frames: int):
    """(shoulders, wrists) of ``trials`` gestures at ``target``: the sampler's
    draw and placement steps, chained."""
    bias, eps = draw_joint_noise(seed, template.aim_bias_sigma, trials, frames)
    ideal = ideal_wrists(template, np.array(target.as_tuple()), bias)
    return noisy_joints(template.shoulder_base, ideal, eps, template.sigma)


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
    frame = parse_frame(json.loads(line))
    assert frame.timestamp == 1.5
    assert frame.source_id == "cam0"
    assert set(frame.joints) == {"right_shoulder", "right_wrist"}
    assert frame.joints["right_wrist"] == (0.0, 0.0, 0.5, 0.8)


def test_parse_frame_ignores_unknown_joints():
    frame = parse_frame(
        {"t": 0.0, "joints": {"nose": {"x": 1, "y": 1, "z": 1, "c": 1}, "left_wrist": {"x": 0, "y": 0, "z": 1, "c": 1}}}
    )
    assert set(frame.joints) == {"left_wrist"}


def test_parse_frame_confidence_out_of_range():
    with pytest.raises(MalformedRecordError):
        parse_frame({"t": 0.0, "joints": {"right_wrist": {"x": 0, "y": 0, "z": 1, "c": 1.3}}})


def test_parse_frame_bad_json_and_missing_fields():
    # a line is decoded before it is parsed: bad JSON fails there
    for line in ("{not json", "[1, 2]"):
        with pytest.raises(MalformedRecordError):
            decode_object(line, MalformedRecordError)
        with pytest.raises(MalformedRecordError, match="line 1: "):
            list(StreamReader([line]))
    with pytest.raises(MalformedRecordError):
        parse_frame({"joints": {}})
    with pytest.raises(MalformedRecordError):
        parse_frame({"t": 0.0, "joints": {"right_wrist": {"x": 0, "y": 0, "c": 1}}})


def test_parse_frame_2d_form_deprojects():
    record = {"t": 0.0, "joints": {"right_wrist": {"px": 320, "py": 240, "depth": 1.0, "c": 1.0}}}
    frame = parse_frame(record, INTR)
    assert frame.joints["right_wrist"] == (0.0, 0.0, 1.0, 1.0)


def test_parse_frame_2d_form_requires_intrinsics():
    record = {"t": 0.0, "joints": {"right_wrist": {"px": 320, "py": 240, "depth": 1.0, "c": 1.0}}}
    with pytest.raises(MalformedRecordError):
        parse_frame(record)


def test_parse_frame_rejects_joints_beyond_coordinate_bound():
    at_bound = {"x": MAX_JOINT_COORD, "y": -MAX_JOINT_COORD, "z": 1.0}
    assert parse_frame({"t": 0.0, "joints": {"right_wrist": at_bound}}).joints["right_wrist"]
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
        parse_frame(wrist_frame(field, bad), INTR)


_FLOAT_MAX = int(sys.float_info.max)
_HALF_ULP = 2 ** 970  # half the float spacing at the top of the range


@given(st.none() | st.booleans() | st.integers() | st.floats() | st.text()
       | st.sampled_from([_FLOAT_MAX, _FLOAT_MAX + _HALF_ULP - 1, _FLOAT_MAX + _HALF_ULP, -10 ** 400, -0.0]))
def test_json_number_reads_exactly_the_ints_and_floats_a_finite_float_holds(value):
    accepted = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        accepted = accepted and math.isfinite(float(value))
    except OverflowError:
        accepted = False
    if accepted:
        number = json_number(value, StreamError, "value")
        assert type(number) is float and repr(number) == repr(float(value))
    else:
        with pytest.raises(StreamError, match="value: expected a finite JSON number"):
            json_number(value, StreamError, "value")


# --- the parser's fast paths against plain references --------------------------------

def _reference_frame(record: dict, intrinsics: CameraIntrinsics | None) -> KeypointFrame:
    """``parse_frame`` with no fast path: every number read by ``json_number``
    and every check made, in the order the module docstring states them."""
    timestamp = json_number(record.get("t"), MalformedRecordError, 'timestamp "t"')
    raw = record.get("joints", {})
    if not isinstance(raw, dict):
        raise MalformedRecordError('"joints" must be an object')
    joints = {}
    for name, spec in raw.items():
        if name not in _KNOWN_JOINTS:
            continue
        if not isinstance(spec, dict):
            raise MalformedRecordError(f"joint {name!r} must be an object")

        def number(key):
            return json_number(spec[key], MalformedRecordError, "joint", name)

        if "x" in spec and "y" in spec and "z" in spec:
            x, y, z = number("x"), number("y"), number("z")
        elif "px" in spec and "py" in spec and "depth" in spec:
            if intrinsics is None:
                raise MalformedRecordError(f"joint {name!r} uses the 2D form without intrinsics")
            px, py, depth = number("px"), number("py"), number("depth")
            try:
                x, y, z = deproject((px, py), depth, intrinsics).as_tuple()
            except GeometryError as exc:
                raise MalformedRecordError(f"joint {name!r}: {exc}") from exc
        else:
            raise MalformedRecordError(f"joint {name!r} has neither x/y/z nor px/py/depth")
        if not (abs(x) <= MAX_JOINT_COORD and abs(y) <= MAX_JOINT_COORD and abs(z) <= MAX_JOINT_COORD):
            raise MalformedRecordError(f"joint {name!r} lies beyond {MAX_JOINT_COORD:g} m")
        confidence = json_number(spec.get("c", 1.0), MalformedRecordError, "joint", name)
        if not 0.0 <= confidence <= 1.0:
            raise MalformedRecordError(f"confidence {confidence} outside [0, 1]")
        joints[name] = (x, y, z, confidence)
    return KeypointFrame(timestamp, joints, str(record.get("source", "")))


def _reference_decode(text, source=""):
    """``decode_object`` as ``json.loads`` and a type test."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecordError(f"{source}: invalid JSON: {exc}" if source else f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedRecordError(f"{source or 'record'} must be a JSON object, got {type(doc).__name__}")
    return doc


def _outcome(fn, *args):
    """What ``fn`` returns (its repr, which tells -0.0, NaN and float types
    apart), or the type and message of what it raises."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - any exception must be the reference's
        return type(exc).__name__, str(exc)


_KNOWN_JOINTS = [f"{side}_{part}" for side in ("left", "right") for part in ("shoulder", "elbow", "wrist")]
_MISSING = object()  # a key left out
# what the input fuzz puts where a number belongs: a bool, a numeric string,
# null, a container, a huge or non-finite number, an int, a bound
_MUTATIONS = [True, False, "0.5", "1e3", None, [], [0.5], {}, {"x": 0.5}, 1e308, -1e308, 10**400, math.nan,
              math.inf, -math.inf, 0, 1, -2, 700, MAX_JOINT_COORD, -MAX_JOINT_COORD, 2 * MAX_JOINT_COORD,
              5e-324, -0.0, 1.5, _MISSING]
_VALID = {"x": st.floats(-2.0, 2.0), "y": st.floats(-2.0, 2.0), "z": st.floats(0.05, 3.0),
          "px": st.floats(0.0, 639.9), "py": st.floats(0.0, 479.9), "depth": st.floats(0.05, 3.0),
          "c": st.floats(0.0, 1.0), "t": st.floats(0.0, 1e4)}


def _mostly(valid, weight: int):
    """``valid`` ``weight`` times as often as a mutation."""
    return st.sampled_from(range(weight + 1)).flatmap(lambda k: valid if k else st.sampled_from(_MUTATIONS))


def _field(key, weight=3):
    return _mostly(_VALID[key], weight)


def _kept(d: dict) -> dict:
    return {k: v for k, v in d.items() if v is not _MISSING}


_FORMS = (("x", "y", "z", "c"), ("px", "py", "depth", "c"))
_JOINT = st.one_of(
    *(st.fixed_dictionaries({k: _VALID[k] for k in keys}) for keys in _FORMS),
    *(st.fixed_dictionaries({k: _field(k) for k in keys}).map(_kept) for keys in (*_FORMS, _FORMS[0] + _FORMS[1])),
    st.sampled_from(_MUTATIONS[:9]),  # a joint that is no object
)
_JOINTS = st.dictionaries(st.sampled_from(_KNOWN_JOINTS + ["nose", "head"]), _JOINT, max_size=5)
_RECORD = st.fixed_dictionaries(
    {"t": _field("t", 8), "joints": _mostly(_JOINTS, 8)},
    optional={"source": st.text(max_size=4) | st.integers() | st.none()},
).map(_kept)


@settings(max_examples=400, deadline=None)
@given(record=_RECORD, with_intrinsics=st.booleans())
def test_parse_frame_gives_the_reference_frame_or_error(record, with_intrinsics):
    intrinsics = INTR if with_intrinsics else None
    assert _outcome(parse_frame, record, intrinsics) == _outcome(_reference_frame, record, intrinsics)


@pytest.mark.parametrize("form", ["3d", "pixel"])
def test_parse_frame_gives_the_reference_for_every_mutation_of_every_field(form):
    """A valid frame with one field replaced by each mutation, or left out."""
    joint = ({"x": 0.3, "y": -0.1, "z": 0.6, "c": 0.9} if form == "3d"
             else {"px": 330.5, "py": 240.25, "depth": 0.53, "c": 0.9})
    for key in ["t", "joints", *joint]:
        for mutation in _MUTATIONS:
            wrist = dict(joint)
            record = {"t": 0.5, "joints": {"right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.6}, "right_wrist": wrist}}
            target = record if key in ("t", "joints") else wrist
            target[key] = mutation
            if mutation is _MISSING:
                del target[key]
            for intrinsics in (None, INTR):
                assert _outcome(parse_frame, record, intrinsics) == _outcome(_reference_frame, record, intrinsics)


# fx = 100 with px - cx = 200 deprojects x to about twice the depth, so a depth
# within MAX_JOINT_COORD can put x just beyond it
_INTR_WIDE = CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0, width=640, height=480)


def _least_depth_beyond_bound(px: float) -> float:
    """The least depth whose deprojected x through ``_INTR_WIDE`` lies beyond MAX_JOINT_COORD."""
    depth = MAX_JOINT_COORD * _INTR_WIDE.fx / (px - _INTR_WIDE.cx)
    while (px - _INTR_WIDE.cx) * depth / _INTR_WIDE.fx > MAX_JOINT_COORD:
        depth = math.nextafter(depth, 0.0)
    while (px - _INTR_WIDE.cx) * depth / _INTR_WIDE.fx <= MAX_JOINT_COORD:
        depth = math.nextafter(depth, math.inf)
    return depth


_BEYOND = _least_depth_beyond_bound(520.0)
_PIXEL_BORDERS = {
    "px-at-width": {"px": 640.0, "py": 240.25, "depth": 0.53, "c": 0.9},
    "px-below-width": {"px": math.nextafter(640.0, 0.0), "py": 240.25, "depth": 0.53, "c": 0.9},
    "py-zero": {"px": 330.5, "py": 0.0, "depth": 0.53, "c": 0.9},
    "py-at-height": {"px": 330.5, "py": 480.0, "depth": 0.53, "c": 0.9},
    "least-depth": {"px": 330.5, "py": 240.25, "depth": 5e-324, "c": 0.9},
    "depth-at-bound": {"px": 330.5, "py": 240.25, "depth": MAX_JOINT_COORD, "c": 0.9},
    "x-beyond-bound": {"px": 520.0, "py": 240.25, "depth": _BEYOND, "c": 0.9},
    "x-within-bound": {"px": 520.0, "py": 240.25, "depth": math.nextafter(_BEYOND, 0.0), "c": 0.9},
    "int-px-py": {"px": 330, "py": 240, "depth": 0.53, "c": 0.9},
    "no-c": {"px": 330.5, "py": 240.25, "depth": 0.53},
    "x-and-px": {"x": 0.3, "y": -0.1, "z": 0.6, "px": 330.5, "py": 240.25, "depth": 0.53, "c": 0.9},
    "int-x-and-px": {"x": 1, "y": -0.1, "z": 0.6, "px": 330.5, "py": 240.25, "depth": 0.53, "c": 0.9},
    "null-x-and-px": {"x": None, "y": -0.1, "z": 0.6, "px": 330.5, "py": 240.25, "depth": 0.53, "c": 0.9},
    "x-only-and-px": {"x": 0.3, "px": 330.5, "py": 240.25, "depth": 0.53, "c": 0.9},
}


@pytest.mark.parametrize("joint", list(_PIXEL_BORDERS.values()), ids=list(_PIXEL_BORDERS))
def test_parse_frame_pixel_fast_path_gives_the_reference_at_its_borders(joint):
    """Pixel joints at the edges of the image, of the depth range and of the
    coordinate bound, with int fields, without ``c`` and beside 3D keys: the
    values and messages of the full path, through either camera and none."""
    record = {"t": 0.5, "joints": {"right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.6}, "right_wrist": joint}}
    for intrinsics in (INTR, _INTR_WIDE, None):
        assert _outcome(parse_frame, record, intrinsics) == _outcome(_reference_frame, record, intrinsics)


def test_pixel_border_depths_straddle_the_coordinate_bound():
    """The two depths above put the deprojected x one step either side of MAX_JOINT_COORD."""
    for key, verdict in (("x-beyond-bound", "MalformedRecordError"), ("x-within-bound", "ok")):
        record = {"t": 0.5, "joints": {"right_wrist": _PIXEL_BORDERS[key]}}
        assert _outcome(parse_frame, record, _INTR_WIDE)[0] == verdict


_TEXT_OBJECTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(value=_TEXT_OBJECTS | _RECORD, before=st.sampled_from(["", " ", "\n", "\ufeff", "\t "]),
       after=st.sampled_from(["", " ", "\n", " {}", "x", ",", "\ufeff"]), cut=st.none() | st.integers(0, 60),
       as_bytes=st.booleans(), source=st.sampled_from(["", "f.json"]))
@example(value={}, before="", after="", cut=None, as_bytes=False, source="")
@example(value=[[]], before="", after="", cut=None, as_bytes=False, source="f.json")
def test_decode_object_gives_json_loads_value_or_error(value, before, after, cut, as_bytes, source):
    text = before + json.dumps(value) + after
    text = text if cut is None else text[:cut]
    data = text.encode("utf-8") if as_bytes else text
    assert (_outcome(decode_object, data, MalformedRecordError, source)
            == _outcome(_reference_decode, data, source))


@pytest.mark.parametrize("text", ["[" * 100_000, "{\"a\": " + "[" * 100_000, "{\"a\": " + "9" * 5000 + "}",
                                  "{\"a\": NaN, \"b\": -Infinity}", "{\"a\": 1}{}", "{\"a\": 1", "{}", "",
                                  "\ufeff{}", " {} ", "{\"a\": 1, \"a\": 2}", "{\"\\ud800\": 1}"])
def test_decode_object_gives_json_loads_value_or_error_at_the_edges(text):
    for data in (text, text.encode("utf-8", "surrogatepass")):
        assert _outcome(decode_object, data, MalformedRecordError) == _outcome(_reference_decode, data)


@non_finite
@pytest.mark.parametrize("key", sorted(INTRINSICS))
def test_intrinsics_header_rejects_non_finite_values(key, bad):
    with pytest.raises(MalformedRecordError):
        parse_intrinsics_header({"intrinsics": dict(INTRINSICS, **{key: bad})})


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


@pytest.mark.parametrize("part", ["0_3", "\u0660.\u0663"], ids=["underscore", "arabic-indic"])
def test_parse_triplet_rejects_numbers_that_are_no_plain_decimal(part):
    with pytest.raises(StreamError):
        parse_triplet(f"{part}, -0.1, 0.6", "target")


@pytest.mark.parametrize("text", ["0.5", " -1e-3\n", "+2", "5.", ".5", "1E+2", "12345678901234567890.5"])
def test_finite_float_reads_plain_ascii_decimals(text):
    assert finite_float(text) == float(text)


@pytest.mark.parametrize("text", ["0_01", "\u0661.\u0665", "nan", "-inf", "1e999", "0x10", "1e", ".", ""])
def test_finite_float_rejects_text_that_is_no_plain_decimal(text):
    with pytest.raises(ValueError):
        finite_float(text)


@pytest.mark.parametrize("text", ["15", " -3 ", "+7", "007"])
def test_decimal_int_reads_plain_ascii_integers(text):
    assert decimal_int(text) == int(text)


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0665", "1.0", "1e3", "+", ""])
def test_decimal_int_rejects_text_that_is_no_plain_integer(text):
    with pytest.raises(ValueError):
        decimal_int(text)


@non_finite
@pytest.mark.parametrize("field", ["sigma", "aim_bias_sigma", "arm_length", "frame_rate"])
def test_scenario_rejects_non_finite_parameters(field, bad):
    with pytest.raises(StreamError):
        make_template(**{field: bad})


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
    frame = parse_frame(json.loads(line))
    canonical = serialize_frame(frame)
    assert parse_frame(json.loads(canonical)) == frame
    assert serialize_frame(parse_frame(json.loads(canonical))) == canonical


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
    assert frames[0].joints["right_wrist"] == (0.0, 0.0, 1.0, 1.0)
    assert reader.nonmonotonic == 1
    assert reader.malformed == 0


def test_stream_reader_header_sets_intrinsics_for_the_records_after_it():
    """A header on any line applies from there on, as in a live session."""
    pixel_wrist = {"right_wrist": {"px": 320, "py": 240, "depth": 1.0, "c": 1.0}}
    lines = [
        "",
        json.dumps({"t": 0.0, "joints": {}}),
        json.dumps({"intrinsics": INTRINSICS}),
        json.dumps({"t": 1.0, "joints": pixel_wrist}),
        json.dumps({"intrinsics": dict(INTRINSICS, cx=0)}),
        json.dumps({"t": 2.0, "joints": pixel_wrist}),
    ]
    reader = StreamReader(lines)
    frames = list(reader)
    assert [f.joints["right_wrist"] for f in frames[1:]] == [(0.0, 0.0, 1.0, 1.0), (320 / 600, 0.0, 1.0, 1.0)]
    assert reader.intrinsics.cx == 0 and reader.malformed == 0


def test_stream_reader_bad_header_keeps_the_last_good_one():
    pixel_wrist = {"right_wrist": {"px": 320, "py": 240, "depth": 1.0, "c": 1.0}}
    lines = [json.dumps({"intrinsics": INTRINSICS}),
             json.dumps({"intrinsics": dict(INTRINSICS, fx=-1)}),
             json.dumps({"t": 0.0, "joints": pixel_wrist})]
    reader = StreamReader(lines, skip_malformed=True)
    assert len(list(reader)) == 1 and reader.malformed == 1
    with pytest.raises(MalformedRecordError, match="line 2: bad intrinsics header"):
        list(StreamReader(lines))


@pytest.mark.parametrize("seed", [-1, -5])
def test_scenario_rejects_negative_seed(tmp_path, seed):
    with pytest.raises(StreamError, match="seed must be >= 0"):
        load_scenario_config(write_scenario_file(tmp_path / "s.cfg", seed=seed))


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


def _process(joints, hand="right", **options):
    """One frame through a fresh pipeline on the unit square (z = 0): the
    (u, v) of each emitted point and the count of frames without a ray."""
    pipe = GesturePipeline(unit_square_plane(), hands=(hand,), **options)
    points = pipe.process(_frame_with(joints))
    return [(p.position.u, p.position.v) for p in points], pipe.frames_without_ray


def test_arm_ray_present():
    joints = {
        "right_shoulder": {"x": 0, "y": 0, "z": 1, "c": 0.9},
        "right_wrist": {"x": 0, "y": 0, "z": 0.5, "c": 0.9},
    }
    assert _process(joints) == ([(0.0, 0.0)], 0)
    assert _process(joints, hand="left") == ([], 1)


def test_arm_ray_low_confidence():
    joints = {
        "right_shoulder": {"x": 0.5, "y": 0.5, "z": 1, "c": 0.9},
        "right_wrist": {"x": 0.5, "y": 0.5, "z": 0.5, "c": 0.1},
    }
    assert _process(joints, min_confidence=0.3) == ([], 1)
    assert _process(joints, min_confidence=0.05) == ([(0.5, 0.5)], 0)


def test_arm_ray_missing_joint_and_degenerate():
    only_wrist = {"right_wrist": {"x": 0.5, "y": 0.5, "z": 0.5, "c": 0.9}}
    assert _process(only_wrist) == ([], 1)
    shoulder = {"x": 0.5, "y": 0.5, "z": 1, "c": 0.9}
    for wrist_z, want in ((1, ([], 1)), (1.005, ([], 1)), (0.98, ([(0.5, 0.5)], 0))):
        wrist = {"x": 0.5, "y": 0.5, "z": wrist_z, "c": 0.9}
        assert _process({"right_shoulder": shoulder, "right_wrist": wrist}) == want


def test_arm_ray_elbow_pair():
    joints = {
        "left_shoulder": {"x": 0.9, "y": 0.9, "z": 1.2, "c": 0.9},
        "left_elbow": {"x": 0.5, "y": 0.5, "z": 1.0, "c": 0.9},
        "left_wrist": {"x": 0.5, "y": 0.5, "z": 0.5, "c": 0.9},
    }
    assert _process(joints, hand="left", pair="elbow_wrist") == ([(0.5, 0.5)], 0)
    (u, v), = _process(joints, hand="left")[0]
    assert u == pytest.approx(0.5 - 0.4 * 0.5 / 0.7) and v == pytest.approx(u)
    del joints["left_elbow"]
    assert _process(joints, hand="left", pair="elbow_wrist") == ([], 1)


# --- scenarios ------------------------------------------------------------------


def test_scenario_validation(tmp_path):
    template = make_template()
    assert template.check_target(TARGET) == TARGET
    with pytest.raises(StreamError, match="off the plane"):
        template.check_target(Point3(0.3, 0.4, 0.2))
    with pytest.raises(StreamError):
        make_template(sigma=-0.1)
    with pytest.raises(StreamError, match="unknown hand"):
        make_template(hand="both")
    with pytest.raises(StreamError, match="count must be >= 1"):
        load_scenario_config(write_scenario_file(tmp_path / "s.cfg", count=0))
    with pytest.raises(StreamError, match="reaches past the target"):
        make_template(arm_length=0.9).check_target(TARGET)  # reaches past the target


@pytest.mark.parametrize("field,bad", [
    ("snap_samples", 0), ("snap_samples", 31),
    ("stability_threshold", 0.0), ("stability_threshold", -0.01),
    ("stability_threshold", math.nan), ("stability_threshold", math.inf),
])
def test_scenario_rejects_bad_trial_settings_at_construction(field, bad):
    with pytest.raises(StreamError, match="snap sample count must be in 1..30" if field == "snap_samples" else field):
        make_template(**{field: bad})


def test_generator_deterministic_bitwise():
    template = make_template(sigma=0.01, aim_bias_sigma=0.005)
    first = [serialize_frame(f) for f in generate_scenario(template, TARGET, 42, 30)]
    second = [serialize_frame(f) for f in generate_scenario(template, TARGET, 42, 30)]
    assert first == second
    assert [serialize_frame(f) for f in generate_scenario(template, TARGET, 43, 30)] != first


def test_generator_timestamps_step():
    frames = list(generate_scenario(make_template(), TARGET, 42, 4))
    assert [f.timestamp for f in frames] == [0.0, 1 / 30, 2 / 30, 3 / 30]
    assert {f.source_id for f in frames} == {"synthetic"}


def test_noiseless_frames_intersect_exactly_at_target():
    template = make_template(sigma=0.0)
    pipe = GesturePipeline(template.plane, window=1)
    for frame in generate_scenario(template, TARGET, 42, 30):
        (point,) = pipe.process(frame)
        err = math.dist(from_workplane(point.position, pipe.frame).as_tuple(), TARGET.as_tuple())
        assert err < 1e-9
    assert pipe.frames_without_ray == 0


def test_vectorized_sampling_matches_generator():
    template = make_template(sigma=0.013, aim_bias_sigma=0.004)
    shoulders, wrists = sampled(template, TARGET, 42, 1, 50)
    assert shoulders.shape == wrists.shape == (1, 50, 3)
    for i, frame in enumerate(generate_scenario(template, TARGET, 42, 50)):
        assert frame.joints["right_shoulder"] == (*shoulders[0, i], 1.0)
        assert frame.joints["right_wrist"] == (*wrists[0, i], 1.0)


def test_calibration_sampling_draws_one_bias_and_one_frame_per_trial():
    template = make_template(sigma=0.013, aim_bias_sigma=0.004)
    trials = 64
    shoulders, wrists = sampled(template, TARGET, 7, trials, 1)
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
    template = make_template()
    errors = [
        mean_intersection_error(template, TARGET, s, samples=10_000, seed=99)
        for s in (0.0, 0.002, 0.005, 0.01, 0.02, 0.04)
    ]
    assert errors[0] < 1e-9
    for lo, hi in zip(errors, errors[1:]):
        assert hi >= lo * 0.95  # non-decreasing within Monte-Carlo slack


# --- files ------------------------------------------------------------------


def test_write_and_read_stream(tmp_path):
    template = make_template(sigma=0.01)
    path = tmp_path / "stream.jsonl"
    count = write_stream(path, generate_scenario(template, TARGET, 42, 10))
    assert count == 10
    with open(path, "r", encoding="utf-8") as fh:
        frames = list(StreamReader(fh))
    assert len(frames) == 10
    assert frames[0] == next(iter(generate_scenario(template, TARGET, 42, 10)))


def test_write_document_writes_json_text_whole_and_replaces_a_symlink(tmp_path):
    doc = {"b": [1.5, None], "a": {"z": "\u00e9", "y": True}}
    elsewhere, path = tmp_path / "elsewhere.json", tmp_path / "doc.json"
    elsewhere.write_text("kept\n", encoding="utf-8")
    path.symlink_to(elsewhere)
    write_document(path, doc)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert not path.is_symlink() and elsewhere.read_text(encoding="utf-8") == "kept\n"
    write_document(path, "text as is")
    assert path.read_bytes() == b"text as is"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json", "elsewhere.json"]


def test_scenario_config_round_trip(tmp_path):
    path = write_scenario_file(tmp_path / "scenario.cfg", sigma=0.012, seed=9, count=25)
    template, target, seed, count = load_scenario_config(path)
    assert (template.sigma, target, seed, count) == (0.012, TARGET, 9, 25)
    assert template.shoulder_base == Point3(0.3, -0.1, 0.6)
    assert template.plane.normal.z == pytest.approx(1.0)
    assert template.frame == workplane_frame(template.plane)
    assert template == make_template(sigma=0.012, plane=template.plane)


def test_scenario_whose_first_edge_gives_no_frame_is_a_bad_config(tmp_path):
    """Corners 1 and 2 within 1e-6 m pass the plane's checks when corner 3 lies
    far enough away, but give no workplane frame: the reader rejects them."""
    path = tmp_path / "s.cfg"
    path.write_text("plane_corner_1 = 0, 0, 0\nplane_corner_2 = 1e-7, 0, 0\nplane_corner_3 = 0, 1e6, 0\n"
                    "shoulder = 0, 0, 1\ntarget = 0, 1, 0\nsigma = 0\narm_length = 0.5\nseed = 1\ncount = 2\n",
                    encoding="utf-8")
    with pytest.raises(StreamError, match="^bad scenario config: chosen corners coincide$"):
        load_scenario_config(path)


def test_scenario_config_missing_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sigma = 0.1\n", encoding="utf-8")
    with pytest.raises(Exception, match="missing keys"):
        load_scenario_config(path)
