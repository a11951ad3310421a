"""Running-average stabilizer tests, including the filter-then-mean oracle."""

from __future__ import annotations

import inspect
from fractions import Fraction

import numpy as np
import pytest

from conftest import unit_square_plane
from gesturepoint.geometry import (CameraIntrinsics, FrozenValue, PlanarPoint, Plane, Point3, Quaternion,
                                   WorkplaneFrame, planar_mean, workplane_frame)
from gesturepoint.pipeline import PipelineSettings
from gesturepoint.snap import (DEFAULT_SAMPLE_COUNT, DEFAULT_STABILITY_THRESHOLD, Area, GateResult, SnapRequest,
                               SnapResult, Target)
from gesturepoint.stabilizer import DEFAULT_WINDOW, GesturePoint, RunningAverageStabilizer
from gesturepoint.stream import DEFAULT_MIN_CONFIDENCE

BOUNDS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def make() -> RunningAverageStabilizer:
    return RunningAverageStabilizer(BOUNDS)


def test_symmetric_five_sample_mean():
    stab = make()
    points = [(0.1, 0.1), (0.2, 0.1), (0.1, 0.2), (0.2, 0.2), (0.15, 0.15)]
    out = None
    for i, (u, v) in enumerate(points):
        out = stab.push(u, v, 0.0, timestamp=i / 30, hand="right")
    assert out.window_size == 5
    assert out.position.u == pytest.approx(0.15)
    assert out.position.v == pytest.approx(0.15)


def test_single_push_is_identity():
    out = make().push(0.3, 0.4, 0.0, 0.0, "right")
    assert (out.position.u, out.position.v) == (0.3, 0.4)
    assert out.window_size == 1


def test_out_of_bounds_discarded_without_eviction():
    stab = make()
    filtered = make()
    rng = np.random.default_rng(17)
    outputs, expected = [], []
    for i in range(200):
        if rng.random() < 0.3:
            p = PlanarPoint(*rng.uniform(1.2, 3.0, 2))  # clearly outside
            assert stab.push(p.u, p.v, p.z_residual, i / 30.0, "right") is None
        else:
            p = PlanarPoint(*rng.uniform(0.05, 0.95, 2))
            outputs.append(stab.push(p.u, p.v, p.z_residual, i / 30.0, "right").position)
            expected.append(filtered.push(p.u, p.v, p.z_residual, i / 30.0, "right").position)
    assert outputs == expected  # exact: same floats through the same mean


def test_window_caps_at_five():
    stab = make()
    out = None
    for i in range(12):
        out = stab.push(0.1 + i * 0.01, 0.5, 0.0, i / 30.0, "right")
    assert out.window_size == 5
    # mean of the last five samples only
    last5 = [0.1 + i * 0.01 for i in range(7, 12)]
    assert out.position.u == pytest.approx(sum(last5) / 5)


def test_constant_input_fixed_point():
    stab = make()
    p = PlanarPoint(0.37, 0.41)
    for i in range(10):
        out = stab.push(p.u, p.v, p.z_residual, i / 30.0, "right")
        assert (out.position.u, out.position.v) == (0.37, 0.41)


def test_bounded_lag_after_five_samples():
    stab = make()
    for i in range(5):
        stab.push(0.2, 0.2, 0.0, i / 30.0, "right")
    out = None
    for i in range(5):
        out = stab.push(0.8, 0.7, 0.0, (5 + i) / 30.0, "right")
    assert (out.position.u, out.position.v) == (0.8, 0.7)


def test_output_inside_convex_hull_of_buffer():
    stab = make()
    rng = np.random.default_rng(23)
    window: list[PlanarPoint] = []
    for i in range(300):
        p = PlanarPoint(*rng.uniform(0.0, 1.0, 2))
        window.append(p)
        window = window[-5:]
        out = stab.push(p.u, p.v, p.z_residual, i / 30.0, "right")
        us = [q.u for q in window]
        vs = [q.v for q in window]
        assert min(us) - 1e-12 <= out.position.u <= max(us) + 1e-12
        assert min(vs) - 1e-12 <= out.position.v <= max(vs) + 1e-12


def test_mean_matches_fraction_oracle():
    stab = make()
    samples = [(0.125, 0.25), (0.5, 0.375), (0.25, 0.75), (0.625, 0.125)]
    out = None
    for i, (u, v) in enumerate(samples):
        out = stab.push(u, v, 0.0, i / 30.0, "right")
    exact_u = sum(Fraction(u).limit_denominator(8) for u, _ in samples) / len(samples)
    exact_v = sum(Fraction(v).limit_denominator(8) for _, v in samples) / len(samples)
    assert out.position.u == float(exact_u)
    assert out.position.v == float(exact_v)


def test_mean_adds_offsets_one_by_one_on_every_python():
    """Offsets 0, 1e16, 1, -1e16 add up to 0 one by one (1e16 + 1 rounds
    back to 1e16) and to 1 in a compensated sum, as ``sum()`` of floats is
    from Python 3.12 on; both means take the sequential 0, on every Python."""
    window = [PlanarPoint(0.5 + du, 0.25, 0.0) for du in (0.0, 1e16, 1.0, -1e16)]
    assert planar_mean(window).u == 0.5
    huge = ((-2e16, -2e16), (2e16, -2e16), (2e16, 2e16), (-2e16, 2e16))
    stab = RunningAverageStabilizer(huge)
    outs = [stab.push(p.u, p.v, p.z_residual, i / 30, "right") for i, p in enumerate(window)]
    assert outs[-1].position == PlanarPoint(0.5, 0.25, 0.0)
    assert outs[-1].window_size == 4


_PLANE = unit_square_plane()
_FRAME = workplane_frame(_PLANE)
# each value type's fields, in order, and the defaults of those that have one
_FIELDS = {
    Point3: ("x y z", {}),
    PlanarPoint: ("u v z_residual", {"z_residual": 0.0}),
    CameraIntrinsics: ("fx fy cx cy width height", {}),
    Quaternion: ("w x y z", {}),
    Plane: ("normal d corners", {}),
    WorkplaneFrame: ("origin orientation", {}),
    Target: ("id label position group", {"group": None}),
    Area: ("id center half_extent", {}),
    SnapRequest: ("samples strategy group_filter", {"group_filter": None}),
    GateResult: ("mean max_deviation stable", {}),
    SnapResult: ("selected_id mean_point max_radial_deviation fallback_used", {}),
    GesturePoint: ("position timestamp hand window_size", {}),
    PipelineSettings: ("plane frame frame_mode hands pair min_confidence snap_samples threshold window group", {
        "frame_mode": "workplane", "hands": ("right",), "pair": "shoulder_wrist",
        "min_confidence": DEFAULT_MIN_CONFIDENCE, "snap_samples": DEFAULT_SAMPLE_COUNT,
        "threshold": DEFAULT_STABILITY_THRESHOLD, "window": DEFAULT_WINDOW, "group": None}),
}


_CASES = [
    (PlanarPoint, (0.1, 0.2, 0.3)),
    (GesturePoint, (PlanarPoint(0.1, 0.2), 0.5, "right", 3)),
    (PipelineSettings, (_PLANE, _FRAME, "camera", ("left",), "elbow_wrist", 0.5, 7, 0.02, 3, "bolts")),
    (Point3, (0.1, 0.2, 0.3)),
    (CameraIntrinsics, (600.0, 610.0, 320.0, 240.0, 640, 480)),
    (Quaternion, (1.0, 0.0, 0.0, 0.0)),
    (Plane, (_PLANE.normal, _PLANE.d, _PLANE.corners)),
    (WorkplaneFrame, (_FRAME.origin, _FRAME.orientation)),
    (Target, ("t1", "bolt", PlanarPoint(0.1, 0.2), "bolts")),
    (Area, ("a1", PlanarPoint(0.1, 0.2), (0.05, 0.06))),
    (SnapRequest, ((PlanarPoint(0.1, 0.2),), "pick", "bolts")),
    (GateResult, (PlanarPoint(0.1, 0.2), 0.01, True)),
    (SnapResult, ("t1", PlanarPoint(0.1, 0.2), 0.01, False)),
]


@pytest.mark.parametrize("cls, args", _CASES)
def test_written_out_init_keeps_the_dataclass_contract(cls, args):
    """Each numpy-free value type writes its own ``__init__``: it takes the
    fields in order, with their defaults, and the instances are frozen,
    equal and hashable by value (never equal to another class's, a
    subclass's included), with a frozen dataclass's repr text."""
    names, defaults = _FIELDS[cls][0].split(), _FIELDS[cls][1]
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == [
        (name, defaults.get(name, inspect.Parameter.empty)) for name in names
    ]
    a, b = cls(*args), cls(**dict(zip(names, args)))
    assert tuple(getattr(a, name) for name in names) == args
    assert a == b and hash(a) == hash(b) and not a != b
    assert repr(a) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, args))})"
    assert a != type("Twin", (cls,), {})(*args) and a != args
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in names) == args


def test_every_value_type_has_its_contract_pinned():
    assert {cls for cls, _ in _CASES} == set(_FIELDS) == set(FrozenValue.__subclasses__())
    assert len(_FIELDS) == 13


def test_workplane_frame_rows_are_computed_once_and_leave_equality_alone():
    frame = workplane_frame(_PLANE)
    rows = frame.rows
    assert frame.rows is rows and rows == frame.orientation.to_matrix()
    assert frame == workplane_frame(_PLANE) and hash(frame) == hash(workplane_frame(_PLANE))
