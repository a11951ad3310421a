"""Geometry core tests: plane construction, (de)projection, ray-plane
intersection against the substitution oracle, frames, containment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_corners, project
from gesturepoint.evaluation import intersect_rays_plane
from gesturepoint.geometry import (
    CameraIntrinsics,
    GeometryError,
    PlanarPoint,
    Plane,
    Point3,
    Quaternion,
    corners_in_frame,
    deproject,
    from_workplane,
    plane_from_corners,
    to_workplane,
    workplane_frame,
)
from gesturepoint.stabilizer import NO_BOX, RunningAverageStabilizer, points_in_bounds
from gesturepoint.stream import MalformedRecordError, parse_intrinsics_header

UNIT_SQUARE = [Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0), Point3(0, 1, 0)]


def random_plane(rng: np.random.Generator) -> Plane:
    """A random oriented rectangle somewhere in space. Python floats, in the
    expression order the numpy form ``center - a * e1 - b * e2`` has."""
    center = rng.uniform(-2, 2, 3).tolist()
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    rows = Quaternion(*q.tolist()).to_matrix()
    e1, e2 = [row[0] for row in rows], [row[1] for row in rows]
    a, b = rng.uniform(0.3, 1.5, 2).tolist()
    corners = zip(*([c - a * i - b * j, c + a * i - b * j, c + a * i + b * j, c - a * i + b * j]
                    for c, i, j in zip(center, e1, e2)))
    return plane_from_corners([Point3(*c) for c in corners])


def random_arm_case(rng: np.random.Generator):
    """A plane plus shoulder/wrist whose ray is guaranteed to hit it with t > 1.
    Python floats, drawn and computed in the order of the numpy form
    ``target + uniform(0.5, 2.0) * n + uniform(-0.3, 0.3, 3)``."""
    plane = random_plane(rng)
    c0, c1, _, c3 = (c.as_tuple() for c in plane.corners)
    f1, f2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
    target = [c + f1 * (p - c) + f2 * (r - c) for c, p, r in zip(c0, c1, c3)]
    reach = rng.uniform(0.5, 2.0)
    shoulder = [p + reach * n + j for p, n, j in zip(target, plane.normal.as_tuple(), rng.uniform(-0.3, 0.3, 3).tolist())]
    frac = rng.uniform(0.2, 0.8)  # wrist partway to the target, so t = 1/frac > 1
    wrist = [s + frac * (p - s) for s, p in zip(shoulder, target)]
    return plane, Point3(*shoulder), Point3(*wrist)


# --- plane construction ------------------------------------------------------


def test_plane_from_unit_square():
    plane = plane_from_corners(UNIT_SQUARE[:3])
    assert plane.normal == Point3(0.0, 0.0, 1.0)
    assert plane.d == 0.0
    # 3-corner form completes the parallelogram
    assert plane.corners[3] == Point3(0.0, 1.0, 0.0)


def test_plane_offset_d():
    plane = plane_from_corners([Point3(0, 0, 1), Point3(1, 0, 1), Point3(1, 1, 1)])
    assert plane.normal.z == pytest.approx(1.0)
    assert plane.d == pytest.approx(-1.0)


def test_plane_normal_convention_is_order_stable():
    fwd = plane_from_corners(UNIT_SQUARE)
    rev = plane_from_corners(list(reversed(UNIT_SQUARE)))
    assert fwd.normal == rev.normal  # convention makes the stored normal identical


def test_plane_normal_faces_viewpoint():
    below = plane_from_corners(UNIT_SQUARE[:3], viewpoint=Point3(0.5, 0.5, -3.0))
    assert below.normal.z == pytest.approx(-1.0)


def test_plane_collinear_corners():
    with pytest.raises(GeometryError, match="corners 1-3 are collinear"):
        plane_from_corners([Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0)])


def test_plane_nonplanar_fourth_corner():
    rng = np.random.default_rng(5)
    for _ in range(20):
        plane = random_plane(rng)
        lifted = Point3(*(np.array(plane.corners[3].as_tuple()) + np.array(plane.normal.as_tuple()) * 0.02))
        with pytest.raises(GeometryError, match="off the plane"):
            plane_from_corners(list(plane.corners[:3]) + [lifted])


def test_plane_fourth_corner_within_tolerance_is_snapped():
    lifted = Point3(0.0, 1.0, 0.004)  # below the 5 mm default
    plane = plane_from_corners(UNIT_SQUARE[:3] + [lifted])
    assert abs(plane.signed_distance(plane.corners[3])) < 1e-12


def test_plane_nonfinite_corner():
    with pytest.raises(GeometryError, match="non-finite component"):
        plane_from_corners([Point3(0, 0, float("nan")), Point3(1, 0, 0), Point3(1, 1, 0)])


def test_plane_corner_coordinates_are_bounded():
    at_bound = plane_from_corners([Point3(c.x * 1e6, c.y * 1e6, c.z) for c in UNIT_SQUARE])
    assert at_bound.corners[2] == Point3(1e6, 1e6, 0.0)
    with pytest.raises(GeometryError, match=r"1e\+06"):
        plane_from_corners([Point3(c.x * 2e6, c.y * 2e6, c.z) for c in UNIT_SQUARE])
    with pytest.raises(GeometryError, match=r"1e\+06"):
        Plane(at_bound.normal, at_bound.d, (*at_bound.corners[:3], Point3(0.0, 1e200, 0.0)))


def test_plane_rejects_self_intersecting_corner_order():
    with pytest.raises(GeometryError, match="self-intersect"):
        plane_from_corners(
            [Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0), Point3(1, 1, 0)]
        )


# --- pinhole model -----------------------------------------------------------

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=1280, height=960)


def test_deproject_principal_point():
    assert deproject((320.0, 240.0), 1.0, INTR) == Point3(0.0, 0.0, 1.0)


def test_deproject_one_focal_length_off_center():
    assert deproject((920.0, 240.0), 2.0, INTR) == Point3(2.0, 0.0, 2.0)


def test_deproject_errors():
    with pytest.raises(GeometryError, match="depth must be positive"):
        deproject((320.0, 240.0), 0.0, INTR)
    with pytest.raises(GeometryError, match="outside 1280x960 image"):
        deproject((-1.0, 240.0), 1.0, INTR)
    with pytest.raises(GeometryError, match="outside 1280x960 image"):
        deproject((320.0, 1000.0), 1.0, INTR)


def test_project_examples():
    assert project(Point3(0, 0, 1), INTR) == (320.0, 240.0)
    assert project(Point3(1, 0, 1), INTR) == (920.0, 240.0)


@settings(max_examples=200)
@given(
    px=st.floats(0, 1279.99),
    py=st.floats(0, 959.99),
    depth=st.floats(0.05, 20.0),
)
def test_project_inverts_deproject(px, py, depth):
    point = deproject((px, py), depth, INTR)
    rx, ry = project(point, INTR)
    assert rx == pytest.approx(px, abs=1e-6)
    assert ry == pytest.approx(py, abs=1e-6)


def test_deproject_inverts_project_for_visible_points():
    rng = np.random.default_rng(21)
    kept = 0
    while kept < 200:
        point = Point3(*rng.uniform(-1, 1, 2), rng.uniform(0.2, 5.0))
        px, py = project(point, INTR)
        if not (0 <= px < INTR.width and 0 <= py < INTR.height):
            continue
        back = deproject((px, py), point.z, INTR)
        for got, want in zip(back.as_tuple(), point.as_tuple()):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        kept += 1


def test_intrinsics_validation():
    """The header reader checks the intrinsics, focal lengths first; the
    CameraIntrinsics it returns checks nothing."""
    good = {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480}
    assert parse_intrinsics_header({"intrinsics": good}) == CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
    for change, message in [
        ({"fx": -1.0}, "focal lengths must be positive, got fx=-1.0, fy=600.0"),
        ({"fy": 0}, "focal lengths must be positive, got fx=600.0, fy=0.0"),
        ({"fx": 0, "cx": 800}, "focal lengths must be positive, got fx=0.0, fy=600.0"),
        ({"cx": 800}, "principal point (800.0, 240.0) outside 640x480 image"),
        ({"cy": 480}, "principal point (320.0, 480.0) outside 640x480 image"),
        ({"cx": -0.5}, "principal point (-0.5, 240.0) outside 640x480 image"),
    ]:
        with pytest.raises(MalformedRecordError) as info:
            parse_intrinsics_header({"intrinsics": {**good, **change}})
        assert str(info.value) == f"bad intrinsics header: {message}"


# --- ray-plane intersection --------------------------------------------------


def hit(shoulder: Point3, wrist: Point3, plane: Plane) -> Point3 | None:
    """One ray through :func:`intersect_rays_plane`: the hit, or None on a miss."""
    point, valid = intersect_rays_plane(np.array(shoulder.as_tuple()), np.array(wrist.as_tuple()), plane)
    return Point3(*point.tolist()) if valid else None


def scaling_factor(shoulder: Point3, wrist: Point3, point: Point3) -> float:
    """t of ``point = shoulder + t * (wrist - shoulder)``."""
    arm = np.subtract(wrist.as_tuple(), shoulder.as_tuple())
    return float(np.subtract(point.as_tuple(), shoulder.as_tuple()) @ arm / (arm @ arm))


def test_intersection_scaling_factor():
    plane = plane_from_corners(UNIT_SQUARE)
    point = hit(Point3(0, 0, 1), Point3(0, 0, 0.5), plane)
    assert point == Point3(0.0, 0.0, 0.0)
    assert scaling_factor(Point3(0, 0, 1), Point3(0, 0, 0.5), point) == pytest.approx(2.0)


def test_intersection_parallel_ray():
    plane = plane_from_corners(UNIT_SQUARE)
    points, valid = intersect_rays_plane(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]), plane)
    assert not valid and np.isnan(points).all()


def test_intersection_pointing_away():
    plane = plane_from_corners(UNIT_SQUARE)
    assert hit(Point3(0, 0, 1), Point3(0, 0, 1.5), plane) is None


def test_intersection_degenerate_arm():
    plane = plane_from_corners(UNIT_SQUARE)
    assert hit(Point3(0, 0, 1), Point3(0, 0, 1.005), plane) is None
    assert hit(Point3(0, 0, 1), Point3(0, 0, 0.98), plane) == Point3(0.0, 0.0, 0.0)


def test_intersection_substitution_oracle():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        plane, shoulder, wrist = random_arm_case(rng)
        point = hit(shoulder, wrist, plane)
        assert point is not None
        assert abs(plane.signed_distance(point)) < 1e-9
        arm = np.subtract(wrist.as_tuple(), shoulder.as_tuple())
        reach = np.subtract(point.as_tuple(), shoulder.as_tuple())
        cross = np.cross(arm, reach)
        norm = np.linalg.norm
        assert norm(cross) < 1e-9 * norm(arm) * max(norm(reach), 1e-300)


def test_intersection_scale_invariance():
    rng = np.random.default_rng(77)
    for _ in range(200):
        plane, shoulder, wrist = random_arm_case(rng)
        s = rng.uniform(0.1, 10.0)
        scaled_plane = plane_from_corners([Point3(c.x * s, c.y * s, c.z * s) for c in plane.corners])
        scaled_shoulder = Point3(shoulder.x * s, shoulder.y * s, shoulder.z * s)
        scaled_wrist = Point3(wrist.x * s, wrist.y * s, wrist.z * s)
        base = hit(shoulder, wrist, plane)
        scaled = hit(scaled_shoulder, scaled_wrist, scaled_plane)
        assert scaling_factor(scaled_shoulder, scaled_wrist, scaled) == pytest.approx(
            scaling_factor(shoulder, wrist, base), rel=1e-9
        )
        for got, want in zip(scaled.as_tuple(), base.as_tuple()):
            assert got == pytest.approx(want * s, rel=1e-9, abs=1e-12)


def test_intersection_rigid_motion_equivariance():
    rng = np.random.default_rng(88)
    for _ in range(200):
        plane, shoulder, wrist = random_arm_case(rng)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        rot = np.array(Quaternion(*q).to_matrix())
        t = rng.uniform(-2, 2, 3)

        def move(p: Point3) -> Point3:
            return Point3(*(rot @ np.array(p.as_tuple()) + t))

        moved_plane = plane_from_corners([move(c) for c in plane.corners])
        base = hit(shoulder, wrist, plane)
        moved = hit(move(shoulder), move(wrist), moved_plane)
        expected = move(base)
        for got, want in zip(moved.as_tuple(), expected.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)


# --- workplane frames --------------------------------------------------------


def test_workplane_frame_identity():
    plane = plane_from_corners(UNIT_SQUARE)
    frame = workplane_frame(plane, 0, 1)
    assert frame.origin == Point3(0.0, 0.0, 0.0)
    assert frame.orientation == Quaternion(1.0, 0.0, 0.0, 0.0)


def test_workplane_frame_quarter_turn():
    plane = plane_from_corners(UNIT_SQUARE)
    frame = workplane_frame(plane, 1, 2)
    q = frame.orientation
    assert q.w == pytest.approx(math.cos(math.pi / 4))
    assert q.z == pytest.approx(math.sin(math.pi / 4))
    assert q.x == pytest.approx(0.0, abs=1e-12)


def test_workplane_frame_invalid_pairs():
    plane = plane_from_corners(UNIT_SQUARE)
    with pytest.raises(GeometryError, match="must differ"):
        workplane_frame(plane, 1, 1)
    with pytest.raises(GeometryError, match="not adjacent"):
        workplane_frame(plane, 0, 2)  # diagonal, not adjacent
    with pytest.raises(GeometryError, match="out of range"):
        workplane_frame(plane, 0, 5)


def test_workplane_frame_orthonormal_right_handed():
    rng = np.random.default_rng(3)
    for _ in range(200):
        plane = random_plane(rng)
        frame = workplane_frame(plane, 0, 1)
        r = np.array(frame.orientation.to_matrix())
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
        # z column is the plane normal, x column is along the chosen edge
        assert float(r[:, 2] @ np.array(plane.normal.as_tuple())) >= 1 - 1e-6
        edge = np.subtract(plane.corners[1].as_tuple(), plane.corners[0].as_tuple())
        assert float(r[:, 0] @ (edge / np.linalg.norm(edge))) >= 1 - 1e-6


def test_to_workplane_identity_frame():
    plane = plane_from_corners(UNIT_SQUARE)
    frame = workplane_frame(plane)
    p = to_workplane(Point3(0.3, 0.2, 0.0), frame)
    assert (p.u, p.v, p.z_residual) == (0.3, 0.2, 0.0)


def test_plane_corners_map_to_zero_residual():
    rng = np.random.default_rng(4)
    for _ in range(100):
        plane = random_plane(rng)
        frame = workplane_frame(plane)
        assert to_workplane(plane.corners[0], frame) == PlanarPoint(0.0, 0.0, 0.0)
        for corner in plane.corners:
            assert abs(to_workplane(corner, frame).z_residual) < 1e-9


def test_to_workplane_on_plane_residual():
    rng = np.random.default_rng(6)
    plane = random_plane(rng)
    frame = workplane_frame(plane)
    c = np.array(plane.corners[0].as_tuple())
    e1 = np.subtract(plane.corners[1].as_tuple(), plane.corners[0].as_tuple())
    e2 = np.subtract(plane.corners[3].as_tuple(), plane.corners[0].as_tuple())
    for _ in range(1000):
        p = Point3(*(c + rng.uniform(0, 1) * e1 + rng.uniform(0, 1) * e2))
        assert abs(to_workplane(p, frame).z_residual) < 1e-9


def test_from_workplane_round_trip():
    rng = np.random.default_rng(9)
    plane = random_plane(rng)
    frame = workplane_frame(plane)
    for _ in range(200):
        p = Point3(*rng.uniform(-2, 2, 3))
        back = from_workplane(to_workplane(p, frame), frame)
        for got, want in zip(back.as_tuple(), p.as_tuple()):
            assert got == pytest.approx(want, abs=1e-12)


# --- containment -------------------------------------------------------------

SQUARE_UV = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_point_in_bounds_basic():
    assert points_in_bounds(0.5, 0.5, SQUARE_UV)
    assert not points_in_bounds(1.5, 0.5, SQUARE_UV)


def test_point_in_bounds_boundary_counts_inside():
    assert points_in_bounds(1.0, 0.5, SQUARE_UV)
    assert points_in_bounds(0.0, 0.0, SQUARE_UV)
    assert points_in_bounds(0.5, 1.0, SQUARE_UV)


def _winding_inside(u: float, v: float, poly) -> bool:
    total = 0.0
    for i in range(len(poly)):
        ax, ay = poly[i][0] - u, poly[i][1] - v
        bx, by = poly[(i + 1) % len(poly)][0] - u, poly[(i + 1) % len(poly)][1] - v
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


def _distance_to_edges(u, v, poly) -> float:
    best = math.inf
    for i in range(len(poly)):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % len(poly)]
        dx, dy = bx - ax, by - ay
        t = max(0.0, min(1.0, ((u - ax) * dx + (v - ay) * dy) / (dx * dx + dy * dy)))
        best = min(best, math.hypot(u - (ax + t * dx), v - (ay + t * dy)))
    return best


@pytest.mark.parametrize(
    "poly",
    [SQUARE_UV, ((0.0, 0.0), (2.0, 0.2), (1.8, 1.4), (-0.2, 1.0))],
    ids=["square", "irregular"],
)
def test_point_in_bounds_matches_winding_oracle(poly):
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 10_000:
        u, v = rng.uniform(-0.6, 2.4, 2)
        if _distance_to_edges(u, v, poly) < 1e-9:
            continue
        assert points_in_bounds(u, v, poly) == _winding_inside(u, v, poly)
        checked += 1


def _reference_in_bounds(u: float, v: float, poly) -> bool:
    """The branching scalar form of the bounds test: any edge within 1e-12
    holds the point, else even-odd crossings decide."""
    for i in range(len(poly)):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % len(poly)]
        cross = (bx - ax) * (v - ay) - (by - ay) * (u - ax)
        if abs(cross) <= 1e-12 * max(abs(bx - ax), abs(by - ay), 1.0):
            dot = (u - ax) * (bx - ax) + (v - ay) * (by - ay)
            if -1e-12 <= dot <= (bx - ax) ** 2 + (by - ay) ** 2 + 1e-12:
                return True
    inside = False
    for i in range(len(poly)):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % len(poly)]
        if (ay > v) != (by > v) and u < ax + (v - ay) * (bx - ax) / (by - ay):
            inside = not inside
    return inside


@pytest.mark.parametrize(
    "poly",
    [SQUARE_UV, ((0.0, 0.0), (2.0, 0.2), (1.8, 1.4), (-0.2, 1.0)), ((0.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0, 2.0))],
    ids=["square", "irregular", "dart"],
)
def test_points_in_bounds_matches_branching_reference(poly):
    rng = np.random.default_rng(14)
    corners = np.array(poly)
    on_edges = [corners + f * (np.roll(corners, -1, axis=0) - corners) for f in (0.0, 0.25, 0.5, 1 / 3)]
    uv = np.concatenate([rng.uniform(-0.6, 2.4, (5000, 2)), *on_edges])
    want = [_reference_in_bounds(u, v, poly) for u, v in uv.tolist()]
    assert points_in_bounds(uv[:, 0], uv[:, 1], poly).tolist() == want
    assert [points_in_bounds(u, v, poly) for u, v in uv.tolist()] == want
    assert all(want[5000:])  # the boundary counts as inside
    assert not points_in_bounds(np.array([np.nan, 0.5]), np.array([0.5, np.nan]), poly).any()


def test_bounds_reach_squares_by_multiplication():
    """An edge's reach is ``dx * dx + dy * dy + 1e-12`` in ``push`` and in
    ``points_in_bounds``: ``dx ** 2`` goes to libm's ``pow``, which for this
    ``dx`` gives one ulp more and so would keep the point beyond the edge's end."""
    dx = 0.3221098846663417
    assert dx ** 2 != dx * dx
    poly = ((0.0, 0.0), (dx, 0.0), (dx, 1.0), (0.0, 1.0))
    stab = RunningAverageStabilizer(poly)
    assert stab._edges[0][6] == dx * dx + 1e-12 == 0.10375477780076396
    u = 0.3221098846694463  # u * dx lies between the product's reach and pow's
    assert dx * dx + 1e-12 < u * dx <= dx ** 2 + 1e-12
    assert not points_in_bounds(u, 0.0, poly)
    assert stab.push(u, 0.0, 0.0, 0.0, "right") is None


@st.composite
def _star_polygons(draw):
    """A simple polygon and a point it surrounds: 3-8 vertices at increasing
    angles around a centre, each at its own radius, no angle gap above pi."""
    n = draw(st.integers(3, 8))
    cu, cv = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    steps = draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    angles = [2 * math.pi * sum(steps[:i]) / sum(steps) for i in range(n)]
    return tuple((cu + r * math.cos(a), cv + r * math.sin(a)) for a, r in zip(angles, radii)), (cu, cv)


@settings(max_examples=200, deadline=None)
@given(_star_polygons(), st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)), max_size=20))
def test_stabilizer_bounds_kernel_matches_points_in_bounds(polygon, offsets):
    """``RunningAverageStabilizer.push`` keeps exactly the points that
    ``points_in_bounds`` keeps, and away from the edges exactly those the
    winding-number oracle puts inside: over vertices, edge points, the
    centre, scattered and far points, and non-finite coordinates."""
    poly, (cu, cv) = polygon
    edges = list(zip(poly, poly[1:] + poly[:1]))
    on_edges = [(ax + f * (bx - ax), ay + f * (by - ay)) for (ax, ay), (bx, by) in edges for f in (0.25, 0.5, 1 / 3)]
    scattered = [(cu + du, cv + dv) for du, dv in offsets] + [(cu, cv), (cu + 10.0, cv), (cu, cv - 10.0)]
    non_finite = [(math.nan, cv), (cu, math.nan), (math.inf, cv), (-math.inf, cv), (cu, math.inf), (cu, -math.inf)]
    stab = RunningAverageStabilizer(poly)
    kept = {}
    for u, v in [*poly, *on_edges, *scattered, *non_finite]:
        kept[u, v] = stab.push(u, v, 0.0, 0.0, "right") is not None
        assert kept[u, v] == bool(points_in_bounds(u, v, poly)), (u, v)
    for u, v in scattered:
        if _distance_to_edges(u, v, poly) > 1e-9:
            assert kept[u, v] == _winding_inside(u, v, poly), (u, v)
    assert all(kept[p] for p in poly)
    assert not any(kept[p] for p in non_finite)


@st.composite
def _quadrilaterals(draw):
    """A w x h rectangle, sheared, rotated (often by 0 or a rounding-sized
    angle) and moved, near the origin or ~1e5 m out; either way round, and
    in a third of the draws with one corner pulled in past the diagonal, so
    that it is non-convex. Returns the corners and whether they are convex."""
    w, h = draw(st.floats(1e-3, 3.0)), draw(st.floats(1e-3, 3.0))
    shear = draw(st.sampled_from([0.0, 1e-16]) | st.floats(-2.0, 2.0))
    angle = draw(st.sampled_from([0.0, 1e-16, -1e-9, math.pi / 2]) | st.floats(-math.pi, math.pi))
    ou, ov = (draw(st.sampled_from([0.0, 1e5, -1e5])) + draw(st.floats(-1.0, 1.0)) for _ in range(2))
    cos, sin = math.cos(angle), math.sin(angle)
    corners = [(u + shear * v, v) for u, v in ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h))]
    corners = [(ou + cos * u - sin * v, ov + sin * u + cos * v) for u, v in corners]
    convex = draw(st.integers(0, 2)) > 0
    if not convex:  # corner 2 pulled towards corner 0, past the diagonal from corner 1 to corner 3
        f = draw(st.floats(0.05, 0.45))
        (au, av), (cu, cv) = corners[0], corners[2]
        corners[2] = (au + f * (cu - au), av + f * (cv - av))
    if draw(st.booleans()):
        corners.reverse()
    return tuple(corners), convex


def _ulp_neighbours(u: float, v: float) -> list[tuple[float, float]]:
    """(u, v) and the points one ulp to either side of it on each axis."""
    return [(u, v), (math.nextafter(u, -math.inf), v), (math.nextafter(u, math.inf), v),
            (u, math.nextafter(v, -math.inf)), (u, math.nextafter(v, math.inf))]


def _box_edge_points(left: float, right: float, bottom: float, top: float) -> list[tuple[float, float]]:
    sides = [((left, bottom), (right, bottom)), ((right, bottom), (right, top)),
             ((right, top), (left, top)), ((left, top), (left, bottom))]
    return [(au + f * (bu - au), av + f * (bv - av)) for (au, av), (bu, bv) in sides for f in (0.0, 0.25, 0.5, 0.9)]


@settings(max_examples=300, deadline=None)
@given(_quadrilaterals(), st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=10))
def test_stabilizer_inner_box_keeps_only_what_points_in_bounds_keeps(quad, fractions):
    """The inner box that ``push`` keeps hits in at once is sound: on sheared,
    rotated and non-convex quadrilaterals, near the origin and ~1e5 m out,
    ``push`` keeps exactly what ``points_in_bounds`` keeps, over points on
    the box's edges, on the polygon's edges and inside the box, each also one
    ulp to either side, and NaN. A non-convex quadrilateral gets no box. So
    does a box taken from the second-smallest and second-largest corner
    coordinates unchecked: its edges are among the points."""
    poly, convex = quad
    stab = RunningAverageStabilizer(poly)
    if not convex:
        assert stab._box == NO_BOX
    us, vs = sorted(u for u, _ in poly), sorted(v for _, v in poly)
    boxes = [(us[1], us[2], vs[1], vs[2])] + ([stab._box] if stab._box != NO_BOX else [])
    points = [p for box in boxes for p in _box_edge_points(*box)]
    points += [(left + fu * (right - left), bottom + fv * (top - bottom))
               for left, right, bottom, top in boxes for fu, fv in fractions]
    points += [(ax + f * (bx - ax), ay + f * (by - ay))
               for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]) for f in (0.0, 0.25, 0.5, 1 / 3)]
    points = [q for p in points for q in _ulp_neighbours(*p)] + [(math.nan, vs[1]), (us[1], math.nan)]
    for u, v in points:
        assert (stab.push(u, v, 0.0, 0.0, "right") is not None) == bool(points_in_bounds(u, v, poly)), (u, v)


@pytest.mark.parametrize("origin", [(0.0, 0.0, 0.0), (-0.3, -0.4, 1.2), (1e5, -1e5, 3e4)])
def test_desk_gets_an_inner_box_and_a_dart_or_a_parallelogram_none(origin):
    """The desk rectangle in its own workplane frame, near the camera or
    ~1e5 m away, gets a box that covers all of it but a sliver; a dart and a
    sheared parallelogram get none, so (1.5, 0.1), outside the parallelogram
    but inside its second-coordinate box, is dropped."""
    ox, oy, oz = origin
    plane = plane_from_corners([Point3(ox + c.x, oy + c.y, oz + c.z) for c in desk_corners()])
    desk = corners_in_frame(plane, workplane_frame(plane))
    left, right, bottom, top = RunningAverageStabilizer(desk)._box
    margin = 1e-8 * max(1.0, *(abs(c) for corner in desk for c in corner))
    assert 0.0 < left < margin and 0.6 - margin < right < 0.6 and 0.0 < bottom < margin and 0.8 - margin < top < 0.8
    assert RunningAverageStabilizer(((0.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0, 2.0)))._box == NO_BOX
    parallelogram = ((0.0, 0.0), (1.0, 0.0), (3.0, 1.0), (2.0, 1.0))
    stab = RunningAverageStabilizer(parallelogram)
    assert stab._box == NO_BOX
    assert stab.push(1.5, 0.1, 0.0, 0.0, "right") is None and not points_in_bounds(1.5, 0.1, parallelogram)
