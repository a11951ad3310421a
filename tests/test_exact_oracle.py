"""The per-frame path against exact arithmetic: each float result is
compared with the exact value, in ``fractions.Fraction``, of the same
expressions on the same float inputs and constants.

(a) Hits. With ``window=1`` the pipeline emits each raw hit, so its (u, v)
is ``process``'s arithmetic alone. Let u = eps / 2 be the unit roundoff, M
the largest magnitude among the joint, frame-origin coordinates and the
plane offset d, T = |t|, and c = |<n, w - s>| / |w - s| the cosine between
ray and normal (the parallel gate keeps c >= 1e-6). To first order
(Higham, "Accuracy and Stability of Numerical Algorithms", 2002, 3.1):
- the denominator <n, w - s>, with its rounded differences, is off by at
  most 4u sum |n_i (w_i - s_i)| <= 4u |D| / c, a relative 4u / c;
- the numerator <n, s> + d is off by at most 4u (|n|_1 + 1) M <= 10.93 u M;
- so t is off by at most 4u T / c + 10.93 u M / |D| + u T;
- each hit component s + (w - s) t - o is off by at most
  u M (1 + T) (10.93 / c + 10);
- the rotation by R^T (orthonormal rows, |column|_1 <= sqrt 3) adds
  10.39 u M (1 + T) and scales the above by sqrt 3.
In all, each of u and v lies within 23.32 eps M (1 + T) / c of the exact
value. The test states K = 24.

(b) Bounds. ``stabilizer.edge_table`` gives each edge its on-edge tolerance
tol = 1e-12 max(|dx|, |dy|, 1) and reach |e|^2 + 1e-12. A point the float
rule keeps as on an edge has an exact cross product within tol plus its
rounding (~1e-15 here) and a projection at most 1e-12 past an end, so it
lies within sqrt 2 (tol + 1e-15) / |e| of the edge; a float crossing test
that differs from the exact one puts the point within ~1e-15 of that edge.
So outside band_e = 2 tol / |e| of every edge, the float rule keeps a point
exactly when the exact even-odd test does; inside the band it may keep a
point just outside as on the edge, but it never drops one that is exactly
inside or on the boundary.

(c) Ray decisions. ``process`` drops an arm whose float length
sqrt(dx^2 + dy^2 + dz^2) is at most ARM_SEPARATION_MIN (no ray), a ray with
|<n, w - s>| / length below PARALLEL_TOL (parallel), and a hit at t below
DEFAULT_T_MIN (behind the wrist). The exact decisions compare squares, with
no roots, on the exact d = w - s: |d|^2 against ARM_SEPARATION_MIN^2,
<n, d>^2 against PARALLEL_TOL^2 |d|^2, and t = -(<n, s> + d0) / <n, d>
against DEFAULT_T_MIN. To first order:
- the float length is |d| (1 + 3.5u): each rounded difference, square and
  sum adds u to |d|^2 (7u in all), and the root halves that and adds u; so
  outside |d|^2 = ARM_SEPARATION_MIN^2 (1 +- 8 eps) the decisions agree;
- the float <n, d> is off by at most 4u sum |n_i d_i| <= 4u |d| (|n| is 1
  to a few u), and the quotient by the length adds 4.5u relative, so the
  float cosine is off by less than 2 eps + 2.25 eps P near P = PARALLEL_TOL;
  outside (P +- 4 eps)^2 |d|^2 they agree;
- t is off by |t| (2 eps (A + B) / |<n, d>| + eps / 2), with A = sum
  |n_i s_i| + |d0| and B = sum |n_i d_i| bounding the rounding of the
  numerator and the denominator; outside twice that of DEFAULT_T_MIN they
  agree.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gesturepoint.geometry import (ARM_SEPARATION_MIN, DEFAULT_T_MIN, PARALLEL_TOL, Point3, corners_in_frame,
                                   plane_from_corners, workplane_frame)
from gesturepoint.pipeline import GesturePipeline
from gesturepoint.stabilizer import RunningAverageStabilizer, edge_table, points_in_bounds
from gesturepoint.stream import KeypointFrame

EPS = sys.float_info.epsilon
K = 24  # the hit bound's constant, derived above
STATED_SLACK = 1e-12  # the on-edge band's slack, as the README states it
# a desk seen from above, and a tilted, skewed quadrilateral in camera coordinates
DESK = [Point3(0.0, 0.0, 0.0), Point3(0.6, 0.0, 0.0), Point3(0.6, 0.8, 0.0), Point3(0.0, 0.8, 0.0)]
SKEWED = [Point3(-0.3, 0.2, 1.0), Point3(0.3, 0.2, 1.0), Point3(0.5, 0.5, 1.6), Point3(-0.2, 0.5, 1.6)]
PLANES = {
    "desk": (plane_from_corners(DESK), (0.3, -0.1, 0.6)),
    "skewed": (plane_from_corners(SKEWED, Point3(0.0, 0.0, 0.0)), (0.15, -0.35, 0.6)),
}
BOUNDS = {name: corners_in_frame(plane, workplane_frame(plane)) for name, (plane, _) in PLANES.items()}


def _exact_hit(pipeline: GesturePipeline, s, w):
    """``process``'s (u, v) for joints s and w, in exact arithmetic on the
    same floats, with M (1 + T) / c, the scale of the hit's bound."""
    plane, frame = pipeline.plane, pipeline.frame
    n = [Fraction(c) for c in plane.normal.as_tuple()]
    o = [Fraction(c) for c in frame.origin.as_tuple()]
    d = Fraction(plane.d)
    s, w = [Fraction(c) for c in s], [Fraction(c) for c in w]
    ray = [b - a for a, b in zip(s, w)]
    denom = sum(a * b for a, b in zip(n, ray))
    t = -(sum(a * b for a, b in zip(n, s)) + d) / denom
    x = [a + r * t - b for a, r, b in zip(s, ray, o)]
    (r00, r01, _), (r10, r11, _), (r20, r21, _) = [[Fraction(c) for c in row] for row in frame.rows]
    u, v = r00 * x[0] + r10 * x[1] + r20 * x[2], r01 * x[0] + r11 * x[1] + r21 * x[2]
    big = max(abs(c) for c in (*s, *w, *o, d))
    cosine = abs(float(denom)) / math.sqrt(float(sum(r * r for r in ray)))
    return u, v, float(big) * (1.0 + abs(float(t))) / cosine


@st.composite
def _rays(draw):
    """A plane and up to 12 arms: the shoulder scattered 15 cm around the
    plane's operator, aimed across the workspace and up to 30% beyond it."""
    name = draw(st.sampled_from(sorted(PLANES)))
    plane, shoulder = PLANES[name]
    c0, c1, _, c3 = (p.as_tuple() for p in plane.corners)
    arms = []
    for _ in range(draw(st.integers(1, 12))):
        s = tuple(a + draw(st.floats(-0.15, 0.15)) for a in shoulder)
        f, g = draw(st.floats(-0.3, 1.3)), draw(st.floats(-0.3, 1.3))
        aim = tuple(a + f * (b - a) + g * (e - a) for a, b, e in zip(c0, c1, c3))
        ray = [a - b for a, b in zip(aim, s)]
        scale = 0.55 / math.sqrt(sum(r * r for r in ray))
        arms.append((s, tuple(a + r * scale for a, r in zip(s, ray))))
    return name, arms


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rays())
def test_raw_hits_lie_within_the_stated_bound_of_the_exact_hit(rays):
    name, arms = rays
    pipeline = GesturePipeline(PLANES[name][0], window=1)
    for k, (s, w) in enumerate(arms):
        out = pipeline.process(KeypointFrame(float(k), {"right_shoulder": (*s, 1.0), "right_wrist": (*w, 1.0)}))
        if not out:
            continue
        u, v, scale = _exact_hit(pipeline, s, w)
        p = out[0].position
        bound = Fraction(K * EPS * scale)
        assert abs(Fraction(p.u) - u) <= bound and abs(Fraction(p.v) - v) <= bound, (s, w)


def _exact_in_bounds(u: Fraction, v: Fraction, bounds) -> bool:
    """Exact even-odd containment, the boundary inside."""
    inside = False
    for (ax, ay), (bx, by) in zip(bounds, bounds[1:] + bounds[:1]):
        ax, ay, bx, by = Fraction(ax), Fraction(ay), Fraction(bx), Fraction(by)
        dx, dy, du, dv = bx - ax, by - ay, u - ax, v - ay
        if dx * dv - dy * du == 0 and 0 <= du * dx + dv * dy <= dx * dx + dy * dy:
            return True
        if (ay > v) != (by > v) and u < ax + dv * dx / dy:
            inside = not inside
    return inside


def _in_band(u: Fraction, v: Fraction, bounds) -> bool:
    """Whether (u, v) lies within band_e = 2 tol / |e| of some edge e of
    ``edge_table``, with the stated tol, compared in squares, exactly."""
    for ax, ay, by, dx, dy, _, _, bx in edge_table(bounds):
        tol = STATED_SLACK * max(abs(dx), abs(dy), 1.0)
        ax, ay, bx, by, dx, dy = (Fraction(c) for c in (ax, ay, bx, by, dx, dy))
        length2 = dx * dx + dy * dy
        f = min(max(((u - ax) * dx + (v - ay) * dy) / length2, Fraction(0)), Fraction(1))
        du, dv = u - (ax + f * dx), v - (ay + f * dy)
        if (du * du + dv * dv) * length2 <= 4 * Fraction(tol) ** 2:
            return True
    return False


@st.composite
def _near_edges(draw):
    """A workspace and up to 16 points: each at a distance of 1e-16 to 1e-3 m
    (or 0) to either side of an edge, along it or up to 20% past its ends,
    or anywhere around the workspace."""
    name = draw(st.sampled_from(sorted(BOUNDS)))
    bounds = BOUNDS[name]
    points = []
    for _ in range(draw(st.integers(1, 16))):
        if draw(st.integers(0, 4)) == 0:
            points.append((draw(st.floats(-0.3, 1.1)), draw(st.floats(-0.3, 1.1))))
            continue
        i = draw(st.integers(0, len(bounds) - 1))
        (ax, ay), (bx, by) = bounds[i], bounds[(i + 1) % len(bounds)]
        f = draw(st.sampled_from([0.0, 1.0]) | st.floats(-0.2, 1.2))
        off = draw(st.sampled_from([0.0]) | st.floats(-16.0, -3.0).map(lambda e: 10.0 ** e))
        off *= draw(st.sampled_from([-1.0, 1.0]))
        length = math.hypot(bx - ax, by - ay)
        nu, nv = -(by - ay) / length, (bx - ax) / length
        points.append((ax + f * (bx - ax) + off * nu, ay + f * (by - ay) + off * nv))
    return name, points


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_near_edges())
def test_bounds_rule_equals_the_exact_test_outside_the_stated_band(case):
    name, points = case
    bounds = BOUNDS[name]
    for ax, ay, by, dx, dy, tol, reach, bx in edge_table(bounds):  # the band the README states
        assert tol == STATED_SLACK * max(abs(dx), abs(dy), 1.0) and reach == dx * dx + dy * dy + STATED_SLACK
    stab = RunningAverageStabilizer(bounds)
    for u, v in points:
        kept = bool(points_in_bounds(u, v, bounds))
        assert (stab.push(u, v, 0.0, 0.0, "right") is not None) == kept, (u, v)
        exact = _exact_in_bounds(Fraction(u), Fraction(v), bounds)
        if _in_band(Fraction(u), Fraction(v), bounds):
            assert kept or not exact, (u, v)
        else:
            assert kept == exact, (u, v)


def _exact_decision(plane, s, w) -> str | None:
    """``process``'s decision for joints s and w in exact arithmetic ("no ray",
    "dropped" for a parallel ray or one hit behind the wrist, or "hit"), or
    None inside a decision's band, derived above."""
    n, d0 = [Fraction(c) for c in plane.normal.as_tuple()], Fraction(plane.d)
    s, w = [Fraction(c) for c in s], [Fraction(c) for c in w]
    ray = [b - a for a, b in zip(s, w)]
    length2 = sum(r * r for r in ray)
    eps, sep2 = Fraction(EPS), Fraction(ARM_SEPARATION_MIN) ** 2
    if abs(length2 - sep2) <= 8 * eps * sep2:
        return None
    if length2 <= sep2:
        return "no ray"
    denom, tol = sum(a * r for a, r in zip(n, ray)), Fraction(PARALLEL_TOL)
    if (tol - 4 * eps) ** 2 * length2 <= denom * denom <= (tol + 4 * eps) ** 2 * length2:
        return None
    if denom * denom < tol * tol * length2:
        return "dropped"
    t = -(sum(a * b for a, b in zip(n, s)) + d0) / denom
    rounding = sum(abs(a * b) for a, b in zip(n, s)) + abs(d0) + sum(abs(a * r) for a, r in zip(n, ray))
    if abs(t - Fraction(DEFAULT_T_MIN)) <= abs(t) * eps * (4 * rounding / abs(denom) + 1):
        return None
    return "dropped" if t < Fraction(DEFAULT_T_MIN) else "hit"


def _decision(pipeline: GesturePipeline, k: int, s, w) -> str:
    """What ``process`` decided for one arm, read from its output and counters."""
    without, discarded = pipeline.frames_without_ray, pipeline.discarded_out_of_bounds
    out = pipeline.process(KeypointFrame(float(k), {"right_shoulder": (*s, 1.0), "right_wrist": (*w, 1.0)}))
    if pipeline.frames_without_ray > without:
        return "no ray"
    return "hit" if out or pipeline.discarded_out_of_bounds > discarded else "dropped"


def _near(draw, value: float) -> float:
    """``value``, or ``value`` off by a relative 1e-16 to 0.3, or up to 3 times it."""
    return draw(st.sampled_from([value]) | st.floats(-16.0, -0.5).map(lambda e: value * (1.0 + 10.0 ** e))
                | st.floats(-16.0, -0.5).map(lambda e: value * (1.0 - 10.0 ** e)) | st.floats(0.0, 3.0 * value))


@st.composite
def _decision_arms(draw):
    """A plane and, per example, arms of three kinds, each shoulder scattered
    15 cm around the plane's operator: arms about ARM_SEPARATION_MIN long;
    rays 2 cm to 100 m long (far from 1 m, where the parallel test's division
    by the length shows) whose cosine to the normal is about PARALLEL_TOL,
    aimed towards the plane; and rays towards a workspace point whose wrist
    lies at a fraction f of the way there or beyond it, so the plane may lie
    between shoulder and wrist (0 < t = 1 / f < 1)."""
    name = draw(st.sampled_from(sorted(PLANES)))
    plane, shoulder = PLANES[name]
    n = plane.normal.as_tuple()
    c0, c1, _, c3 = (p.as_tuple() for p in plane.corners)
    edge = [b - a for a, b in zip(c0, c1)]
    e1 = [a - sum(b * m for b, m in zip(edge, n)) * m for a, m in zip(edge, n)]  # in the plane
    e1 = [a / math.sqrt(sum(b * b for b in e1)) for a in e1]
    e2 = (n[1] * e1[2] - n[2] * e1[1], n[2] * e1[0] - n[0] * e1[2], n[0] * e1[1] - n[1] * e1[0])
    arms = []
    for _ in range(draw(st.integers(1, 4))):
        s = tuple(a + draw(st.floats(-0.15, 0.15)) for a in shoulder)
        height = sum(a * m for a, m in zip(s, n)) + plane.d
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        along = [math.cos(phi) * a + math.sin(phi) * b for a, b in zip(e1, e2)]
        # about ARM_SEPARATION_MIN long, in any direction off the normal
        cos = draw(st.floats(-1.0, 1.0))
        unit = [cos * m + math.sqrt(1.0 - cos * cos) * a for m, a in zip(n, along)]
        arms.append((s, tuple(a + _near(draw, ARM_SEPARATION_MIN) * u for a, u in zip(s, unit))))
        # about PARALLEL_TOL off the plane, towards it
        cos = -math.copysign(_near(draw, PARALLEL_TOL), height)
        unit = [cos * m + math.sqrt(1.0 - cos * cos) * a for m, a in zip(n, along)]
        length = 10.0 ** draw(st.floats(math.log10(0.02), 2.0))
        arms.append((s, tuple(a + length * u for a, u in zip(s, unit))))
        # towards a workspace point, the wrist at a fraction f of the way
        g, h = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        aim = [a + g * (b - a) + h * (e - a) for a, b, e in zip(c0, c1, c3)]
        f = draw(st.sampled_from([1.0]) | st.floats(0.3, 3.0) | st.floats(-16.0, -1.0).map(lambda e: 1.0 + 10.0 ** e)
                 | st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0 ** e))
        arms.append((s, tuple(a + f * (b - a) for a, b in zip(s, aim))))
    return name, arms


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_decision_arms())
def test_ray_decisions_equal_the_exact_ones_outside_their_bands(case):
    name, arms = case
    plane = PLANES[name][0]
    pipeline = GesturePipeline(plane, window=1)
    for k, (s, w) in enumerate(arms):
        decision = _decision(pipeline, k, s, w)
        exact = _exact_decision(plane, s, w)
        assert exact is None or decision == exact, (s, w, decision, exact)
