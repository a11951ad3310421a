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

(d) Snap decisions. With k samples p_i, f = p_0 and S the largest |p_i - f|
over both components, ``planar_mean`` rounds k offsets (u S each), adds them
one by one (at most (k - 1) u k S), divides by k and adds f back (u |m|), so
to first order each component of the float mean m lies within
(k + 1) u S + u |m| of the exact mean M; the test states
delta = (k + 2) eps (S + |m|), twice that, with |m| the mean's larger
component. Then:
- the gate: each float deviation, math.hypot (or np.hypot, both within an
  ulp) of two rounded differences from m, lies within 2 delta + 2 eps dev
  of the exact deviation from M; so outside |e_max - T| <= 2 delta + 3 eps T,
  compared in squares, the strict ``e_max < T`` decisions agree;
- the nearest entity: each float distance lies within 2 delta + 2 eps d of
  the exact one, and d is at most L = |du| + |dv| of its exact offsets. If
  the exact nearest (d1) and any other entity (d2) at another position had
  d2 - d1 <= W = 4 delta + 2 eps (L1 + L2), then d2^2 - d1^2 <= W (L1 + L2);
  so past that, in squares, the float choice is the exact one. Entities on
  one spot get equal float distances, and both break the tie by id;
- containment: each float |m_u - c_u| lies within delta + eps |M_u - c_u| of
  the exact one, so outside that band around each half extent the decisions
  agree.
Inside a band the exact decision is None and the float one is not checked.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from gesturepoint.evaluation import BoardLayout, ScenarioTemplate, snap_trials
from gesturepoint.geometry import (ARM_SEPARATION_MIN, DEFAULT_T_MIN, PARALLEL_TOL, PlanarPoint, Point3,
                                   corners_in_frame, planar_mean, plane_from_corners, workplane_frame)
from gesturepoint.pipeline import GesturePipeline
from gesturepoint.snap import Area, SnapRequest, Target, evaluate_request, stability_gate
from gesturepoint.stabilizer import RunningAverageStabilizer, edge_table, points_in_bounds

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
        out = pipeline.process((float(k), {"right_shoulder": (*s, 1.0), "right_wrist": (*w, 1.0)}))
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
    out = pipeline.process((float(k), {"right_shoulder": (*s, 1.0), "right_wrist": (*w, 1.0)}))
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


def _exact_snap(samples, strategy: str, entities, threshold: float):
    """The snap's decision in exact arithmetic on the same floats: None inside
    a band derived above, else ("none",) when nothing is selected, or the
    selected id and whether the place fallback chose it."""
    k, f, m = len(samples), samples[0], planar_mean(samples)
    exact_mean = [sum(Fraction(getattr(p, c)) for p in samples) / k for c in ("u", "v")]
    spread = max(abs(Fraction(getattr(p, c)) - Fraction(getattr(f, c))) for p in samples for c in ("u", "v"))
    eps = Fraction(EPS)
    delta = (k + 2) * eps * (spread + max(abs(Fraction(m.u)), abs(Fraction(m.v))))
    mu, mv = exact_mean
    dev2 = max((Fraction(p.u) - mu) ** 2 + (Fraction(p.v) - mv) ** 2 for p in samples)
    t = Fraction(threshold)
    band = 2 * delta + 3 * eps * t
    if t <= band or (t - band) ** 2 <= dev2 <= (t + band) ** 2:
        return None
    if dev2 >= t * t:
        return ("none",)
    spots = {e.id: (Fraction(e.position.u), Fraction(e.position.v)) if strategy == "pick"
             else (Fraction(e.center.u), Fraction(e.center.v)) for e in entities}
    pool, inside = list(entities), []
    if strategy == "place":
        for a in entities:
            cu, cv = spots[a.id]
            offsets = ((abs(mu - cu), Fraction(a.half_extent[0])), (abs(mv - cv), Fraction(a.half_extent[1])))
            if any(abs(off - half) <= delta + eps * off for off, half in offsets):
                return None
            if all(off <= half for off, half in offsets):
                inside.append(a)
        pool = inside or pool

    def d2(e):
        cu, cv = spots[e.id]
        return (mu - cu) ** 2 + (mv - cv) ** 2

    def reach(e):
        cu, cv = spots[e.id]
        return abs(mu - cu) + abs(mv - cv)

    best = min(pool, key=lambda e: (d2(e), e.id))
    for other in pool:
        if spots[other.id] != spots[best.id]:
            width = 4 * delta + 2 * eps * (reach(best) + reach(other))
            if d2(other) - d2(best) <= width * (reach(best) + reach(other)):
                return None
    return (best.id, strategy == "place" and not inside)


def _off_by(rng: random.Random, value: float) -> float:
    """``value`` off by a relative 1e-15 to 0.1, either way: the small offsets
    fall inside a band, the others test a decision close to its edge."""
    return value * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -1.0))


@st.composite
def _snap_cases(draw):
    """1 to 15 samples spread 1e-6 to 0.1 m around a desk point; a threshold
    of 0.05 or near the samples' own largest deviation; and 1 to 4 targets or
    areas around their float mean: anywhere, on one spot twice under two ids
    (an exact tie), mirrored about the mean up to a relative perturbation (a
    near tie), or with an edge near the mean. Hypothesis draws the structure;
    one seeded ``random.Random`` draws the numbers."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    k, cu, cv, spread = rng.randint(1, 15), rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.8), 10.0 ** rng.uniform(-6, -1)
    samples = tuple(PlanarPoint(cu + spread * rng.uniform(-1.0, 1.0), cv + spread * rng.uniform(-1.0, 1.0),
                                rng.uniform(-0.01, 0.01)) for _ in range(k))
    m, deviation = planar_mean(samples), stability_gate(samples).max_deviation
    threshold = 0.05 if deviation == 0.0 or draw(st.integers(0, 2)) == 0 else _off_by(rng, deviation)
    strategy = draw(st.sampled_from(["pick", "place"]))
    spots = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["anywhere", "twin", "mirror", "edge"]))
        du, dv = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
        if kind == "twin" and spots:
            spots.append(spots[-1])
        elif kind == "mirror" and spots:
            su, sv, half = spots[-1]
            scale = _off_by(rng, 1.0)
            spots.append((m.u - (su - m.u) * scale, m.v - (sv - m.v) * scale, half))
        else:
            half = (rng.uniform(0.005, 0.1), rng.uniform(0.005, 0.1))
            if kind == "edge":  # the mean near a u edge, a v edge or a corner
                which = draw(st.sampled_from(["u", "v", "uv"]))
                if "u" in which:
                    du = math.copysign(_off_by(rng, half[0]), du)
                if "v" in which:
                    dv = math.copysign(_off_by(rng, half[1]), dv)
            spots.append((m.u + du, m.v + dv, half))
    ids = [f"E{len(spots) - j}" for j in range(len(spots))]  # a tie breaks against the list order
    if strategy == "pick":
        return samples, strategy, tuple(Target(i, i, PlanarPoint(u, v)) for i, (u, v, _) in zip(ids, spots)), threshold
    return samples, strategy, tuple(Area(i, PlanarPoint(u, v), half) for i, (u, v, half) in zip(ids, spots)), threshold


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_snap_cases())
def test_snap_decisions_equal_the_exact_ones_outside_their_bands(case):
    samples, strategy, entities, threshold = case
    exact = _exact_snap(samples, strategy, entities, threshold)
    if exact is None:
        return
    targets, areas = (entities, ()) if strategy == "pick" else ((), entities)
    result = evaluate_request(SnapRequest(samples, strategy), targets, areas, threshold=threshold)
    assert (("none",) if result is None else (result.selected_id, result.fallback_used)) == exact
    board = BoardLayout("custom", None, targets, areas)
    template = ScenarioTemplate.desk_default(0.0, snap_samples=len(samples), stability_threshold=threshold)
    points = np.array([[(p.u, p.v, p.z_residual) for p in samples]])
    (trial,) = snap_trials(template, [board], np.zeros(1, int), [(board, 0, entities[0], 0)], points,
                           np.array([len(samples)]))
    assert (("none",) if trial.selected_id is None else (trial.selected_id, trial.fallback_used)) == exact
