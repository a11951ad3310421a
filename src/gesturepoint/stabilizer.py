"""Running-average stabilization of raw workplane intersections.

Raw intersections outside the workspace bounds are discarded outright (they
neither enter nor evict buffer contents); in-bounds samples feed a per-hand
FIFO of capacity five and every accepted sample emits the current buffer
mean. There is no time-based expiry and no reset: live and replay build a
new pipeline, and with it a new stabilizer, for each session.

The workspace-bounds rule lives here, once: ``edge_table`` takes each edge's
constants, and ``push``, ``inner_box`` and ``points_in_bounds`` (floats or
numpy arrays, for the sweeps) read them. ``push`` is the per-hit step of
``GesturePipeline.process``, in one pass. Its bounds test first keeps a hit
strictly inside ``inner_box``, an axis-aligned box taken once that a convex
workspace provably contains; every other hit, NaN included, takes the
on-edge and even-odd loop over the table, with the expressions of
``points_in_bounds``. So every decision equals its. The buffers hold
``(u, v, z_residual)`` tuples; the mean adds offsets from the window's first
point one by one, as ``geometry.planar_mean`` does (written out for a full
window of the default five), so it does not change with the compensated
``sum()`` of Python 3.12 on.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence

from .geometry import FrozenValue, PlanarPoint

DEFAULT_WINDOW = 5


class GesturePoint(FrozenValue):
    """A stabilized pointed location in workplane coordinates."""

    def __init__(self, position: PlanarPoint, timestamp: float, hand: str, window_size: int) -> None:
        d = self.__dict__
        d["position"], d["timestamp"], d["hand"], d["window_size"] = position, timestamp, hand, window_size


EDGE_SLACK = 1e-12  # the bounds test's slack: its on-edge tolerance per meter of edge, and its reach past each end
# the box no point lies strictly inside: a polygon without an inner box sends every sample to the loop
NO_BOX = (math.inf, -math.inf, math.inf, -math.inf)


def edge_table(bounds: Sequence[tuple[float, float]]) -> tuple[tuple[float, ...], ...]:
    """Per edge a -> b of the polygon ``bounds``, the bounds test's constants
    ``(ax, ay, by, dx, dy, tol, reach, bx)``: the on-edge tolerance ``tol``, the
    largest projection ``reach`` still on the edge, and last ``inner_box``'s ``bx``."""
    edges = []
    for (ax, ay), (bx, by) in zip(bounds, bounds[1:] + bounds[:1]):
        dx, dy = bx - ax, by - ay
        edges.append((ax, ay, by, dx, dy, EDGE_SLACK * max(abs(dx), abs(dy), 1.0), dx * dx + dy * dy + EDGE_SLACK, bx))
    return tuple(edges)


def points_in_bounds(u, v, bounds: Sequence[tuple[float, float]]):
    """Even-odd containment test of (u, v) in a simple polygon, elementwise
    over float or numpy array coordinates with one arithmetic for both; the
    boundary counts as inside and NaN is outside."""
    on_edge = inside = False
    for ax, ay, by, dx, dy, tol, reach, _ in edge_table(bounds):
        du, dv = u - ax, v - ay
        dot = du * dx + dv * dy
        on_edge = on_edge | ((abs(dx * dv - dy * du) <= tol) & (dot >= -EDGE_SLACK) & (dot <= reach))
        if dy:
            inside = inside ^ (((ay > v) != (by > v)) & (u < ax + dv * dx / dy))
    return on_edge | inside


def inner_box(edges: Sequence[tuple[float, ...]]) -> tuple[float, float, float, float]:
    """``(u0, u1, v0, v1)``, an axis-aligned box inside the polygon of the
    ``edge_table`` ``edges`` by a margin of 1e-9 times its largest coordinate
    (at least 1e-9), or ``NO_BOX``. The box spans the second-smallest to the
    second-largest corner coordinate on each axis, less the margin; it is
    kept only when the polygon is convex (every corner strictly on the inner
    side of every edge it is not on) and each box corner lies on the inner
    side of every edge by half the margin or more. That distance is far above
    the crossing test's rounding, so every point strictly inside the box is
    one the edge loop keeps."""
    if len(edges) < 4:
        return NO_BOX
    corners = [(ax, ay) for ax, ay, *_ in edges]
    margin = 1e-9 * max(1.0, *(abs(c) for corner in corners for c in corner))
    us, vs = sorted(u for u, _ in corners), sorted(v for _, v in corners)
    u0, u1, v0, v1 = box = (us[1] + margin, us[-2] - margin, vs[1] + margin, vs[-2] - margin)
    area = 0.0  # twice the signed area, added one by one: not sum(), which compensates from Python 3.12 on
    for ax, ay, by, _, _, _, _, bx in edges:
        area += ax * by - bx * ay
    if not (u0 < u1 and v0 < v1 and area != 0.0):
        return NO_BOX
    sign = 1.0 if area > 0.0 else -1.0  # the polygon's orientation: inner sides are positive
    for ax, ay, by, dx, dy, _, _, bx in edges:
        others = [p for p in corners if p != (ax, ay) and p != (bx, by)]
        least = 0.5 * margin * (abs(dx) + abs(dy))  # a distance of margin / 2, as |edge| <= |dx| + |dy|
        if not (all(sign * (dx * (pv - ay) - dy * (pu - ax)) > 0.0 for pu, pv in others)
                and all(sign * (dx * (pv - ay) - dy * (pu - ax)) >= least for pu in (u0, u1) for pv in (v0, v1))):
            return NO_BOX
    return box


class RunningAverageStabilizer:
    """Per-hand running average over the last ``window`` in-bounds samples."""

    def __init__(
        self, bounds: Sequence[tuple[float, float]], window: int = DEFAULT_WINDOW
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.bounds = tuple(bounds)
        self.window = window
        self._edges = edge_table(self.bounds)
        self._box = inner_box(self._edges)
        self._buffers: dict[str, deque[tuple[float, float, float]]] = {}

    def push(self, u: float, v: float, z_residual: float, timestamp: float, hand: str) -> GesturePoint | None:
        """Accept one raw sample (u, v, z_residual); emit the buffer mean, or
        None if discarded. The sample is kept when it lies strictly inside
        the inner box, or else on an edge or inside by even-odd crossings;
        NaN is outside."""
        left, right, bottom, top = self._box
        if not (left < u < right and bottom < v < top):
            inside = False
            for ax, ay, by, dx, dy, tol, reach, _ in self._edges:
                du, dv = u - ax, v - ay
                if abs(dx * dv - dy * du) <= tol and -EDGE_SLACK <= du * dx + dv * dy <= reach:
                    break  # on an edge
                # a crossing edge has ay != by, so dy is not zero
                if (ay > v) != (by > v) and u < ax + dv * dx / dy:
                    inside = not inside
            else:
                if not inside:
                    return None
        buf = self._buffers.get(hand)
        if buf is None:
            buf = self._buffers[hand] = deque(maxlen=self.window)
        buf.append((u, v, z_residual))
        if len(buf) == 5:  # five points, as a full window of the default size holds: the loop below, written out
            (fu, fv, fz), (u1, v1, z1), (u2, v2, z2), (u3, v3, z3), (u4, v4, z4) = buf
            return GesturePoint(PlanarPoint(fu + ((u1 - fu) + (u2 - fu) + (u3 - fu) + (u4 - fu)) / 5,
                                            fv + ((v1 - fv) + (v2 - fv) + (v3 - fv) + (v4 - fv)) / 5,
                                            fz + ((z1 - fz) + (z2 - fz) + (z3 - fz) + (z4 - fz)) / 5),
                                timestamp, hand, 5)
        fu, fv, fz = buf[0]
        su = sv = sz = 0.0
        for pu, pv, pz in buf:
            su += pu - fu
            sv += pv - fv
            sz += pz - fz
        k = len(buf)
        return GesturePoint(PlanarPoint(fu + su / k, fv + sv / k, fz + sz / k), timestamp, hand, k)
