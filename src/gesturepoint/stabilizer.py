"""Running-average stabilization of raw workplane intersections.

Raw intersections outside the workspace bounds are discarded outright (they
neither enter nor evict buffer contents); in-bounds samples feed a per-hand
FIFO of capacity five and every accepted sample emits the current buffer
mean. There is no time-based expiry and no reset: live and replay build a
new pipeline, and with it a new stabilizer, for each session.

``push`` is the per-hit step of ``GesturePipeline.process``, in one pass.
The bounds test first keeps a hit strictly inside ``inner_box``, an
axis-aligned box taken once that a convex workspace provably contains;
every other hit, NaN included, takes the on-edge and even-odd loop over
edge constants taken once, with the expressions of
``geometry.points_in_bounds``. So every decision equals its. The buffers
hold ``(u, v, z_residual)`` tuples; the mean adds offsets from the window's
first point one by one, as ``geometry.planar_mean`` does (written out for a
full window of the default five), so it does not change with the
compensated ``sum()`` of Python 3.12 on.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

from .geometry import FrozenValue, PlanarPoint

DEFAULT_WINDOW = 5


class GesturePoint(FrozenValue):
    """A stabilized pointed location in workplane coordinates."""

    def __init__(self, position: PlanarPoint, timestamp: float, hand: str, window_size: int) -> None:
        d = self.__dict__
        d["position"], d["timestamp"], d["hand"], d["window_size"] = position, timestamp, hand, window_size


# the box no point lies strictly inside: a polygon without an inner box sends every sample to the loop
NO_BOX = (math.inf, -math.inf, math.inf, -math.inf)


def inner_box(bounds: Sequence[tuple[float, float]]) -> tuple[float, float, float, float]:
    """``(u0, u1, v0, v1)``, an axis-aligned box inside the polygon ``bounds``
    by a margin of 1e-9 times its largest coordinate (at least 1e-9), or
    ``NO_BOX``. The box spans the second-smallest to the second-largest
    corner coordinate on each axis, less the margin; it is kept only when
    the polygon is convex (every corner strictly on the inner side of every
    edge it is not on) and each box corner lies on the inner side of every
    edge by half the margin or more. That distance is far above the
    crossing test's rounding, so every point strictly inside the box is one
    the edge loop keeps."""
    bounds = tuple((u, v) for u, v in bounds)
    if len(bounds) < 4:
        return NO_BOX
    margin = 1e-9 * max(1.0, *(abs(c) for corner in bounds for c in corner))
    us, vs = sorted(u for u, _ in bounds), sorted(v for _, v in bounds)
    u0, u1, v0, v1 = box = (us[1] + margin, us[-2] - margin, vs[1] + margin, vs[-2] - margin)
    edges = tuple(zip(bounds, bounds[1:] + bounds[:1]))
    area = sum(ax * by - bx * ay for (ax, ay), (bx, by) in edges)  # twice the signed area
    if not (u0 < u1 and v0 < v1 and area != 0.0):
        return NO_BOX
    sign = 1.0 if area > 0.0 else -1.0  # the polygon's orientation: inner sides are positive
    for (ax, ay), (bx, by) in edges:
        dx, dy = bx - ax, by - ay
        others = [p for p in bounds if p != (ax, ay) and p != (bx, by)]
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
        # per edge a -> b: (ax, ay, by, dx, dy, on-edge tolerance, reach),
        # reach being the largest projection that still lies on the edge
        edges = []
        for (ax, ay), (bx, by) in zip(self.bounds, self.bounds[1:] + self.bounds[:1]):
            dx, dy = bx - ax, by - ay
            edges.append((ax, ay, by, dx, dy, 1e-12 * max(abs(dx), abs(dy), 1.0), dx * dx + dy * dy + 1e-12))
        self._edges = tuple(edges)
        self._box = inner_box(self.bounds)
        self._buffers: dict[str, deque[tuple[float, float, float]]] = {}

    def push(self, u: float, v: float, z_residual: float, timestamp: float, hand: str) -> GesturePoint | None:
        """Accept one raw sample (u, v, z_residual); emit the buffer mean, or
        None if discarded. The sample is kept when it lies strictly inside
        the inner box, or else on an edge or inside by even-odd crossings;
        NaN is outside."""
        left, right, bottom, top = self._box
        if not (left < u < right and bottom < v < top):
            inside = False
            for ax, ay, by, dx, dy, tol, reach in self._edges:
                du, dv = u - ax, v - ay
                if abs(dx * dv - dy * du) <= tol and -1e-12 <= du * dx + dv * dy <= reach:
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
