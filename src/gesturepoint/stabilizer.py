"""Running-average stabilization of raw workplane intersections.

Raw intersections outside the workspace bounds are discarded outright (they
neither enter nor evict buffer contents); in-bounds samples feed a per-hand
FIFO of capacity five and every accepted sample emits the current buffer
mean. There is no time-based expiry and no reset: live and replay build a
new pipeline, and with it a new stabilizer, for each session.

``push`` is the per-hit step of ``GesturePipeline.process``, in one pass:
the bounds test uses edge constants taken once, with the expressions of
``geometry.points_in_bounds`` (so every decision equals its); the buffers
hold ``(u, v, z_residual)`` tuples; the mean adds offsets from the window's
first point one by one, as ``geometry.planar_mean`` does, so it does not
change with the compensated ``sum()`` of Python 3.12 on.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .geometry import FrozenValue, PlanarPoint

DEFAULT_WINDOW = 5


class GesturePoint(FrozenValue):
    """A stabilized pointed location in workplane coordinates."""

    def __init__(self, position: PlanarPoint, timestamp: float, hand: str, window_size: int) -> None:
        d = self.__dict__
        d["position"], d["timestamp"], d["hand"], d["window_size"] = position, timestamp, hand, window_size


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
            edges.append((ax, ay, by, dx, dy, 1e-12 * max(abs(dx), abs(dy), 1.0), dx ** 2 + dy ** 2 + 1e-12))
        self._edges = tuple(edges)
        self._buffers: dict[str, deque[tuple[float, float, float]]] = {}

    def push(self, u: float, v: float, z_residual: float, timestamp: float, hand: str) -> GesturePoint | None:
        """Accept one raw sample (u, v, z_residual); emit the buffer mean, or
        None if discarded. The sample is kept when it lies on an edge or
        inside by even-odd crossings; NaN is outside."""
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
        fu, fv, fz = buf[0]
        su = sv = sz = 0.0
        for pu, pv, pz in buf:
            su += pu - fu
            sv += pv - fv
            sz += pz - fz
        k = len(buf)
        return GesturePoint(PlanarPoint(fu + su / k, fv + sv / k, fz + sz / k), timestamp, hand, k)
