"""Running-average stabilization of raw workplane intersections.

Raw intersections outside the workspace bounds are discarded outright (they
neither enter nor evict buffer contents); in-bounds samples feed a per-hand
FIFO of capacity five and every accepted sample emits the current buffer
mean. There is no time-based expiry and no reset: live and replay build a
new pipeline, and with it a new stabilizer, for each session.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .geometry import PlanarPoint, planar_mean, point_in_bounds

DEFAULT_WINDOW = 5


@dataclass(frozen=True)
class GesturePoint:
    """A stabilized pointed location in workplane coordinates."""

    position: PlanarPoint
    timestamp: float
    hand: str
    window_size: int


class RunningAverageStabilizer:
    """Per-hand running average over the last ``window`` in-bounds samples."""

    def __init__(
        self, bounds: Sequence[tuple[float, float]], window: int = DEFAULT_WINDOW
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.bounds = tuple(bounds)
        self.window = window
        self._buffers: dict[str, deque[PlanarPoint]] = {}

    def push(
        self, raw: PlanarPoint, timestamp: float, hand: str
    ) -> GesturePoint | None:
        """Accept one raw sample; emit the buffer mean, or None if discarded."""
        if not point_in_bounds(raw, self.bounds):
            return None
        buf = self._buffers.get(hand)
        if buf is None:
            buf = deque(maxlen=self.window)
            self._buffers[hand] = buf
        buf.append(raw)
        return GesturePoint(
            position=planar_mean(buf), timestamp=timestamp, hand=hand, window_size=len(buf)
        )
