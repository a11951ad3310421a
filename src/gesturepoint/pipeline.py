"""Wiring of the per-frame path: arm ray -> plane intersection -> workplane
transform -> stabilizer. One pipeline instance per session/trial; state is
the per-hand stabilizer buffers plus a short history of stabilized points for
snap requests. ``PipelineSettings`` holds the resolved configuration that
replay and live share; its defaults are the module constants."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from . import stream as streammod
from .geometry import (
    PlanarPoint,
    Plane,
    WorkplaneFrame,
    corners_in_frame,
    intersect_ray_plane,
    to_workplane,
    workplane_frame,
)
from .snap import DEFAULT_SAMPLE_COUNT, DEFAULT_STABILITY_THRESHOLD
from .stabilizer import DEFAULT_WINDOW, GesturePoint, RunningAverageStabilizer

HISTORY_CAPACITY = 256


class GesturePipeline:
    """Turns KeypointFrames into stabilized GesturePoints for selected hands."""

    def __init__(
        self,
        plane: Plane,
        frame: WorkplaneFrame | None = None,
        *,
        hands: Sequence[str] = ("right",),
        pair: str = "shoulder_wrist",
        min_confidence: float = streammod.DEFAULT_MIN_CONFIDENCE,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        for hand in hands:
            if hand not in streammod.HANDS:
                raise ValueError(f"unknown hand {hand!r}")
        if pair not in streammod.PAIRS:
            raise ValueError(f"unknown joint pair {pair!r}")
        self.plane = plane
        self.frame = frame if frame is not None else workplane_frame(plane)
        self.hands = tuple(hands)
        self.pair = pair
        self.min_confidence = min_confidence
        self.bounds = corners_in_frame(plane, self.frame)
        self.stabilizer = RunningAverageStabilizer(self.bounds, window)
        self._history: dict[str, deque[GesturePoint]] = {
            hand: deque(maxlen=HISTORY_CAPACITY) for hand in self.hands
        }
        self.frames_seen = 0
        self.frames_without_ray = 0
        self.discarded_out_of_bounds = 0

    def process(self, frame: streammod.KeypointFrame) -> list[GesturePoint]:
        """Feed one skeleton frame; returns the stabilized points it produced
        (zero, one, or one per hand)."""
        self.frames_seen += 1
        got_ray = False
        out: list[GesturePoint] = []
        for hand in self.hands:
            ray = streammod.arm_ray(frame, hand, self.pair, self.min_confidence)
            if ray is None:
                continue
            got_ray = True
            hit = intersect_ray_plane(ray.start, ray.through, self.plane)
            if hit is None:
                continue
            raw = to_workplane(hit.point, self.frame)
            point = self.stabilizer.push(raw, frame.timestamp, hand)
            if point is None:
                self.discarded_out_of_bounds += 1
                continue
            out.append(point)
            self._history[hand].append(point)
        if not got_ray:
            self.frames_without_ray += 1
        return out

    def recent(self, hand: str, count: int) -> list[PlanarPoint]:
        """The most recent stabilized positions for a hand, oldest first."""
        history = self._history.get(hand, ())
        return [gp.position for gp in list(history)[-count:]]

    def reset(self) -> None:
        self.stabilizer.reset()
        for buf in self._history.values():
            buf.clear()
        self.frames_seen = 0
        self.frames_without_ray = 0
        self.discarded_out_of_bounds = 0


@dataclass(frozen=True)
class PipelineSettings:
    """Resolved pipeline configuration shared by replay and live modes."""

    plane: Plane
    frame: WorkplaneFrame
    frame_mode: str = "workplane"  # "workplane" emits u/v, "camera" emits x/y/z
    hands: tuple[str, ...] = ("right",)
    pair: str = "shoulder_wrist"
    min_confidence: float = streammod.DEFAULT_MIN_CONFIDENCE
    snap_samples: int = DEFAULT_SAMPLE_COUNT
    threshold: float = DEFAULT_STABILITY_THRESHOLD
    window: int = DEFAULT_WINDOW
    group: str | None = None

    def make_pipeline(self) -> GesturePipeline:
        return GesturePipeline(
            self.plane,
            self.frame,
            hands=self.hands,
            pair=self.pair,
            min_confidence=self.min_confidence,
            window=self.window,
        )
