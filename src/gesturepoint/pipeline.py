"""The per-frame path of live and replay: arm ray -> plane intersection ->
workplane transform -> stabilizer. ``GesturePipeline.process`` runs the
geometry on floats, from plane and frame constants taken once per pipeline,
and loads no numpy; each hit's bounds test and window mean are one call of
``RunningAverageStabilizer.push``, against edge constants also taken once
per pipeline. ``evaluation.stabilize_trials``, with
``evaluation.intersect_rays_plane``, is its bit-exact array twin for the
sweeps: the same expressions in the same order, elementwise. Live
and replay build one pipeline per session and never reset it; state is the
per-hand stabilizer buffers plus a short history of stabilized points for
snap requests.
``PipelineSettings`` holds the resolved configuration that replay and live
share; its defaults are the module constants."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from . import stream as streammod
from .geometry import (
    ARM_SEPARATION_MIN,
    DEFAULT_T_MIN,
    PARALLEL_TOL,
    PlanarPoint,
    Plane,
    WorkplaneFrame,
    corners_in_frame,
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
        # what process reads per frame: the plane, the frame, each hand's joints
        n = plane.normal
        self._plane = (n.x, n.y, n.z, plane.d)
        o = self.frame.origin
        self._origin = (o.x, o.y, o.z)
        self._rows = self.frame.rows
        start = "shoulder" if pair == "shoulder_wrist" else "elbow"
        self._arms = tuple((hand, f"{hand}_{start}", f"{hand}_wrist") for hand in self.hands)

    def process(self, frame: streammod.KeypointFrame) -> list[GesturePoint]:
        """Feed one skeleton frame; returns the stabilized points it produced
        (zero, one, or one per hand).

        Per hand: two joints present, at ``min_confidence`` or above and more
        than ``ARM_SEPARATION_MIN`` apart make a ray (a frame without one
        counts in ``frames_without_ray``); a ray not parallel to the plane
        hits it at t = -(<n, start> + d) / <n, wrist - start>, which must be
        at least ``DEFAULT_T_MIN``; the hit's workplane coordinates
        R^T (hit - origin) go to the stabilizer."""
        self.frames_seen += 1
        nx, ny, nz, d = self._plane
        ox, oy, oz = self._origin
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = self._rows
        min_confidence = self.min_confidence
        push = self.stabilizer.push
        joints, timestamp = frame.joints, frame.timestamp
        got_ray = False
        out: list[GesturePoint] = []
        for hand, start_name, wrist_name in self._arms:
            start = joints.get(start_name)
            wrist = joints.get(wrist_name)
            if start is None or wrist is None:
                continue
            (sx, sy, sz, sc), (wx, wy, wz, wc) = start, wrist
            if sc < min_confidence or wc < min_confidence:
                continue
            dx, dy, dz = wx - sx, wy - sy, wz - sz
            length = math.sqrt(dx * dx + dy * dy + dz * dz)
            if length <= ARM_SEPARATION_MIN:
                continue
            got_ray = True
            denom = nx * dx + ny * dy + nz * dz
            if abs(denom / length) < PARALLEL_TOL:
                continue
            t = -(nx * sx + ny * sy + nz * sz + d) / denom
            if t < DEFAULT_T_MIN:
                continue
            x, y, z = sx + dx * t - ox, sy + dy * t - oy, sz + dz * t - oz
            point = push(r00 * x + r10 * y + r20 * z, r01 * x + r11 * y + r21 * z, r02 * x + r12 * y + r22 * z,
                         timestamp, hand)
            if point is None:
                self.discarded_out_of_bounds += 1
                continue
            out.append(point)
            self._history[hand].append(point)
        if not got_ray:
            self.frames_without_ray += 1
        return out

    def recent(self, hand: str, count: int) -> list[PlanarPoint]:
        """The ``count`` most recent stabilized positions for a hand, oldest
        first; none for a count <= 0."""
        if count <= 0:
            return []
        return [gp.position for gp in islice(reversed(self._history.get(hand, ())), count)][::-1]


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
