"""The per-frame path of live and replay: arm ray -> plane intersection ->
workplane transform -> stabilizer. ``GesturePipeline.process`` runs the
geometry on floats, from plane and frame constants taken once per pipeline,
and loads no numpy; each hit's bounds test and window mean are one call of
``RunningAverageStabilizer.push``, against an inner box and edge constants
also taken once per pipeline. ``evaluation.stabilize_trials``, with
``evaluation.intersect_rays_plane``, is its bit-exact array twin for the
sweeps: the same expressions in the same order, elementwise. Live and
replay build one pipeline per session and never reset it; state is the
per-hand stabilizer buffers plus each hand's history of stabilized
positions, a ``deque[PlanarPoint]``. ``GesturePipeline.snap`` is live's and
replay's one snap step over that history; each formats its own answer
around ``snap.snap_fields``.
``PipelineSettings`` holds the resolved configuration that replay and live
share; its defaults are the module constants. ``gesture_point_record``
writes out the gesture-point lines of both."""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import islice
from typing import Sequence

from . import stream as streammod
from .geometry import (
    ARM_SEPARATION_MIN,
    DEFAULT_T_MIN,
    PARALLEL_TOL,
    FrozenValue,
    PlanarPoint,
    Plane,
    WorkplaneFrame,
    corners_in_frame,
    workplane_frame,
)
from .snap import (DEFAULT_SAMPLE_COUNT, DEFAULT_STABILITY_THRESHOLD, Area, SnapError, SnapRequest, SnapResult,
                   Target, evaluate_request)
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
        self._history: dict[str, deque[PlanarPoint]] = {
            hand: deque(maxlen=HISTORY_CAPACITY) for hand in self.hands
        }
        self.frames_seen = 0
        self.frames_without_ray = 0
        self.discarded_out_of_bounds = 0
        # what process reads per frame: the plane, the frame's origin and rows, the
        # confidence floor, and each hand's joints
        n, o = plane.normal, self.frame.origin
        self._constants = (n.x, n.y, n.z, plane.d, o.x, o.y, o.z, *self.frame.rows[0], *self.frame.rows[1],
                           *self.frame.rows[2], min_confidence)
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
        nx, ny, nz, d, ox, oy, oz, r00, r01, r02, r10, r11, r12, r20, r21, r22, min_confidence = self._constants
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
            self._history[hand].append(point.position)
        if not got_ray:
            self.frames_without_ray += 1
        return out

    def recent(self, hand: str, count: int) -> list[PlanarPoint]:
        """The ``count`` most recent stabilized positions for a hand, oldest
        first; none for a count <= 0."""
        if count <= 0:
            return []
        return list(islice(reversed(self._history.get(hand, ())), count))[::-1]

    def snap(self, hand: str, n: int, strategy: str, group: str | None, targets: Sequence[Target],
             areas: Sequence[Area], threshold: float) -> SnapResult | None:
        """One snap over exactly the last ``n`` stabilized points of ``hand``:
        ``evaluate_request`` on ``recent(hand, n)``. Fewer than ``n`` points
        raise SnapError, "no samples" or "insufficient samples: k of n"."""
        samples = self.recent(hand, n)
        if len(samples) < n:
            raise SnapError(f"insufficient samples: {len(samples)} of {n}" if samples else "no samples")
        return evaluate_request(SnapRequest(tuple(samples), strategy, group), targets, areas, threshold=threshold)


class PipelineSettings(FrozenValue):
    """Resolved pipeline configuration shared by replay and live modes; the
    "workplane" ``frame_mode`` emits u/v, "camera" x/y/z."""

    def __init__(self, plane: Plane, frame: WorkplaneFrame, frame_mode: str = "workplane",
                 hands: tuple[str, ...] = ("right",), pair: str = "shoulder_wrist",
                 min_confidence: float = streammod.DEFAULT_MIN_CONFIDENCE, snap_samples: int = DEFAULT_SAMPLE_COUNT,
                 threshold: float = DEFAULT_STABILITY_THRESHOLD, window: int = DEFAULT_WINDOW,
                 group: str | None = None) -> None:
        d = self.__dict__
        d["plane"], d["frame"], d["frame_mode"], d["hands"], d["pair"] = plane, frame, frame_mode, hands, pair
        d["min_confidence"], d["snap_samples"], d["threshold"] = min_confidence, snap_samples, threshold
        d["window"], d["group"] = window, group

    def make_pipeline(self) -> GesturePipeline:
        return GesturePipeline(
            self.plane,
            self.frame,
            hands=self.hands,
            pair=self.pair,
            min_confidence=self.min_confidence,
            window=self.window,
        )


# the JSON text of each hand name the pipeline accepts
_HAND_JSON = {hand: json.dumps(hand) for hand in streammod.HANDS}
_float_repr = float.__repr__  # json.dumps's float text, also for numpy floats


def gesture_point_record(gp: GesturePoint, settings: PipelineSettings) -> str:
    """Serialize one stabilized point in the configured output frame, as
    ``json.dumps(doc, separators=(",", ":"))`` would, written out directly;
    camera mode maps (u, v, z_residual) back as ``geometry.from_workplane``
    does. Coordinates must be finite floats (every point the pipeline emits
    is one); an int timestamp prints as an int."""
    t = gp.timestamp
    t = _float_repr(t) if isinstance(t, float) else json.dumps(t)
    hand = _HAND_JSON.get(gp.hand) or json.dumps(gp.hand)
    p = gp.position
    if settings.frame_mode == "camera":
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = settings.frame.rows
        o = settings.frame.origin
        u, v, w = p.u, p.v, p.z_residual
        x = _float_repr(o.x + (r00 * u + r01 * v + r02 * w))
        y = _float_repr(o.y + (r10 * u + r11 * v + r12 * w))
        z = _float_repr(o.z + (r20 * u + r21 * v + r22 * w))
        return f'{{"t":{t},"hand":{hand},"x":{x},"y":{y},"z":{z},"window":{gp.window_size}}}'
    return f'{{"t":{t},"hand":{hand},"u":{_float_repr(p.u)},"v":{_float_repr(p.v)},"window":{gp.window_size}}}'
