"""Skeleton-frame data model, JSONL ingestion and the synthetic noisy-gesture
generator.

All synthetic joints come from one sampler, :func:`sample_joint_positions`,
which draws (trials, frames, 3) shoulder and wrist arrays from a scenario's
seed. :func:`generate_scenario` streams its trial 0 as KeypointFrames for
files and live clients; sweeps (``evaluation.run_boards``) take each trial's
arrays directly into the array engine, and sigma calibration
(``evaluation.mean_intersection_error``) takes one frame from each of many
trials, so calibration fits the noise the sweeps run on.

Wire format (one JSON object per line, coordinates in meters, camera frame):

    {"t": 0.033, "source": "cam0", "joints": {
        "right_shoulder": {"x": 0.1, "y": -0.3, "z": 1.2, "c": 0.93},
        "right_wrist":    {"px": 412, "py": 280, "depth": 0.9, "c": 0.88}}}

Joints may use either the 3D form (x/y/z) or the 2D+depth form (px/py/depth);
streams containing any 2D joints must start with a header line

    {"intrinsics": {"fx":..., "fy":..., "cx":..., "cy":..., "width":..., "height":...}}

Unknown joint names are ignored; missing joints are simply absent. A joint
with any coordinate that is NaN, infinite or beyond ``MAX_JOINT_COORD``
meters (after deprojection for the 2D form) makes the record malformed; so
does a non-finite pixel, depth, confidence, timestamp or intrinsics value.

Scenario config files are flat ``key = value`` text (``#`` comments allowed):

    plane_corner_1 = 0.0, 0.0, 0.0      # four corners, meters
    plane_corner_2 = 0.6, 0.0, 0.0
    plane_corner_3 = 0.6, 0.8, 0.0
    plane_corner_4 = 0.0, 0.8, 0.0
    shoulder   = 0.3, -0.1, 0.6         # shoulder base position
    target     = 0.3, 0.4, 0.0          # aimed point, must lie on the plane
    sigma      = 0.01                   # per-axis Gaussian noise, meters
    arm_length = 0.55
    seed       = 42
    count      = 100
    frame_rate = 30                     # optional, Hz
    hand       = right                  # optional

Every number must be finite (:func:`parse_triplet`, :class:`GestureScenario`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .geometry import (
    ARM_SEPARATION_MIN,
    PLANARITY_TOL,
    CameraIntrinsics,
    Plane,
    Point3,
    deproject,
    plane_from_corners,
)

HANDS = ("left", "right")
PAIRS = ("shoulder_wrist", "elbow_wrist")
KNOWN_JOINTS = frozenset(
    f"{side}_{part}" for side in HANDS for part in ("shoulder", "elbow", "wrist")
)
DEFAULT_MIN_CONFIDENCE = 0.3
DEFAULT_FRAME_RATE = 30.0
# far beyond any camera's range, yet small enough that no ray arithmetic on two
# joints (differences, norms, the plane hit) can overflow a float
MAX_JOINT_COORD = 1e6


# what json.loads raises on an untrusted line: bad syntax, an integer past
# Python's digit limit (ValueError), or nesting past the recursion limit
JSON_DECODE_ERRORS = (ValueError, RecursionError)


class StreamError(ValueError):
    pass


class MalformedRecordError(StreamError):
    pass


class TargetUnreachableError(StreamError):
    pass


@dataclass(frozen=True)
class JointSample:
    position: Point3
    confidence: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise MalformedRecordError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class KeypointFrame:
    """One timestamped skeleton observation."""

    timestamp: float
    joints: Mapping[str, JointSample]
    source_id: str = ""

    def joint(self, name: str) -> JointSample | None:
        return self.joints.get(name)


@dataclass(frozen=True)
class ArmRay:
    hand: str
    start: Point3
    through: Point3
    pair: str = "shoulder_wrist"


def parse_frame(record: str | bytes | dict, intrinsics: CameraIntrinsics | None = None) -> KeypointFrame:
    """Parse one JSONL record into a KeypointFrame.

    2D+depth joints require ``intrinsics`` (normally taken from the stream
    header); unknown joints are dropped.
    """
    if isinstance(record, (str, bytes)):
        try:
            record = json.loads(record)
        except JSON_DECODE_ERRORS as exc:
            raise MalformedRecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise MalformedRecordError(f"record must be a JSON object, got {type(record).__name__}")
    if "t" not in record:
        raise MalformedRecordError('record missing "t" timestamp')
    try:
        timestamp = float(record["t"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecordError(f'bad timestamp {record["t"]!r}') from exc
    if not math.isfinite(timestamp):
        raise MalformedRecordError(f"non-finite timestamp {timestamp!r}")
    raw_joints = record.get("joints", {})
    if not isinstance(raw_joints, dict):
        raise MalformedRecordError('"joints" must be an object')
    joints: dict[str, JointSample] = {}
    for name, spec in raw_joints.items():
        if name not in KNOWN_JOINTS:
            continue
        if not isinstance(spec, dict):
            raise MalformedRecordError(f"joint {name!r} must be an object")
        try:
            confidence = float(spec.get("c", 1.0))
            if {"x", "y", "z"} <= spec.keys():
                position = Point3(float(spec["x"]), float(spec["y"]), float(spec["z"]))
            elif {"px", "py", "depth"} <= spec.keys():
                if intrinsics is None:
                    raise MalformedRecordError(
                        f"joint {name!r} uses the 2D form but the stream declared no intrinsics"
                    )
                position = deproject(
                    (float(spec["px"]), float(spec["py"])), float(spec["depth"]), intrinsics
                )
            else:
                raise MalformedRecordError(f"joint {name!r} has neither x/y/z nor px/py/depth")
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, MalformedRecordError):
                raise
            raise MalformedRecordError(f"joint {name!r}: {exc}") from exc
        # written so that NaN fails it too: the one finiteness check of a joint
        if not (abs(position.x) <= MAX_JOINT_COORD and abs(position.y) <= MAX_JOINT_COORD
                and abs(position.z) <= MAX_JOINT_COORD):
            raise MalformedRecordError(f"joint {name!r} lies beyond {MAX_JOINT_COORD:g} m")
        joints[name] = JointSample(position=position, confidence=confidence)
    return KeypointFrame(
        timestamp=timestamp, joints=joints, source_id=str(record.get("source", ""))
    )


def serialize_frame(frame: KeypointFrame) -> str:
    """Canonical one-line JSON for a frame (3D joint form, sorted keys)."""
    doc = {
        "t": frame.timestamp,
        "source": frame.source_id,
        "joints": {
            name: {"x": j.position.x, "y": j.position.y, "z": j.position.z, "c": j.confidence}
            for name, j in sorted(frame.joints.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def parse_intrinsics_header(record: str | dict) -> CameraIntrinsics | None:
    """Return intrinsics if the record is a stream header line, else None."""
    if isinstance(record, (str, bytes)):
        try:
            record = json.loads(record)
        except JSON_DECODE_ERRORS:
            return None
    if not isinstance(record, dict) or "intrinsics" not in record:
        return None
    spec = record["intrinsics"]
    try:
        return CameraIntrinsics(
            fx=float(spec["fx"]),
            fy=float(spec["fy"]),
            cx=float(spec["cx"]),
            cy=float(spec["cy"]),
            width=int(spec["width"]),
            height=int(spec["height"]),
        )
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise MalformedRecordError(f"bad intrinsics header: {exc}") from exc


class StreamReader:
    """Iterate KeypointFrames out of JSONL lines.

    Handles the optional intrinsics header and keeps warning counters instead
    of failing on recoverable problems: with ``skip_malformed`` bad lines are
    counted and skipped, otherwise they raise. Non-monotonic timestamps are
    always a warning, never an error.
    """

    def __init__(self, lines: Iterable[str], *, skip_malformed: bool = False) -> None:
        self._lines = lines
        self._skip_malformed = skip_malformed
        self.intrinsics: CameraIntrinsics | None = None
        self.malformed = 0
        self.nonmonotonic = 0
        self.warnings: list[str] = []

    def __iter__(self) -> Iterator[KeypointFrame]:
        last_t: float | None = None
        for lineno, line in enumerate(self._lines, start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1:
                header = None
                try:
                    header = parse_intrinsics_header(line)
                except MalformedRecordError as exc:
                    if not self._skip_malformed:
                        raise
                    self.malformed += 1
                    self.warnings.append(f"line {lineno}: {exc}")
                    continue
                if header is not None:
                    self.intrinsics = header
                    continue
            try:
                frame = parse_frame(line, self.intrinsics)
            except MalformedRecordError as exc:
                if not self._skip_malformed:
                    raise MalformedRecordError(f"line {lineno}: {exc}") from exc
                self.malformed += 1
                self.warnings.append(f"line {lineno}: {exc}")
                continue
            if last_t is not None and frame.timestamp < last_t:
                self.nonmonotonic += 1
                self.warnings.append(
                    f"line {lineno}: timestamp {frame.timestamp} before {last_t}"
                )
            last_t = frame.timestamp
            yield frame


def arm_ray(
    frame: KeypointFrame,
    hand: str,
    pair: str = "shoulder_wrist",
    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
) -> ArmRay | None:
    """Extract a pointing ray from a frame, or None when it cannot be trusted.

    None is returned when either joint is absent, below ``min_confidence``,
    or the two joints are closer than ``ARM_SEPARATION_MIN`` (1 cm), so
    ``intersect_ray_plane`` never sees a degenerate arm from here.
    """
    if hand not in HANDS:
        raise StreamError(f"unknown hand {hand!r}")
    if pair not in PAIRS:
        raise StreamError(f"unknown joint pair {pair!r}")
    start_name = f"{hand}_{'shoulder' if pair == 'shoulder_wrist' else 'elbow'}"
    start = frame.joint(start_name)
    through = frame.joint(f"{hand}_wrist")
    if start is None or through is None:
        return None
    if start.confidence < min_confidence or through.confidence < min_confidence:
        return None
    if (through.position - start.position).norm() <= ARM_SEPARATION_MIN:
        return None
    return ArmRay(hand=hand, start=start.position, through=through.position, pair=pair)


@dataclass(frozen=True)
class GestureScenario:
    """Configuration of one synthetic pointing gesture.

    The ideal wrist sits on the shoulder->aim segment at ``arm_length``;
    independent per-axis Gaussian noise (``noise_sigma``) is added to both
    shoulder and wrist each frame. ``aim_bias_sigma`` adds one in-plane
    Gaussian offset to the aimed point, drawn once per scenario: it models
    the trial-persistent component of pointing error (a steady hand can be
    precisely wrong), which per-frame noise cannot reproduce because the
    downstream averaging removes it. It defaults to zero. Streams are
    deterministic given ``rng_seed``.
    """

    plane: Plane
    shoulder_base: Point3
    target: Point3
    noise_sigma: float
    arm_length: float
    sample_count: int
    rng_seed: int
    frame_rate: float = DEFAULT_FRAME_RATE
    hand: str = "right"
    source_id: str = "synthetic"
    aim_bias_sigma: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.plane.signed_distance(self.target)) > PLANARITY_TOL:
            raise StreamError(
                f"target lies {abs(self.plane.signed_distance(self.target)):.4f} m off the plane"
            )
        # each range test fails on NaN and on infinities
        if not 0 <= self.noise_sigma < math.inf:
            raise StreamError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 <= self.aim_bias_sigma < math.inf:
            raise StreamError(f"aim_bias_sigma must be finite and >= 0, got {self.aim_bias_sigma}")
        if self.sample_count < 1:
            raise StreamError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0 < self.arm_length < math.inf:
            raise StreamError(f"arm_length must be finite and positive, got {self.arm_length}")
        if not 0 < self.frame_rate < math.inf:
            raise StreamError(f"frame_rate must be finite and positive, got {self.frame_rate}")
        if self.hand not in HANDS:
            raise StreamError(f"unknown hand {self.hand!r}")
        reach = (self.target - self.shoulder_base).norm()
        if self.arm_length >= reach:
            raise TargetUnreachableError(
                f"arm_length {self.arm_length} m reaches past the target "
                f"({reach:.4f} m away); the wrist would overshoot the plane"
            )


def sample_joint_positions(
    scenario: GestureScenario, trials: int = 1, frames: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (shoulders, wrists) for ``trials`` independent gestures of
    ``frames`` frames each (default ``sample_count``), shape (trials, frames, 3).

    This is the only place joints are sampled. The RNG seeded with
    ``rng_seed`` yields one (trials, 2) block of in-plane aim biases, then one
    (trials, frames, 2, 3) block of standard normals (shoulder before wrist),
    so trial 0 is the scenario's stream and ``frames=1`` gives calibration its
    one raw frame per trial.
    """
    frames = scenario.sample_count if frames is None else frames
    rng = np.random.default_rng(scenario.rng_seed)
    bias = scenario.aim_bias_sigma * rng.standard_normal((trials, 2))
    eps = rng.standard_normal((trials, frames, 2, 3))
    # orthonormal in-plane (u, v) directions for the aim offset
    plane = scenario.plane
    n = np.array(plane.normal.as_tuple())
    e1 = np.array(plane.corners[1].as_tuple()) - np.array(plane.corners[0].as_tuple())
    e1 = e1 - n * (e1 @ n)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    base = np.array(scenario.shoulder_base.as_tuple())
    aims = np.array(scenario.target.as_tuple()) + bias[:, :1] * e1 + bias[:, 1:] * e2
    aim_dirs = aims - base
    # the ideal wrist sits on the shoulder->aim segment at arm_length
    ideal = base + aim_dirs * (scenario.arm_length / np.linalg.norm(aim_dirs, axis=1))[:, None]
    shoulders = base + scenario.noise_sigma * eps[:, :, 0, :]
    wrists = ideal[:, None, :] + scenario.noise_sigma * eps[:, :, 1, :]
    return shoulders, wrists


def generate_scenario(scenario: GestureScenario) -> Iterator[KeypointFrame]:
    """Yield the scenario's KeypointFrames (timestamps step by 1/frame_rate):
    trial 0 of :func:`sample_joint_positions`."""
    shoulders, wrists = sample_joint_positions(scenario)
    shoulder_name = f"{scenario.hand}_shoulder"
    wrist_name = f"{scenario.hand}_wrist"
    for k, (shoulder, wrist) in enumerate(zip(shoulders[0].tolist(), wrists[0].tolist())):
        yield KeypointFrame(
            timestamp=k / scenario.frame_rate,
            joints={
                shoulder_name: JointSample(Point3(*shoulder), 1.0),
                wrist_name: JointSample(Point3(*wrist), 1.0),
            },
            source_id=scenario.source_id,
        )


def write_stream(path: str | os.PathLike, frames: Iterable[KeypointFrame]) -> int:
    """Write frames as JSONL, one full line per write. Returns the frame count."""
    count = 0
    with open(path, "w", encoding="utf-8", buffering=1) as fh:
        for frame in frames:
            fh.write(serialize_frame(frame) + "\n")
            count += 1
    return count


def parse_kv_config(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StreamError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_triplet(value: str, key: str) -> Point3:
    """Three finite numbers separated by commas and/or spaces."""
    parts = [p for p in value.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise StreamError(f"{key}: expected three numbers, got {value!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise StreamError(f"{key}: {exc}") from exc
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise StreamError(f"{key}: expected finite numbers, got {value!r}")
    return Point3(x, y, z)


def load_scenario_config(path: str | os.PathLike) -> GestureScenario:
    """Load a GestureScenario from a flat key/value config file."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_kv_config(fh.read())
    required = [
        "plane_corner_1", "plane_corner_2", "plane_corner_3",
        "shoulder", "target", "sigma", "arm_length", "seed", "count",
    ]
    missing = [k for k in required if k not in cfg]
    if missing:
        raise StreamError(f"scenario config missing keys: {', '.join(missing)}")
    corners = [parse_triplet(cfg[f"plane_corner_{i}"], f"plane_corner_{i}") for i in (1, 2, 3)]
    if "plane_corner_4" in cfg:
        corners.append(parse_triplet(cfg["plane_corner_4"], "plane_corner_4"))
    try:
        plane = plane_from_corners(corners)
        return GestureScenario(
            plane=plane,
            shoulder_base=parse_triplet(cfg["shoulder"], "shoulder"),
            target=parse_triplet(cfg["target"], "target"),
            noise_sigma=float(cfg["sigma"]),
            arm_length=float(cfg["arm_length"]),
            sample_count=int(cfg["count"]),
            rng_seed=int(cfg["seed"]),
            frame_rate=float(cfg.get("frame_rate", DEFAULT_FRAME_RATE)),
            hand=cfg.get("hand", "right"),
        )
    except ValueError as exc:
        if isinstance(exc, StreamError):
            raise
        raise StreamError(f"bad scenario config: {exc}") from exc
