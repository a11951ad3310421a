"""Skeleton-frame data model, JSONL ingestion and the readers of every input
file. A frame's pointing ray runs from a shoulder or elbow (``PAIRS``) through
the wrist of one of ``HANDS``; ``pipeline.GesturePipeline.process`` reads it
from the frame's joints.

Wire format (one JSON object per line, coordinates in meters, camera frame):

    {"t": 0.033, "source": "cam0", "joints": {
        "right_shoulder": {"x": 0.1, "y": -0.3, "z": 1.2, "c": 0.93},
        "right_wrist":    {"px": 412, "py": 280, "depth": 0.9, "c": 0.88}}}

Joints may use either the 3D form (x/y/z) or the 2D+depth form (px/py/depth);
2D joints need the intrinsics of a header record

    {"intrinsics": {"fx":..., "fy":..., "cx":..., "cy":..., "width":..., "height":...}}

which sets them for every record after it, in ``StreamReader`` as in a live
session. Unknown joint names are ignored; missing joints are simply absent. A
joint with any coordinate that is NaN, infinite or beyond ``MAX_JOINT_COORD``
meters (after deprojection for the 2D form) makes the record malformed; so
does any number field that holds a string, a bool or a non-finite value.
A parsed frame holds each joint as a plain ``(x, y, z, confidence)`` tuple
of floats, in meters in the camera frame. :func:`parse_frame` has two typed
fast paths to that tuple: a 3D joint of floats that pass every check, and a
pixel joint of floats that pass ``deproject``'s checks and the bound,
deprojected with ``deproject``'s expressions; every other joint takes the
full path, with its messages.

Each input format has one reader here: :func:`read_text` opens every input
file (UTF-8, optionally BOM-prefixed), :func:`decode_object` decodes JSON,
:func:`json_number`/:func:`json_int` read its numbers, :func:`finite_float`/
:func:`decimal_int` those of text and :func:`parse_position` every joint and corner.
The record parsers :func:`parse_frame` and :func:`parse_intrinsics_header`
take the object that :func:`decode_object` returned, never text. Every saved
document (plane, layout, board and report files) has one writer,
:func:`write_document`.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Callable, Iterable, Iterator, Mapping

from .geometry import MAX_JOINT_COORD, CameraIntrinsics, FrozenValue, GeometryError, Point3, deproject

HANDS = ("left", "right")
PAIRS = ("shoulder_wrist", "elbow_wrist")
KNOWN_JOINTS = frozenset(
    f"{side}_{part}" for side in HANDS for part in ("shoulder", "elbow", "wrist")
)
DEFAULT_MIN_CONFIDENCE = 0.3


# what json.loads raises on an untrusted line: bad syntax, an integer past
# Python's digit limit (ValueError), or nesting past the recursion limit
JSON_DECODE_ERRORS = (ValueError, RecursionError)
# the default decoder's one-value step: json.loads without its BOM, whitespace and extra-data checks
_scan_once = json.JSONDecoder().scan_once


class StreamError(ValueError):
    pass


class MalformedRecordError(StreamError):
    pass


class ConfigError(ValueError):
    """Bad or missing configuration/input files; maps to exit code 2."""


def read_text(path: str | os.PathLike) -> str:
    """The one reader of input files (plane, corner, layout, board, scenario
    and config files): UTF-8, with or without a BOM."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, or a NUL in the path
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def write_document(path: str | os.PathLike, document: str | dict) -> None:
    """The one writer of saved documents: ``document``'s text (a dict as JSON
    with ``indent=2``, sorted keys and a final newline) goes to a new file
    beside ``path``, which then replaces ``path``. A reader sees the old file
    or the whole new one; a symlink at ``path`` is replaced, not written
    through. The file gets the mode ``open(path, "w")`` gives a new file."""
    text = document if isinstance(document, str) else json.dumps(document, indent=2, sort_keys=True) + "\n"
    # the pid sets concurrent processes apart, the random part threads; O_EXCL never shares a file
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f".tmp-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies, as for open()
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def decode_object(text: str | bytes, error: type[ValueError], source: str | os.PathLike = "") -> dict:
    """The one JSON decoder: ``text`` must hold one JSON object, else
    ``error`` is raised, naming ``source`` (a file) if given. A str of one
    object and nothing else is scanned directly, the rest by ``json.loads``."""
    try:
        doc, end = _scan_once(text, 0) if type(text) is str else (None, -1)
    except (StopIteration, *JSON_DECODE_ERRORS):
        doc, end = None, -1
    if type(doc) is dict and end == len(text):
        return doc
    try:
        doc = json.loads(text)
    except JSON_DECODE_ERRORS as exc:
        raise error(f"{source}: invalid JSON: {exc}" if source else f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{source or 'record'} must be a JSON object, got {type(doc).__name__}")
    return doc


def _not_a(kind: str, value, what: str, name) -> str:
    got = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)  # no deep repr
    return f"{what if name is None else f'{what} {name!r}'}: expected {kind}, got {got}"


def json_number(value, error: type[ValueError], what: str, name=None) -> float:
    """The one reader of a JSON number: an int or a float, not a bool, that a
    finite float holds, as a float; else ``error`` names ``what`` (``name``)."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
    elif isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise error(_not_a("a finite JSON number", value, what, name))


def json_int(value, error: type[ValueError], what: str, name=None) -> int:
    """The one reader of a JSON integer: an int, not a bool and not ``1.0``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(_not_a("a JSON integer", value, what, name))


def finite_float(text: str) -> float:
    """The one reader of a number in text: a sign, ASCII digits with a fraction and an
    exponent, each optional; anything else (``0_01``, other digits, NaN) raises ValueError."""
    if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", text.strip()):
        raise ValueError(f"expected a plain decimal number, got {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def decimal_int(text: str) -> int:
    """The one reader of an integer in text: an optional sign and ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(f"expected a plain decimal integer, got {text!r}")
    return int(text)


# evaluation's two errors and sample-count defaults, here so that the CLI maps
# exit codes and prints its help without importing evaluation (and numpy):
# EvalError exits 1, its InvalidParametersError (bad sweep or board inputs) 2
DEFAULT_TRIALS_PER_TARGET = 10
DEFAULT_CALIBRATION_SAMPLES = 10_000


class EvalError(ValueError):
    pass


class InvalidParametersError(EvalError):
    pass


class KeypointFrame(FrozenValue):
    """One timestamped skeleton observation; each joint is ``(x, y, z, confidence)``."""

    def __init__(self, timestamp: float, joints: Mapping[str, tuple[float, float, float, float]],
                 source_id: str = "") -> None:
        d = self.__dict__
        d["timestamp"], d["joints"], d["source_id"] = timestamp, joints, source_id


def parse_position(spec: dict, intrinsics: CameraIntrinsics | None, kind: str, name) -> Point3:
    """The one joint-position parser: ``x/y/z``, or ``px/py/depth``
    deprojected through ``intrinsics``, within ``MAX_JOINT_COORD`` of the
    origin. Anything else raises MalformedRecordError about ``kind name``."""
    if not isinstance(spec, dict):
        raise MalformedRecordError(f"{kind} {name!r} must be an object")
    if "x" in spec and "y" in spec and "z" in spec:
        position = Point3(json_number(spec["x"], MalformedRecordError, kind, name),
                          json_number(spec["y"], MalformedRecordError, kind, name),
                          json_number(spec["z"], MalformedRecordError, kind, name))
    elif "px" in spec and "py" in spec and "depth" in spec:
        if intrinsics is None:
            raise MalformedRecordError(f"{kind} {name!r} uses the 2D form without intrinsics")
        try:
            position = deproject((json_number(spec["px"], MalformedRecordError, kind, name),
                                  json_number(spec["py"], MalformedRecordError, kind, name)),
                                 json_number(spec["depth"], MalformedRecordError, kind, name), intrinsics)
        except GeometryError as exc:
            raise MalformedRecordError(f"{kind} {name!r}: {exc}") from exc
    else:
        raise MalformedRecordError(f"{kind} {name!r} has neither x/y/z nor px/py/depth")
    # a deprojection can overflow to infinity, which fails this bound too
    if not (abs(position.x) <= MAX_JOINT_COORD and abs(position.y) <= MAX_JOINT_COORD
            and abs(position.z) <= MAX_JOINT_COORD):
        raise MalformedRecordError(f"{kind} {name!r} lies beyond {MAX_JOINT_COORD:g} m")
    return position


def parse_frame(record: dict, intrinsics: CameraIntrinsics | None = None) -> KeypointFrame:
    """Parse one decoded JSONL record into a KeypointFrame.

    2D+depth joints require ``intrinsics`` (normally taken from the stream
    header); unknown joints are dropped.
    """
    timestamp = record.get("t")
    if type(timestamp) is not float or not math.isfinite(timestamp):
        timestamp = json_number(timestamp, MalformedRecordError, 'timestamp "t"')
    raw_joints = record.get("joints", {})
    if not isinstance(raw_joints, dict):
        raise MalformedRecordError('"joints" must be an object')
    joints: dict[str, tuple[float, float, float, float]] = {}
    for name, spec in raw_joints.items():
        if name not in KNOWN_JOINTS:
            continue
        # a 3D joint of floats that passes every check is taken as is, and a pixel joint of floats
        # that passes deproject's checks and the bound is deprojected with deproject's expressions;
        # any other joint goes the full way
        if type(spec) is dict:
            x, y, z, c = spec.get("x"), spec.get("y"), spec.get("z"), spec.get("c", 1.0)
            if (type(x) is float and type(y) is float and type(z) is float and type(c) is float
                    and abs(x) <= MAX_JOINT_COORD and abs(y) <= MAX_JOINT_COORD and abs(z) <= MAX_JOINT_COORD
                    and 0.0 <= c <= 1.0):
                joints[name] = (x, y, z, c)
                continue
            if intrinsics is not None and "x" not in spec:
                px, py, depth = spec.get("px"), spec.get("py"), spec.get("depth")
                if (type(px) is float and type(py) is float and type(depth) is float and type(c) is float
                        and 0.0 < depth <= MAX_JOINT_COORD and 0 <= px < intrinsics.width
                        and 0 <= py < intrinsics.height and 0.0 <= c <= 1.0):
                    x = (px - intrinsics.cx) * depth / intrinsics.fx
                    y = (py - intrinsics.cy) * depth / intrinsics.fy
                    if abs(x) <= MAX_JOINT_COORD and abs(y) <= MAX_JOINT_COORD:
                        joints[name] = (x, y, depth, c)
                        continue
        position = parse_position(spec, intrinsics, "joint", name)
        confidence = json_number(spec.get("c", 1.0), MalformedRecordError, "joint", name)
        if not 0.0 <= confidence <= 1.0:
            raise MalformedRecordError(f"confidence {confidence} outside [0, 1]")
        joints[name] = (position.x, position.y, position.z, confidence)
    return KeypointFrame(timestamp, joints, str(record.get("source", "")))


def serialize_frame(frame: KeypointFrame) -> str:
    """Canonical one-line JSON for a frame (3D joint form, sorted keys)."""
    doc = {
        "t": frame.timestamp,
        "source": frame.source_id,
        "joints": {
            name: {"x": x, "y": y, "z": z, "c": c} for name, (x, y, z, c) in sorted(frame.joints.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def parse_intrinsics_header(record: dict) -> CameraIntrinsics | None:
    """Return intrinsics if the decoded record is a stream header, else None.
    A header's focal lengths must be > 0 and its principal point inside the image."""
    if "intrinsics" not in record:
        return None
    spec, what = record["intrinsics"], "bad intrinsics header"
    if not isinstance(spec, dict):
        raise MalformedRecordError(f"{what}: expected an object, got {type(spec).__name__}")
    fx, fy, cx, cy = (json_number(spec.get(k), MalformedRecordError, what, k)
                      for k in ("fx", "fy", "cx", "cy"))
    width, height = (json_int(spec.get(k), MalformedRecordError, what, k) for k in ("width", "height"))
    if fx <= 0 or fy <= 0:
        raise MalformedRecordError(f"{what}: focal lengths must be positive, got fx={fx}, fy={fy}")
    if not (0 <= cx < width and 0 <= cy < height):
        raise MalformedRecordError(f"{what}: principal point ({cx}, {cy}) outside {width}x{height} image")
    return CameraIntrinsics(fx, fy, cx, cy, width, height)


class StreamReader:
    """Iterate KeypointFrames out of JSONL lines.

    Decodes each line once. A record holding ``"intrinsics"`` is a header: it
    sets the intrinsics for the records after it, as in a live session.
    Keeps warning counters instead of failing on recoverable problems: with
    ``skip_malformed`` bad lines are counted and skipped, otherwise they
    raise. Non-monotonic timestamps are always a warning, never an error.
    Each warning message goes to ``on_warning`` as it occurs; none is kept.
    """

    def __init__(self, lines: Iterable[str], *, skip_malformed: bool = False,
                 on_warning: Callable[[str], object] = lambda message: None) -> None:
        self._lines = lines
        self._skip_malformed = skip_malformed
        self._warn = on_warning
        self.intrinsics: CameraIntrinsics | None = None
        self.malformed = 0
        self.nonmonotonic = 0

    def __iter__(self) -> Iterator[KeypointFrame]:
        last_t: float | None = None
        for lineno, line in enumerate(self._lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = decode_object(line, MalformedRecordError)
                if "intrinsics" in record:
                    self.intrinsics = parse_intrinsics_header(record)
                    continue
                frame = parse_frame(record, self.intrinsics)
            except MalformedRecordError as exc:
                if not self._skip_malformed:
                    raise MalformedRecordError(f"line {lineno}: {exc}") from exc
                self.malformed += 1
                self._warn(f"line {lineno}: {exc}")
                continue
            if last_t is not None and frame.timestamp < last_t:
                self.nonmonotonic += 1
                self._warn(f"line {lineno}: timestamp {frame.timestamp} before {last_t}")
            last_t = frame.timestamp
            yield frame


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
    parts = value.replace(",", " ").split()
    if len(parts) != 3:
        raise StreamError(f"{key}: expected three numbers, got {value!r}")
    try:
        return Point3(finite_float(parts[0]), finite_float(parts[1]), finite_float(parts[2]))
    except ValueError as exc:
        raise StreamError(f"{key}: {exc}") from exc
