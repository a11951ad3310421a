"""Desk-scale evaluation harness: the simulated pointer, the synthetic joint
generator, board layouts, error metrics, seeded Monte-Carlo pick/place
sweeps, calibration and report emission. It is the one module that imports
numpy.

One type describes the simulated pointer: :class:`ScenarioTemplate` (plane,
workplane frame, shoulder, arm length, joint noise, aim bias, hand, frame
rate and the per-trial settings). It checks its own values, and
:meth:`ScenarioTemplate.check_target` checks each aimed point. Every
synthetic joint comes from one sampler in two steps: a draw
(:func:`draw_joint_noise`: aim biases, then standard normals, from one seed)
and a placement (:func:`ideal_wrists` once per plane for all trials, then
:func:`noisy_joints`). :func:`generate_scenario` chains them for one gesture
and streams it as KeypointFrames for files and live clients. Sweeps
(``run_boards``) draw once per trial key (kind, entity, trial), a draw the
boards of an l series share, and place every trial at once; sigma
calibration draws one frame from each of many trials once and re-noises it
per sigma, per component and with no ``np.linalg.norm``, so calibration
fits the noise the sweeps run on.

Scenario config files (``generate``, ``sweep --scenario``, ``calibrate
--scenario``; read by :func:`load_scenario_config`) are flat ``key = value``
text (``#`` comments allowed):

    plane_corner_1 = 0.0, 0.0, 0.0      # three or four corners, meters
    plane_corner_2 = 0.6, 0.0, 0.0
    plane_corner_3 = 0.6, 0.8, 0.0
    plane_corner_4 = 0.0, 0.8, 0.0
    shoulder   = 0.3, -0.1, 0.6         # shoulder base position
    target     = 0.3, 0.4, 0.0          # aimed point, must lie on the plane
    sigma      = 0.01                   # per-axis Gaussian noise, meters
    arm_length = 0.55
    seed       = 42                     # >= 0
    count      = 100                    # >= 1
    frame_rate = 30                     # optional, Hz
    hand       = right                  # optional

Every number is a finite plain decimal (``stream.finite_float``; ``seed`` and
``count`` plain integers). The template rejects a ``sigma`` (or aim bias)
below 0, an ``arm_length``, ``frame_rate`` or stability threshold not above
0, a snap sample count outside ``1..FRAMES_PER_TRIAL`` and an unknown
``hand``; the target check rejects a target off the plane and one the arm
reaches past. Each is a ``StreamError`` (exit 2). Only ``generate`` uses
``target``, ``seed`` and ``count``; the sweeps and calibration take the
plane, frame, shoulder, arm length, frame rate and hand, and their sigma
from their flags.

All randomness flows from a single base seed through per-trial SeedSequence
derivations, so every sweep is reproducible byte for byte. Reports are
emitted as CSV (per-cell aggregates) and JSON (same aggregates plus per-trial
signed offsets for downstream offset analysis).

Sweeps run an array engine: ``stabilize_trials`` takes every trial's joints
as (trials, frames, 3) arrays through the per-frame path at once, with the
ray-plane hit of :func:`intersect_rays_plane`, and ``snap_trials``, the
one place a trial's points become a :class:`TrialResult`, gates, snaps and
scores every trial at once with ``evaluate_request``'s decisions; only a
trial whose gate or nearest-entity decision lies within a few ulps of the
threshold or of a tie takes its deviations and distances again from
``math.hypot``. The scalar ``pipeline`` serves live and replay, and
the engine is its bit-exact twin on any plane: each hit, workplane transform
and decision is ``GesturePipeline.process``'s expression, written out per
component in the same order, with no matmul (``@``) or 1-D
``np.linalg.norm``, whose summation order and FMA use depend on the
numpy/BLAS build and the CPU. Placement takes its in-plane basis on floats
too (``geometry.edge_axes``) and its norm per component, so sweep and
calibration bytes do not follow the BLAS build on any plane. Reports are
written along their fixed shape, with ``json.dumps``'s bytes.

Calibration note: ``calibrate_sigma`` matches the *raw* per-frame
intersection error (before any stabilization) against the requested mean
error, using common random numbers across sigma evaluations so bisection sees
a smooth monotone function.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import (
    ARM_SEPARATION_MIN,
    DEFAULT_T_MIN,
    PARALLEL_TOL,
    PLANARITY_TOL,
    PlanarPoint,
    Plane,
    Point3,
    WorkplaneFrame,
    corners_in_frame,
    edge_axes,
    from_workplane,
    plane_from_corners,
    points_in_bounds,
    workplane_frame,
)
from .snap import (
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_STABILITY_THRESHOLD,
    Area,
    MalformedFileError,
    Target,
    layout_document,
    parse_layout,
)
from .stabilizer import DEFAULT_WINDOW
from .stream import (  # re-exports EvalError, InvalidParametersError and the sample-count defaults
    DEFAULT_CALIBRATION_SAMPLES, DEFAULT_TRIALS_PER_TARGET, HANDS,
    EvalError, InvalidParametersError, KeypointFrame,
    StreamError, decimal_int, decode_object,
    finite_float, json_number, parse_kv_config, parse_triplet, read_text, write_document,
)

PLANE_SIZE = (0.60, 0.80)
PICK_DISTANCES = (0.40, 0.30, 0.20, 0.10, 0.08, 0.06, 0.04, 0.02)
PLACE_SIZES = (0.20, 0.10, 0.05)
BOARD_MARGIN = 0.10
CALIBRATION_REL_TOL = 0.02  # calibrate_sigma stops within this share of the target
CALIBRATION_MAX_ITER = 60  # bracket doublings, then bisection steps
DEFAULT_FRAME_RATE = 30.0
FRAMES_PER_TRIAL = 30

CSV_COLUMNS = (
    "kind", "l_m", "target_id", "trials", "successes", "success_pct",
    "mean_err_m", "std_err_m", "fallback_pct", "mean_du_m", "mean_dv_m",
    "sigma_m", "seed",
)


def euclidean_error(a: PlanarPoint, b: PlanarPoint) -> float:
    """Euclidean norm of the componentwise difference of two workplane points."""
    du, dv, dz = a.u - b.u, a.v - b.v, a.z_residual - b.z_residual
    return math.sqrt(du * du + dv * dv + dz * dz)


# --- boards ---------------------------------------------------------------

@dataclass(frozen=True)
class BoardLayout:
    kind: str
    parameter: float | None
    targets: tuple[Target, ...]
    areas: tuple[Area, ...]
    plane_size: tuple[float, float] = PLANE_SIZE


def make_board(
    kind: str,
    parameter: float | None = None,
    *,
    plane_size: tuple[float, float] = PLANE_SIZE,
) -> BoardLayout:
    """Generate one of the standard test boards on a ``plane_size`` workplane.

    quantitative_10: ten targets in two rows of five with 10 cm margins.
    pick_square(l):  four targets on a centered square of side l, B1/B2 on
                     the +u ("right") side, B3/B4 on the -u ("left") side.
    place_areas(l):  three disjoint squares of side l along the v midline.
    """
    w, h = plane_size
    if kind == "quantitative_10":
        m = BOARD_MARGIN
        if w <= 2 * m or h <= 2 * m:
            raise InvalidParametersError(f"plane {w}x{h} m too small for {m} m margins")
        vs = [m + j * (h - 2 * m) / 4 for j in range(5)]
        targets = []
        for row, u in enumerate((m, w - m)):
            for col, v in enumerate(vs):
                idx = row * 5 + col + 1
                targets.append(
                    Target(id=f"T{idx}", label=f"target_{idx}", position=PlanarPoint(u, v))
                )
        return BoardLayout(kind, None, tuple(targets), (), plane_size)
    if kind == "pick_square":
        if parameter is None or parameter <= 0:
            raise InvalidParametersError(f"pick_square needs a positive side length, got {parameter}")
        l = parameter
        cu, cv = w / 2, h / 2
        if l > min(w, h):
            raise InvalidParametersError(f"side {l} m does not fit the {w}x{h} m plane")
        spots = (
            ("B1", cu + l / 2, cv - l / 2, "right"),
            ("B2", cu + l / 2, cv + l / 2, "right"),
            ("B3", cu - l / 2, cv - l / 2, "left"),
            ("B4", cu - l / 2, cv + l / 2, "left"),
        )
        targets = tuple(
            Target(id=tid, label=f"bolt_{tid.lower()}", position=PlanarPoint(u, v), group=side)
            for tid, u, v, side in spots
        )
        return BoardLayout(kind, l, targets, (), plane_size)
    if kind == "place_areas":
        # the half side is each area's half extent: 5e-324 > 0, but its half rounds to 0
        if parameter is None or not parameter / 2 > 0:
            raise InvalidParametersError(f"place_areas needs a side length whose half is above 0, got {parameter}")
        l = parameter
        gap = (h - 3 * l) / 4
        if gap <= 0 or l > w:
            raise InvalidParametersError(
                f"three disjoint {l} m squares do not fit the {w}x{h} m plane"
            )
        areas = tuple(
            Area(
                id=f"A{k + 1}",
                center=PlanarPoint(w / 2, (k + 1) * gap + (2 * k + 1) * l / 2),
                half_extent=(l / 2, l / 2),
            )
            for k in range(3)
        )
        return BoardLayout(kind, l, (), areas, plane_size)
    raise InvalidParametersError(f"unknown board kind {kind!r}")


def board_document(board: BoardLayout) -> dict:
    return layout_document(
        board.targets,
        board.areas,
        extra={
            "board": {
                "kind": board.kind,
                "l_m": board.parameter,
                "plane_size_m": list(board.plane_size),
            }
        },
    )


def board_from_document(doc: dict) -> BoardLayout:
    """A board from its document: first its metadata (a string ``kind``,
    ``l_m`` null or a number > 0, ``plane_size_m`` two of them), then its layout."""
    meta = doc.get("board", {})
    if not isinstance(meta, dict):
        raise EvalError(f"board metadata must be an object, got {type(meta).__name__}")
    kind, parameter = meta.get("kind", "custom"), meta.get("l_m")
    if not isinstance(kind, str):
        raise EvalError(f"board kind: expected a JSON string, got {type(kind).__name__}")
    what = f"l_m of a {kind!r} board"
    if parameter is not None and json_number(parameter, EvalError, what) <= 0:
        raise EvalError(f"{what} must be null or a finite number > 0, got {parameter!r}")
    plane_size, what = meta.get("plane_size_m", PLANE_SIZE), f"plane_size_m of a {kind!r} board"
    if not (isinstance(plane_size, (list, tuple)) and len(plane_size) == 2
            and json_number(plane_size[0], EvalError, what) > 0
            and json_number(plane_size[1], EvalError, what) > 0):
        raise EvalError(f"{what} must be two finite numbers > 0")
    targets, areas = parse_layout(doc)
    return BoardLayout(
        kind=kind,
        parameter=parameter,
        targets=tuple(targets),
        areas=tuple(areas),
        plane_size=tuple(plane_size),
    )


def save_boards(path: str | os.PathLike, boards: Sequence[BoardLayout]) -> None:
    """Write a board series as ``{"boards": [board document, ...]}``, whole."""
    write_document(path, {"boards": [board_document(b) for b in boards]})


def load_boards(path: str | os.PathLike) -> list[BoardLayout]:
    """Read a board series written by :func:`save_boards`, so measured layouts
    can replace the generated ones. A lone board document (registry schema
    plus a "board" metadata key) reads as a one-board series. Each board
    holds targets (a pick board) or areas (a place board), not both."""
    doc = decode_object(read_text(path), EvalError, path)
    docs = doc["boards"] if "boards" in doc else [doc]
    if not isinstance(docs, list) or not docs:
        raise EvalError(f"{path}: \"boards\" must be a non-empty list")
    boards = []
    for i, entry in enumerate(docs, start=1):
        if not isinstance(entry, dict):
            raise EvalError(f"{path}: board {i} must be a JSON object")
        try:
            board = board_from_document(entry)
        except EvalError as exc:
            raise EvalError(f"{path}: board {i}: {exc}") from exc
        except MalformedFileError as exc:
            raise EvalError(f"{path}: board {i} ({entry.get('board', {}).get('kind', 'custom')}): {exc}") from exc
        if not board.targets and not board.areas:
            raise EvalError(f"{path}: board {i} holds no targets or areas")
        if board.targets and board.areas:
            raise EvalError(f"{path}: board {i} holds both targets and areas")
        boards.append(board)
    return boards


# --- scenario template and trials ------------------------------------------


@dataclass(frozen=True)
class ScenarioTemplate:
    """The simulated pointer, everything about a gesture except its target:
    the geometry, the noise and the pipeline/snap settings used per trial.

    The ideal wrist sits on the shoulder->aim segment at ``arm_length``;
    independent per-axis Gaussian noise (``sigma``) is added to both shoulder
    and wrist each frame. ``aim_bias_sigma`` adds one in-plane Gaussian
    offset to the aimed point, drawn once per trial: it models the
    trial-persistent component of pointing error (a steady hand can be
    precisely wrong), which per-frame noise cannot reproduce because the
    downstream averaging removes it. Construction checks every value; a bad
    one raises StreamError.
    """

    plane: Plane
    shoulder_base: Point3
    arm_length: float
    sigma: float
    aim_bias_sigma: float = 0.0
    snap_samples: int = DEFAULT_SAMPLE_COUNT
    stability_threshold: float = DEFAULT_STABILITY_THRESHOLD
    frame_rate: float = DEFAULT_FRAME_RATE
    hand: str = "right"

    def __post_init__(self) -> None:
        # each range test fails on NaN and on infinities
        if not 0 <= self.sigma < math.inf:
            raise StreamError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0 <= self.aim_bias_sigma < math.inf:
            raise StreamError(f"aim_bias_sigma must be finite and >= 0, got {self.aim_bias_sigma}")
        if not 1 <= self.snap_samples <= FRAMES_PER_TRIAL:
            raise StreamError(f"snap sample count must be in 1..{FRAMES_PER_TRIAL} "
                              f"(frames per trial), got {self.snap_samples}")
        if not 0 < self.stability_threshold < math.inf:
            raise StreamError(f"stability_threshold must be finite and > 0, got {self.stability_threshold}")
        if not 0 < self.arm_length < math.inf:
            raise StreamError(f"arm_length must be finite and positive, got {self.arm_length}")
        if not 0 < self.frame_rate < math.inf:
            raise StreamError(f"frame_rate must be finite and positive, got {self.frame_rate}")
        if self.hand not in HANDS:
            raise StreamError(f"unknown hand {self.hand!r}")

    @functools.cached_property
    def frame(self) -> WorkplaneFrame:
        """The plane's default workplane frame (``workplane_frame(plane)``),
        computed once."""
        return workplane_frame(self.plane)

    @classmethod
    def desk_default(cls, sigma: float = 0.0, **overrides) -> "ScenarioTemplate":
        """Operator at the short edge of a 0.60 x 0.80 m table, shoulder 0.6 m
        above the surface, 0.55 m arm."""
        w, h = PLANE_SIZE
        return cls(
            plane=plane_from_corners([Point3(0, 0, 0), Point3(w, 0, 0), Point3(w, h, 0), Point3(0, h, 0)]),
            shoulder_base=Point3(0.30, -0.10, 0.60),
            arm_length=0.55,
            sigma=sigma,
            **overrides,
        )

    def check_target(self, target: Point3) -> Point3:
        """``target``, once it lies on the plane and beyond the arm's reach
        (else the wrist would overshoot the plane); StreamError otherwise."""
        off = abs(self.plane.signed_distance(target))
        if off > PLANARITY_TOL:
            raise StreamError(f"target lies {off:.4f} m off the plane")
        dx, dy, dz = (t - b for t, b in zip(target.as_tuple(), self.shoulder_base.as_tuple()))
        reach = math.sqrt(dx * dx + dy * dy + dz * dz)
        if self.arm_length >= reach:
            raise StreamError(
                f"arm_length {self.arm_length} m reaches past the target "
                f"({reach:.4f} m away); the wrist would overshoot the plane"
            )
        return target


def load_scenario_config(path: str | os.PathLike) -> tuple[ScenarioTemplate, Point3, int, int]:
    """Read a scenario config file (format in the module docstring) into
    (template, target, seed, count), the arguments of
    :func:`generate_scenario`. The template holds the file's plane and its
    workplane frame, shoulder, arm length, sigma, frame rate and hand; its
    other fields keep their defaults."""
    cfg = parse_kv_config(read_text(path))
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
        template = ScenarioTemplate(
            plane=plane_from_corners(corners),
            shoulder_base=parse_triplet(cfg["shoulder"], "shoulder"),
            arm_length=finite_float(cfg["arm_length"]),
            sigma=finite_float(cfg["sigma"]),
            frame_rate=finite_float(cfg["frame_rate"]) if "frame_rate" in cfg else DEFAULT_FRAME_RATE,
            hand=cfg.get("hand", "right"),
        )
        template.frame  # built here: corners 1 and 2 that give no frame make a bad scenario config
        target = template.check_target(parse_triplet(cfg["target"], "target"))
        seed, count = decimal_int(cfg["seed"]), decimal_int(cfg["count"])
    except ValueError as exc:
        if isinstance(exc, StreamError):
            raise
        raise StreamError(f"bad scenario config: {exc}") from exc
    if seed < 0:
        raise StreamError(f"seed must be >= 0, got {seed}")
    if count < 1:
        raise StreamError(f"count must be >= 1, got {count}")
    return template, target, seed, count


@dataclass(frozen=True)
class TrialResult:
    trial_id: str
    ground_truth_uv: PlanarPoint
    gestured_mean: PlanarPoint | None
    error: float | None
    selected_id: str | None
    success: bool
    fallback_used: bool


@dataclass(frozen=True)
class SweepCell:
    kind: str
    l: float | None
    target_id: str
    trials: tuple[TrialResult, ...]


@dataclass(frozen=True)
class SweepReport:
    kind: str
    sigma: float
    seed: int
    snap_samples: int
    trials_per_target: int
    stability_threshold: float
    cells: tuple[SweepCell, ...] = field(default_factory=tuple)

    def success_by_l(self) -> dict[float | None, float]:
        """Aggregate success percentage per board parameter."""
        grouped: dict[float | None, list[TrialResult]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.l, []).extend(cell.trials)
        return {
            l: 100.0 * sum(1 for t in trials if t.success) / len(trials)
            for l, trials in grouped.items()
            if trials
        }

    @functools.cached_property
    def rows(self) -> tuple[dict, ...]:
        """One row of aggregates per cell, as both report formats write it;
        built on first use and kept with the report."""
        return tuple(_cell_row(cell, self) for cell in self.cells)


# --- synthetic joints and the array ray-plane hit -----------------------------


def draw_joint_noise(
    seed: int, aim_bias_sigma: float, trials: int, frames: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's draw step: the RNG seeded with ``seed`` yields one
    (trials, 2) block of in-plane aim biases, scaled by ``aim_bias_sigma``,
    then one (trials, frames, 2, 3) block of standard normals (shoulder
    before wrist). ``np.random.default_rng`` is called nowhere else."""
    rng = np.random.default_rng(seed)
    return aim_bias_sigma * rng.standard_normal((trials, 2)), rng.standard_normal((trials, frames, 2, 3))


def ideal_wrists(template: ScenarioTemplate, targets: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The sampler's placement step: each trial's noiseless wrist, shape
    (trials, 3). It sits ``arm_length`` along the segment from the shoulder
    base to the trial's aim, its target ((3,) or (trials, 3)) moved by its
    (u, v) bias. ``template`` gives the plane, shoulder base and arm length;
    the in-plane basis is ``geometry.edge_axes``, the workplane frame's, on
    floats and once for all trials. Each component is one contiguous row of
    the result's transpose, which calibration reads as is."""
    (e1, e2), base, bu, bv = edge_axes(template.plane), template.shoulder_base.as_tuple(), bias[:, 0], bias[:, 1]
    x, y, z = (t + bu * a + bv * b - o for t, a, b, o in zip(np.moveaxis(targets, -1, 0), e1, e2, base))
    # the order in which np.linalg.norm(axis=1) sums a length-3 axis
    scale = template.arm_length / np.sqrt((x * x + y * y) + z * z)
    return np.array([o + c * scale for o, c in zip(base, (x, y, z))]).T


def noisy_joints(
    shoulder_base: Point3, ideal: np.ndarray, eps: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """(shoulders, wrists), shape (trials, frames, 3): the shoulder base and
    the ideal wrists plus ``sigma`` times the draw's normal block."""
    base = np.array(shoulder_base.as_tuple())
    return base + sigma * eps[:, :, 0, :], ideal[:, None, :] + sigma * eps[:, :, 1, :]


def generate_scenario(
    template: ScenarioTemplate, target: Point3, seed: int, count: int
) -> Iterator[KeypointFrame]:
    """Yield ``count`` KeypointFrames of one gesture at ``target`` (timestamps
    step by 1/frame_rate, source ``"synthetic"``): :func:`draw_joint_noise`
    seeded with ``seed`` for one trial, :func:`ideal_wrists` and
    :func:`noisy_joints`, the steps sweeps and calibration run on draws they
    stack or keep across sigmas. The caller has checked ``target``, ``seed``
    and ``count`` (:meth:`ScenarioTemplate.check_target`,
    :func:`load_scenario_config`)."""
    bias, eps = draw_joint_noise(seed, template.aim_bias_sigma, 1, count)
    ideal = ideal_wrists(template, np.array(target.as_tuple()), bias)
    shoulders, wrists = noisy_joints(template.shoulder_base, ideal, eps, template.sigma)
    shoulder_name = f"{template.hand}_shoulder"
    wrist_name = f"{template.hand}_wrist"
    for k, (shoulder, wrist) in enumerate(zip(shoulders[0].tolist(), wrists[0].tolist())):
        yield KeypointFrame(
            timestamp=k / template.frame_rate,
            joints={
                shoulder_name: (*shoulder, 1.0),
                wrist_name: (*wrist, 1.0),
            },
            source_id="synthetic",
        )


def intersect_rays_plane(
    shoulders: np.ndarray, wrists: np.ndarray, plane: Plane
) -> tuple[np.ndarray, np.ndarray]:
    """Extend each shoulder->wrist ray over (..., 3) joints onto the plane.

    The scaling factor is ``t = -(<n, shoulder> + d) / <n, wrist - shoulder>``
    and the hit ``shoulder + t * (wrist - shoulder)``. A ray misses when its
    joints lie within ``ARM_SEPARATION_MIN``, it runs parallel to the plane
    (``PARALLEL_TOL``) or the hit would lie behind the wrist
    (t < ``DEFAULT_T_MIN``). Returns the hit points (NaN where a ray misses)
    and the mask of rays that hit. Each value is ``GesturePipeline.process``'s
    expression, per component and in its order, so hits and decisions equal
    the per-frame kernel's bit for bit; ``@`` or ``np.linalg.norm`` would sum
    in an order that depends on the numpy/BLAS build and the CPU."""
    dirs = wrists - shoulders
    with np.errstate(divide="ignore", invalid="ignore"):
        t, valid = _ray_scale(plane, *(joints[..., k] for joints in (shoulders, dirs) for k in range(3)))
        hits = shoulders + dirs * t[..., None]
    return np.where(valid[..., None], hits, np.nan), valid


def _ray_scale(plane: Plane, sx, sy, sz, dx, dy, dz) -> tuple[np.ndarray, np.ndarray]:
    """``t`` and the hit mask of :func:`intersect_rays_plane`, from the
    shoulders and the shoulder->wrist directions given per component; the
    caller silences the division warnings of missing rays."""
    nx, ny, nz = plane.normal.as_tuple()
    length = np.sqrt(dx * dx + dy * dy + dz * dz)
    denom = nx * dx + ny * dy + nz * dz
    t = -(nx * sx + ny * sy + nz * sz + plane.d) / denom
    return t, (length > ARM_SEPARATION_MIN) & (abs(denom / length) >= PARALLEL_TOL) & (t >= DEFAULT_T_MIN)


def _derived_seed(base_seed: int, *path: int) -> int:
    ss = np.random.SeedSequence([int(base_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


_KIND_CODES = {"quantitative_10": 0, "pick_square": 1, "place_areas": 2}
# Trial seeds are derived from (base seed, kind, entity, trial) and shared
# across the l series: common random numbers, so success differences between
# board sizes reflect the geometry, not resampling noise.


def _aimed_uv(entity: Target | Area) -> PlanarPoint:
    return entity.position if isinstance(entity, Target) else entity.center


def stabilize_trials(
    template: ScenarioTemplate, shoulders: np.ndarray, wrists: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The per-frame path of ``pipeline`` for the template's hand, run over
    (trials, frames, 3) joints at once. Returns (points, counts):
    ``points[k, :counts[k]]`` are trial k's stabilized (u, v, z_residual)
    points, oldest first. Dropped samples neither enter nor evict the window,
    so a stable sort first moves each trial's accepted samples to the front;
    the running mean then sums offsets from the window's first point in
    buffer order, as :func:`~gesturepoint.geometry.planar_mean` does. Each
    window is a slice of the points padded in front with copies of the first:
    a short window's padding adds offsets of 0.0 first, which sum to 0.0."""
    hits, valid = intersect_rays_plane(shoulders, wrists, template.plane)
    frame = template.frame
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = frame.rows
    x, y, z = np.moveaxis(hits - np.array(frame.origin.as_tuple()), -1, 0)
    local = np.stack(
        (r00 * x + r10 * y + r20 * z, r01 * x + r11 * y + r21 * z, r02 * x + r12 * y + r22 * z), axis=-1
    )
    bounds = corners_in_frame(template.plane, frame)
    accepted = valid & points_in_bounds(local[..., 0], local[..., 1], bounds)
    order = np.argsort(~accepted, axis=1, kind="stable")
    raw = np.take_along_axis(local, order[..., None], axis=1)
    frames = raw.shape[1]
    padded = np.concatenate((np.repeat(raw[:, :1], DEFAULT_WINDOW - 1, axis=1), raw), axis=1)
    first, total = padded[:, :frames], np.zeros_like(raw)
    for slot in range(1, DEFAULT_WINDOW):
        total += padded[:, slot:slot + frames] - first
    return first + total / np.minimum(np.arange(1, frames + 1), DEFAULT_WINDOW)[:, None], accepted.sum(axis=1)


# an array decision's relative margin: np.hypot and math.hypot each lie within
# an ulp (2**-52) of the exact value; the absolute term covers subnormals
_MARGIN, _TINY = 2.0 ** -48, 2.0 ** -1000


def _surely_below(a, b):
    """Where the exact value that ``a`` approximates lies below ``b``'s."""
    return a * (1 + _MARGIN) + _TINY < b


def snap_trials(template: ScenarioTemplate, boards: Sequence[BoardLayout], board_of: np.ndarray,
                runs: Sequence[tuple], points: np.ndarray, counts: np.ndarray) -> list[TrialResult]:
    """Snap and score every trial at once: ``runs[k]`` (board, entity index,
    entity, trial) aims at an entity of ``boards[board_of[k]]``, with the
    points of :func:`stabilize_trials`; a trial with fewer than
    ``template.snap_samples`` of them has no snap, mean or error. The gate
    and snaps are ``evaluate_request``'s: the gate's mean adds offsets column
    by column in ``planar_mean``'s order, the gate is a strict ``deviation <
    threshold``, containment is exact, and each board's entities sit in id
    order, so ``argmin`` breaks a distance tie by id. Deviations and
    distances come from ``np.hypot``; a trial whose decision is not clear
    past ``_MARGIN`` takes them again from ``math.hypot``, as the scalar
    snaps do. The error is ``euclidean_error``'s expression against the aimed
    ``(u, v, 0)``. Pick success means the aimed target was selected; place
    success means the mean landed inside the aimed area, so a nearest-center
    fallback is recorded but counts as a failure. No selection is always a
    failure."""
    n, threshold = template.snap_samples, template.stability_threshold
    entities = [sorted(board.targets or board.areas, key=lambda e: e.id) for board in boards]
    table = np.full((len(boards), 4, 1 + max(map(len, entities))), np.nan)  # u, v, half u, half v; NaN: absent
    for b, row in enumerate(entities):
        for j, entity in enumerate(row):
            uv = _aimed_uv(entity)
            table[b, :, j] = uv.u, uv.v, *getattr(entity, "half_extent", (np.nan, np.nan))
    cu, cv, hu, hv = table[board_of].transpose(1, 0, 2)
    aims = [_aimed_uv(entity) for _, _, entity, _ in runs]
    au, av = np.array([(uv.u, uv.v) for uv in aims]).T
    gestured = counts >= n
    with np.errstate(invalid="ignore"):
        window = np.take_along_axis(points, (np.maximum(counts, n)[:, None] - n + np.arange(n))[..., None], axis=1)
        first, total = window[:, 0], np.zeros_like(window[:, 0])
        for j in range(n):
            total += window[:, j] - first
        means = first + total / n
        mu, mv = means[:, :1], means[:, 1:2]
        du, dv, dz = means[:, 0] - au, means[:, 1] - av, means[:, 2]
        error = np.sqrt((du * du + dv * dv) + dz * dz)
        deviation = np.hypot(window[..., 0] - mu, window[..., 1] - mv).max(axis=1)
        inside = (abs(mu - cu) <= hu) & (abs(mv - cv) <= hv)  # never for a target: its half extents are NaN
        contained = inside.any(axis=1)
        distance = np.where(np.where(contained[:, None], inside, ~np.isnan(cu)), np.hypot(mu - cu, mv - cv), np.inf)
        ranked = np.sort(distance, axis=1)
        clear = _surely_below(threshold, deviation) | (
            _surely_below(deviation, threshold) & _surely_below(ranked[:, 0], ranked[:, 1]))
    for i in np.flatnonzero(gestured & ~clear).tolist():  # a close call: math.hypot's values decide it
        deviation[i] = max(map(math.hypot, (window[i, :, 0] - mu[i]).tolist(), (window[i, :, 1] - mv[i]).tolist()))
        pool = np.isfinite(distance[i])
        distance[i, pool] = list(map(math.hypot, (mu[i] - cu[i, pool]).tolist(), (mv[i] - cv[i, pool]).tolist()))
    results = []
    for (board, _, entity, k), aimed_uv, b, scored, snapped, best, inner, mean_uvz, err in zip(
            runs, aims, board_of.tolist(), gestured.tolist(), (gestured & (deviation < threshold)).tolist(),
            distance.argmin(axis=1).tolist(), contained.tolist(), means.tolist(), error.tolist()):
        selected = entities[b][best].id if snapped else None
        fallback = snapped and not board.targets and not inner
        results.append(TrialResult(f"{board.kind}-{board.parameter}-{entity.id}-{k}", aimed_uv,
                                   PlanarPoint(*mean_uvz) if scored else None, err if scored else None,
                                   selected, selected == entity.id and not fallback, fallback))
    return results


def run_pick_sweep(
    template: ScenarioTemplate,
    distances: Sequence[float] = PICK_DISTANCES,
    trials_per_target: int = DEFAULT_TRIALS_PER_TARGET,
    base_seed: int = 0,
) -> SweepReport:
    """Pick boards over a series of square side lengths, 10 trials per bolt by
    default; success means the aimed bolt was selected."""
    return run_boards(template, standard_boards("pick", template, distances), trials_per_target, base_seed)


def run_place_sweep(
    template: ScenarioTemplate,
    sizes: Sequence[float] = PLACE_SIZES,
    trials_per_area: int = DEFAULT_TRIALS_PER_TARGET,
    base_seed: int = 0,
) -> SweepReport:
    """Place boards over a series of area sizes; per-trial offsets from the
    area centers are retained for downstream analysis."""
    return run_boards(template, standard_boards("place", template, sizes), trials_per_area, base_seed)


def run_boards(
    template: ScenarioTemplate,
    boards: Sequence[BoardLayout],
    trials_per_target: int = DEFAULT_TRIALS_PER_TARGET,
    base_seed: int = 0,
) -> SweepReport:
    """Sweep over board layouts, generated or measured; the report takes the
    first board's kind. An aimed point off the workspace is an error."""
    if not boards:
        raise EvalError("no boards to run")
    if trials_per_target < 1:
        raise InvalidParametersError(f"trials per target must be >= 1, got {trials_per_target}")
    aimed = [(board, e_idx, entity) for board in boards
             for e_idx, entity in enumerate(board.targets or board.areas)]
    runs = [(board, e_idx, entity, k) for board, e_idx, entity in aimed for k in range(trials_per_target)]
    # one target per aimed entity; its trials differ only in their draws
    targets = aimed_targets(template, boards)
    # one draw per (kind, entity, trial) key: the l series shares its draws
    keys = [(_KIND_CODES.get(board.kind, 9), e_idx, k) for board, e_idx, _, k in runs]
    drawn = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    bias, eps = (np.concatenate(block)[[drawn[key] for key in keys]] for block in zip(*(
        draw_joint_noise(_derived_seed(base_seed, *key), template.aim_bias_sigma, 1, FRAMES_PER_TRIAL)
        for key in drawn
    )))
    ideal = ideal_wrists(template, np.repeat(targets, trials_per_target, axis=0), bias)
    points, counts = stabilize_trials(
        template, *noisy_joints(template.shoulder_base, ideal, eps, template.sigma)
    )
    sizes = [len(board.targets or board.areas) * trials_per_target for board in boards]
    trials = snap_trials(template, boards, np.repeat(np.arange(len(boards)), sizes), runs, points, counts)
    cells = [
        SweepCell(kind=board.kind, l=board.parameter, target_id=entity.id,
                  trials=tuple(trials[c * trials_per_target:(c + 1) * trials_per_target]))
        for c, (board, _, entity) in enumerate(aimed)
    ]
    return SweepReport(
        kind=boards[0].kind,
        sigma=template.sigma,
        seed=base_seed,
        snap_samples=template.snap_samples,
        trials_per_target=trials_per_target,
        stability_threshold=template.stability_threshold,
        cells=tuple(cells),
    )


def aimed_targets(template: ScenarioTemplate, boards: Sequence[BoardLayout]) -> list[tuple[float, float, float]]:
    """The world point of every target or area center of ``boards``, board by
    board. A point off the workspace, or one the arm reaches past, is an error;
    the template's sigma is not used."""
    bounds = corners_in_frame(template.plane, template.frame)
    targets = []
    for board in boards:
        for entity in board.targets or board.areas:
            uv = _aimed_uv(entity)
            if not points_in_bounds(uv.u, uv.v, bounds):
                raise InvalidParametersError(f"{board.kind} board: {entity.id} at (u, v) = ({uv.u:.4f}, {uv.v:.4f}) "
                                             f"lies off the workspace")
            targets.append(template.check_target(from_workplane(uv, template.frame)).as_tuple())
    return targets


def standard_boards(kind: str, template: ScenarioTemplate,
                    lengths: Sequence[float] | None = None) -> list[BoardLayout]:
    """The generated board series of a sweep ``kind`` (``sweep --kind``) over
    the (u, v) extent of the template's corners: a pick board per square side
    in ``lengths`` (default ``PICK_DISTANCES``), a place board per area side
    (default ``PLACE_SIZES``), or the one ten-target board."""
    us, vs = zip(*corners_in_frame(template.plane, template.frame))
    size = (max(us) - min(us), max(vs) - min(vs))
    if kind == "quantitative":
        return [make_board("quantitative_10", plane_size=size)]
    board_kind, default = {"pick": ("pick_square", PICK_DISTANCES), "place": ("place_areas", PLACE_SIZES)}[kind]
    return [make_board(board_kind, l, plane_size=size) for l in (default if lengths is None else lengths)]


# --- calibration -----------------------------------------------------------


def _mean_error_by_sigma(
    template: ScenarioTemplate, target_world: Point3, samples: int, seed: int
) -> Callable[[float], float]:
    """Calibration's objective: the joints are drawn and placed once, as
    contiguous arrays per component, so each sigma costs only the noisy
    joints, the ray-plane hit and the mean error, per component in the order
    of :func:`intersect_rays_plane` and ``np.linalg.norm`` (x, y, then z).
    The template's own sigma is not used."""
    if samples < 1:
        raise InvalidParametersError(f"calibration needs at least 1 sample, got {samples}")
    target = template.check_target(target_world).as_tuple()
    bias, eps = draw_joint_noise(seed, template.aim_bias_sigma, samples, 1)
    ideal = ideal_wrists(template, np.array(target), bias).T  # its rows are contiguous
    shoulder_eps, wrist_eps = eps[:, 0].transpose(1, 2, 0).copy()
    base = template.shoulder_base.as_tuple()

    def mean_error(sigma: float) -> float:
        shoulders = [b + sigma * e for b, e in zip(base, shoulder_eps)]
        dirs = [w + sigma * e - s for w, e, s in zip(ideal, wrist_eps, shoulders)]
        with np.errstate(divide="ignore", invalid="ignore"):
            t, valid = _ray_scale(template.plane, *shoulders, *dirs)
            ex, ey, ez = (s + d * t - c for s, d, c in zip(shoulders, dirs, target))
            error = np.sqrt(ex * ex + ey * ey + ez * ez)
        if valid.all():
            return float(error.mean())
        if not valid.any():
            raise EvalError("no ray reached the plane; scenario geometry is off")
        return float(error[valid].mean())

    return mean_error


def mean_intersection_error(
    template: ScenarioTemplate,
    target_world: Point3,
    sigma: float,
    *,
    samples: int = DEFAULT_CALIBRATION_SAMPLES,
    seed: int = 0,
) -> float:
    """Mean Euclidean error of raw per-frame ray-plane intersections against
    the aimed target, vectorized: calibration's objective at one sigma.

    This is the ensemble error over trials: each sample is the one frame of
    its own trial from the generator's sampler steps, with its own aim
    bias (when the template has one) and joint noise. Frames whose ray misses
    the plane (parallel, or hit not beyond the wrist) are excluded from the
    mean.
    """
    # the template carries sigma, so its checks see it
    with_sigma = dataclasses.replace(template, sigma=sigma)
    return _mean_error_by_sigma(with_sigma, target_world, samples, seed)(sigma)


def calibrate_sigma(
    target_mean_error: float,
    template: ScenarioTemplate,
    *,
    samples: int = DEFAULT_CALIBRATION_SAMPLES,
    seed: int = 0,
) -> float:
    """Bisect the joint-noise sigma until the simulated mean intersection
    error at the centroid of the plane corners lands within
    ``CALIBRATION_REL_TOL`` of ``target_mean_error``.

    The joints are drawn once and reused for every sigma evaluation (common
    random numbers), which keeps the objective smooth and monotone. A zero
    target returns 0 without drawing.
    """
    if target_mean_error < 0:
        raise InvalidParametersError(f"target mean error must be >= 0, got {target_mean_error}")
    if target_mean_error == 0:
        return 0.0
    cs = template.plane.corners
    centroid = Point3(
        sum(c.x for c in cs) / 4, sum(c.y for c in cs) / 4, sum(c.z for c in cs) / 4
    )

    f = _mean_error_by_sigma(template, centroid, samples, seed)
    floor = f(0.0)
    if floor > target_mean_error * (1.0 + CALIBRATION_REL_TOL):
        raise EvalError(
            f"aim bias alone yields {floor:.4f} m mean error, above the "
            f"{target_mean_error} m target; no joint-noise sigma can reach it"
        )
    lo, hi = 0.0, target_mean_error
    for _ in range(CALIBRATION_MAX_ITER):
        if f(hi) >= target_mean_error:
            break
        hi *= 2.0
    else:
        raise EvalError(
            f"could not bracket sigma for target error {target_mean_error} m"
        )
    for _ in range(CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        err = f(mid)
        if abs(err - target_mean_error) <= CALIBRATION_REL_TOL * target_mean_error:
            return mid
        if err < target_mean_error:
            lo = mid
        else:
            hi = mid
    raise EvalError(
        f"bisection did not reach {CALIBRATION_REL_TOL:.0%} of {target_mean_error} m "
        f"in {CALIBRATION_MAX_ITER} iterations"
    )


# --- report emission --------------------------------------------------------


def _round4(x: float | None) -> float | None:
    return None if x is None else round(x, 4)


def _round2(x: float) -> float:
    return round(x, 2)


def _pstdev(values: list[float]) -> float:
    """``statistics.pstdev(values)`` (Python 3.11 on) from integer sums: the
    correctly rounded root of the exact population variance; NaN if a value
    is NaN or infinite."""
    if not all(map(math.isfinite, values)):
        return math.nan
    ratios = [x.as_integer_ratio() for x in values]  # each denominator is a power of two
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    # the variance is num / den; its root, rounded to odd on >= 55 bits, rounds correctly once converted
    num, den = len(ints) * sum(a * a for a in ints) - sum(ints) ** 2, (len(ints) * scale) ** 2
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num, den << 2 * shift) if shift >= 0 else (num << -2 * shift, den)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _float_sum(values) -> float:
    """The values added one by one from 0.0, in order: not ``sum()``, which
    compensates float sums from Python 3.12 on, so report means are the same
    on every Python (``geometry.planar_mean`` adds the same way)."""
    total = 0.0
    for x in values:
        total += x
    return total


def _cell_row(cell: SweepCell, report: SweepReport) -> dict:
    trials = cell.trials
    successes = sum(1 for t in trials if t.success)
    fallbacks = sum(1 for t in trials if t.fallback_used)
    errors = [t.error for t in trials if t.error is not None]
    with_mean = [t for t in trials if t.gestured_mean is not None]
    du = dv = None
    if with_mean:
        du = _float_sum(t.gestured_mean.u - t.ground_truth_uv.u for t in with_mean) / len(with_mean)
        dv = _float_sum(t.gestured_mean.v - t.ground_truth_uv.v for t in with_mean) / len(with_mean)
    return {
        "kind": cell.kind,
        "l_m": _round4(cell.l),
        "target_id": cell.target_id,
        "trials": len(trials),
        "successes": successes,
        "success_pct": _round2(100.0 * successes / len(trials) if trials else 0.0),
        "mean_err_m": _round4(_float_sum(errors) / len(errors)) if errors else None,
        "std_err_m": _round4(_pstdev(errors)) if errors else None,
        "fallback_pct": _round2(100.0 * fallbacks / len(trials) if trials else 0.0),
        "mean_du_m": _round4(du),
        "mean_dv_m": _round4(dv),
        "sigma_m": _round4(report.sigma),
        "seed": report.seed,
    }


# each CSV column's format spec; the spec "" formats a value as str() does
_CSV_SPECS = tuple((c, ".2f" if c.endswith("_pct") else ".4f" if c.endswith("_m") else "") for c in CSV_COLUMNS)


# the text json.dumps gives each scalar of these exact types
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: {False: "false", True: "true"}.get,
                 type(None): {None: "null"}.get}


def _json_scalar(value) -> str:
    """``json.dumps(value)`` for one report value."""
    if type(value) is float and -math.inf < value < math.inf:
        return float.__repr__(value)
    return _JSON_SCALARS.get(type(value), json.dumps)(value)


def _json_list(items: list[str], indent: str) -> str:
    return "[" + ",".join(items) + indent + "]" if items else "[]"


# the JSON report's fixed shape, keys in sort_keys order and indented as indent=2 does
_ROW_KEYS = sorted(CSV_COLUMNS)  # then "trials_detail", which sorts after them all
_CELL_JSON = "\n    {" + "".join(f'\n      "{k}": %s,' for k in _ROW_KEYS) + '\n      "trials_detail": %s\n    }'
_TRIAL_JSON = "\n        {" + ",".join(f'\n          "{k}": %s' for k in (
    "du_m", "dv_m", "err_m", "fallback", "selected", "success", "trial")) + "\n        }"
_REPORT_JSON = ('{\n  "cells": %s,\n  "config": {\n    "seed": %s,\n    "sigma_m": %s,\n    "snap_samples": %s,'
                '\n    "source": "synthetic",\n    "stability_threshold_m": %s,\n    "trials_per_target": %s\n  },'
                '\n  "kind": %s\n}\n')


def _json_report(report: SweepReport) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` of the report document
    (the config, and per cell its row and trial details) plus a newline,
    written along its known shape."""
    text = _json_scalar
    cells = []
    for row, cell in zip(report.rows, report.cells):
        trials = []
        for t in cell.trials:
            mean, truth = t.gestured_mean, t.ground_truth_uv
            du, dv = (None, None) if mean is None else (round(mean.u - truth.u, 4), round(mean.v - truth.v, 4))
            trials.append(_TRIAL_JSON % (text(du), text(dv), text(_round4(t.error)), text(t.fallback_used),
                                         text(t.selected_id), text(t.success), text(t.trial_id)))
        cells.append(_CELL_JSON % (*[text(row[k]) for k in _ROW_KEYS], _json_list(trials, "\n      ")))
    return _REPORT_JSON % (_json_list(cells, "\n  "), text(report.seed), text(report.sigma), text(report.snap_samples),
                           text(report.stability_threshold), text(report.trials_per_target), text(report.kind))


def emit_report(report: SweepReport, format: str) -> str:
    """Render a sweep report as 'csv' (cell aggregates) or 'json' (aggregates
    plus per-trial offsets). Values shared between the two formats are
    identical; reruns with the same config are byte-identical."""
    if format not in ("csv", "json"):
        raise EvalError(f"unsupported report format {format!r}")
    if format == "json":
        return _json_report(report)
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join("" if (v := row[c]) is None else f"{v:{spec}}" for c, spec in _CSV_SPECS))
    return "\n".join(lines) + "\n"
