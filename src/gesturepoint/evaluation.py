"""Desk-scale evaluation harness: board layouts, error metrics, seeded
Monte-Carlo pick/place sweeps over the synthetic generator, and report
emission.

All randomness flows from a single base seed through per-trial SeedSequence
derivations, so every sweep is reproducible byte for byte. Reports are
emitted as CSV (per-cell aggregates) and JSON (same aggregates plus per-trial
signed offsets for downstream offset analysis).

Sweeps run an array engine: ``stabilize_trials`` takes every trial's joints
as (trials, frames, 3) arrays through the per-frame path at once, and
``run_trial`` snaps and scores each trial through ``evaluate_request``. The
scalar ``pipeline`` serves live and replay and is the engine's test reference.

Calibration note: ``calibrate_sigma`` matches the *raw* per-frame
intersection error (before any stabilization) against the requested mean
error, using common random numbers across sigma evaluations so bisection sees
a smooth monotone function.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    PlanarPoint,
    Plane,
    Point3,
    WorkplaneFrame,
    corners_in_frame,
    from_workplane,
    intersect_rays_plane,
    plane_from_corners,
    points_in_bounds,
    workplane_frame,
)
from .snap import (
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_STABILITY_THRESHOLD,
    Area,
    DuplicateIdError,
    MalformedFileError,
    Registry,
    SnapRequest,
    SnapResult,
    Target,
    evaluate_request,
    layout_document,
    parse_layout,
    stability_gate,
)
from .stabilizer import DEFAULT_WINDOW
from .stream import DEFAULT_FRAME_RATE, GestureScenario, sample_joint_positions

PLANE_SIZE = (0.60, 0.80)
PICK_DISTANCES = (0.40, 0.30, 0.20, 0.10, 0.08, 0.06, 0.04, 0.02)
PLACE_SIZES = (0.20, 0.10, 0.05)
BOARD_MARGIN = 0.10
DEFAULT_TRIALS_PER_TARGET = 10
CALIBRATION_REL_TOL = 0.02  # calibrate_sigma stops within this share of the target
CALIBRATION_MAX_ITER = 60  # bracket doublings, then bisection steps

CSV_COLUMNS = (
    "kind", "l_m", "target_id", "trials", "successes", "success_pct",
    "mean_err_m", "std_err_m", "fallback_pct", "mean_du_m", "mean_dv_m",
    "sigma_m", "seed",
)


class EvalError(ValueError):
    pass


class DimensionMismatchError(EvalError):
    pass


class InvalidParametersError(EvalError):
    pass


class NonConvergenceError(EvalError):
    pass


class UnsupportedFormatError(EvalError):
    pass


def euclidean_error(a: Point3 | PlanarPoint, b: Point3 | PlanarPoint) -> float:
    """Euclidean norm of the componentwise difference; both arguments must be
    the same kind of point."""
    if isinstance(a, Point3) and isinstance(b, Point3):
        return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)
    if isinstance(a, PlanarPoint) and isinstance(b, PlanarPoint):
        return math.sqrt(
            (a.u - b.u) ** 2 + (a.v - b.v) ** 2 + (a.z_residual - b.z_residual) ** 2
        )
    raise DimensionMismatchError(
        f"cannot mix {type(a).__name__} and {type(b).__name__}"
    )


# --- boards ---------------------------------------------------------------

BOARD_KINDS = ("quantitative_10", "pick_square", "place_areas")


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
        if parameter is None or parameter <= 0:
            raise InvalidParametersError(f"place_areas needs a positive side length, got {parameter}")
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


def _positive_number(value) -> bool:
    """A JSON number > 0 that a float holds (bools are not numbers here)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def board_from_document(doc: dict) -> BoardLayout:
    """A board from its document; ``l_m`` must be null or a finite number
    > 0 and ``plane_size_m`` two of them."""
    targets, areas = parse_layout(doc)
    meta = doc.get("board", {})
    if not isinstance(meta, dict):
        raise EvalError(f"board metadata must be an object, got {meta!r}")
    kind = str(meta.get("kind", "custom"))
    parameter = meta.get("l_m")
    if parameter is not None and not _positive_number(parameter):
        raise EvalError(f"l_m of a {kind!r} board must be null or a finite number > 0, got {parameter!r}")
    plane_size = meta.get("plane_size_m", PLANE_SIZE)
    if not (isinstance(plane_size, (list, tuple)) and len(plane_size) == 2
            and all(_positive_number(x) for x in plane_size)):
        raise EvalError(
            f"plane_size_m of a {kind!r} board must be two finite numbers > 0, got {plane_size!r}"
        )
    return BoardLayout(
        kind=kind,
        parameter=parameter,
        targets=tuple(targets),
        areas=tuple(areas),
        plane_size=tuple(plane_size),
    )


def save_boards(path: str | os.PathLike, boards: Sequence[BoardLayout]) -> None:
    """Write a board series as ``{"boards": [board document, ...]}``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"boards": [board_document(b) for b in boards]}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_boards(path: str | os.PathLike) -> list[BoardLayout]:
    """Read a board series written by :func:`save_boards`, so measured layouts
    can replace the generated ones. A lone board document (registry schema
    plus a "board" metadata key) reads as a one-board series."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise EvalError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise EvalError(f"{path}: expected a JSON object")
    docs = doc["boards"] if "boards" in doc else [doc]
    if not isinstance(docs, list) or not docs:
        raise EvalError(f"{path}: \"boards\" must be a non-empty list")
    boards = []
    for i, entry in enumerate(docs, start=1):
        if not isinstance(entry, dict):
            raise EvalError(f"{path}: board {i} must be a JSON object")
        try:
            board = board_from_document(entry)
        except (EvalError, MalformedFileError) as exc:
            raise EvalError(f"{path}: board {i}: {exc}") from exc
        if not board.targets and not board.areas:
            raise EvalError(f"{path}: board {i} holds no targets or areas")
        try:
            Registry().replace_all(board.targets)
            Registry().replace_all(board.areas)
        except DuplicateIdError as exc:
            raise EvalError(f"{path}: board {i} ({board.kind}): {exc}") from exc
        boards.append(board)
    return boards


# --- scenario template and trials ------------------------------------------


def desk_plane(size: tuple[float, float] = PLANE_SIZE) -> Plane:
    """The workplane used by the desk-scale harness: z = 0, corner at the origin."""
    w, h = size
    return plane_from_corners(
        [Point3(0, 0, 0), Point3(w, 0, 0), Point3(w, h, 0), Point3(0, h, 0)]
    )


@dataclass(frozen=True)
class ScenarioTemplate:
    """Everything about a simulated gesture except the target: the geometry of
    the pointer and the pipeline/snap settings used per trial."""

    plane: Plane
    frame: WorkplaneFrame
    shoulder_base: Point3
    arm_length: float
    sigma: float
    aim_bias_sigma: float = 0.0
    frames_per_trial: int = 30
    snap_samples: int = DEFAULT_SAMPLE_COUNT
    stability_threshold: float = DEFAULT_STABILITY_THRESHOLD
    window: int = DEFAULT_WINDOW
    frame_rate: float = DEFAULT_FRAME_RATE
    hand: str = "right"

    @classmethod
    def desk_default(cls, sigma: float = 0.0, **overrides) -> "ScenarioTemplate":
        """Operator at the short edge of a 0.60 x 0.80 m table, shoulder 0.6 m
        above the surface, 0.55 m arm."""
        plane = desk_plane()
        return cls(
            plane=plane,
            frame=workplane_frame(plane),
            shoulder_base=Point3(0.30, -0.10, 0.60),
            arm_length=0.55,
            sigma=sigma,
            **overrides,
        )

    def scenario_for(self, target_world: Point3, seed: int) -> GestureScenario:
        return GestureScenario(
            plane=self.plane,
            shoulder_base=self.shoulder_base,
            target=target_world,
            noise_sigma=self.sigma,
            arm_length=self.arm_length,
            sample_count=self.frames_per_trial,
            rng_seed=seed,
            frame_rate=self.frame_rate,
            hand=self.hand,
            aim_bias_sigma=self.aim_bias_sigma,
        )


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

    @property
    def successes(self) -> int:
        return sum(1 for t in self.trials if t.success)

    @property
    def success_pct(self) -> float:
        return 100.0 * self.successes / len(self.trials) if self.trials else 0.0

    @property
    def errors(self) -> list[float]:
        return [t.error for t in self.trials if t.error is not None]

    @property
    def fallback_pct(self) -> float:
        if not self.trials:
            return 0.0
        return 100.0 * sum(1 for t in self.trials if t.fallback_used) / len(self.trials)

    def offset_means(self) -> tuple[float | None, float | None]:
        with_mean = [t for t in self.trials if t.gestured_mean is not None]
        if not with_mean:
            return None, None
        dus = [t.gestured_mean.u - t.ground_truth_uv.u for t in with_mean]
        dvs = [t.gestured_mean.v - t.ground_truth_uv.v for t in with_mean]
        return sum(dus) / len(dus), sum(dvs) / len(dvs)


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
    buffer order, as :func:`~gesturepoint.geometry.planar_mean` does."""
    hits, valid = intersect_rays_plane(shoulders, wrists, template.plane)
    frame = template.frame
    local = (hits - np.array(frame.origin.as_tuple())) @ np.array(frame.orientation.to_matrix())
    bounds = corners_in_frame(template.plane, frame)
    accepted = valid & points_in_bounds(local[..., 0], local[..., 1], bounds)
    order = np.argsort(~accepted, axis=1, kind="stable")
    raw = np.take_along_axis(local, order[..., None], axis=1)
    idx = np.arange(raw.shape[1])
    start = np.maximum(idx - template.window + 1, 0)
    first = raw[:, start]
    total = np.zeros_like(raw)
    for slot in range(1, template.window):
        j = start + slot
        total += np.where((j <= idx)[:, None], raw[:, np.minimum(j, idx)] - first, 0.0)
    return first + total / np.minimum(idx + 1, template.window)[:, None], accepted.sum(axis=1)


def run_trial(
    template: ScenarioTemplate,
    board: BoardLayout,
    aimed: Target | Area,
    trial_id: str,
    samples: Sequence[PlanarPoint],
) -> TrialResult:
    """Snap and score one trial aimed at a target or area of ``board``, given
    its last stabilized points (fewer than ``template.snap_samples`` means
    no snap).

    Pick success means the aimed target was selected. Place success means the
    gestured mean landed inside the aimed area; a nearest-center fallback
    selection is recorded (``fallback_used``) but counts as a failure, the
    same way out-of-bounds selections are set aside in the reference
    protocol. No selection at all is always a failure.
    """
    aimed_uv = _aimed_uv(aimed)
    result: SnapResult | None = None
    mean = error = None
    if len(samples) >= template.snap_samples:
        request = SnapRequest(samples=tuple(samples), strategy="pick" if board.targets else "place")
        result = evaluate_request(
            request, board.targets, board.areas, threshold=template.stability_threshold
        )
        # a result carries the gate's mean; only a failed gate needs its own
        mean = result.mean_point if result else stability_gate(samples, template.stability_threshold).mean
        error = euclidean_error(mean, PlanarPoint(aimed_uv.u, aimed_uv.v, 0.0))
    success = bool(result and result.selected_id == aimed.id)
    if not board.targets and result is not None and result.fallback_used:
        success = False
    return TrialResult(
        trial_id=trial_id,
        ground_truth_uv=aimed_uv,
        gestured_mean=mean,
        error=error,
        selected_id=result.selected_id if result else None,
        success=success,
        fallback_used=bool(result and result.fallback_used),
    )


def run_pick_sweep(
    template: ScenarioTemplate,
    distances: Sequence[float] = PICK_DISTANCES,
    trials_per_target: int = DEFAULT_TRIALS_PER_TARGET,
    base_seed: int = 0,
) -> SweepReport:
    """Pick boards over a series of square side lengths, 10 trials per bolt by
    default; success means the aimed bolt was selected."""
    size = template_plane_size(template)
    boards = [make_board("pick_square", l, plane_size=size) for l in distances]
    return run_boards(template, boards, trials_per_target, base_seed)


def run_place_sweep(
    template: ScenarioTemplate,
    sizes: Sequence[float] = PLACE_SIZES,
    trials_per_area: int = DEFAULT_TRIALS_PER_TARGET,
    base_seed: int = 0,
) -> SweepReport:
    """Place boards over a series of area sizes; per-trial offsets from the
    area centers are retained for downstream analysis."""
    size = template_plane_size(template)
    boards = [make_board("place_areas", l, plane_size=size) for l in sizes]
    return run_boards(template, boards, trials_per_area, base_seed)


def run_quantitative(
    template: ScenarioTemplate,
    trials_per_target: int = DEFAULT_TRIALS_PER_TARGET,
    base_seed: int = 0,
) -> SweepReport:
    """The ten-target accuracy board, selection via the pick strategy."""
    board = make_board("quantitative_10", plane_size=template_plane_size(template))
    return run_boards(template, [board], trials_per_target, base_seed)


def run_boards(
    template: ScenarioTemplate,
    boards: Sequence[BoardLayout],
    trials_per_target: int = DEFAULT_TRIALS_PER_TARGET,
    base_seed: int = 0,
) -> SweepReport:
    """Sweep over board layouts, generated or measured; the report takes the
    first board's kind."""
    if not boards:
        raise EvalError("no boards to run")
    if not 1 <= template.snap_samples <= template.frames_per_trial:
        raise InvalidParametersError(
            f"snap sample count must be in 1..{template.frames_per_trial} "
            f"(frames per trial), got {template.snap_samples}"
        )
    if template.window < 1 or trials_per_target < 1:
        raise InvalidParametersError(
            f"window and trials per target must be >= 1, got {template.window} and {trials_per_target}"
        )
    runs = [
        (board, e_idx, entity, k)
        for board in boards
        for e_idx, entity in enumerate(board.targets or board.areas)
        for k in range(trials_per_target)
    ]
    joints = [
        sample_joint_positions(template.scenario_for(
            from_workplane(_aimed_uv(entity), template.frame),
            _derived_seed(base_seed, _KIND_CODES.get(board.kind, 9), e_idx, k),
        ))
        for board, e_idx, entity, k in runs
    ]
    points, counts = stabilize_trials(template, *(np.concatenate(j) for j in zip(*joints)))
    trials = [
        run_trial(
            template, board, entity, f"{board.kind}-{board.parameter}-{entity.id}-{k}",
            [PlanarPoint(*p) for p in points[i, :counts[i]][-template.snap_samples:].tolist()],
        )
        for i, (board, _, entity, k) in enumerate(runs)
    ]
    cells = [
        SweepCell(kind=board.kind, l=board.parameter, target_id=entity.id,
                  trials=tuple(trials[i:i + trials_per_target]))
        for i, (board, _, entity, _) in enumerate(runs)
        if i % trials_per_target == 0
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


def template_plane_size(template: ScenarioTemplate) -> tuple[float, float]:
    """Workplane extent implied by the template's plane corners (u, v spans)."""
    uv = corners_in_frame(template.plane, template.frame)
    us = [p[0] for p in uv]
    vs = [p[1] for p in uv]
    return (max(us) - min(us), max(vs) - min(vs))


# --- calibration -----------------------------------------------------------


def mean_intersection_error(
    template: ScenarioTemplate,
    target_world: Point3,
    sigma: float,
    *,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Mean Euclidean error of raw per-frame ray-plane intersections against
    the aimed target, vectorized.

    This is the ensemble error over trials: each sample is the one frame of
    its own trial from the generator's sampler
    (:func:`~gesturepoint.stream.sample_joint_positions`), with its own aim
    bias (when the template has one) and joint noise. Frames whose ray misses
    the plane (parallel, or hit not beyond the wrist) are excluded from the
    mean.
    """
    scenario = dataclasses.replace(template, sigma=sigma).scenario_for(target_world, seed)
    shoulders, wrists = sample_joint_positions(scenario, trials=samples, frames=1)
    hits, valid = intersect_rays_plane(shoulders[:, 0], wrists[:, 0], template.plane)
    if not valid.any():
        raise EvalError("no ray reached the plane; scenario geometry is off")
    target = np.array(target_world.as_tuple())
    return float(np.linalg.norm(hits[valid] - target, axis=1).mean())


def calibrate_sigma(
    target_mean_error: float,
    template: ScenarioTemplate,
    target_world: Point3 | None = None,
    *,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Bisect the joint-noise sigma until the simulated mean intersection
    error lands within ``CALIBRATION_REL_TOL`` of ``target_mean_error``.

    The same seed is reused for every sigma evaluation (common random
    numbers), which keeps the objective smooth and monotone.
    """
    if target_mean_error < 0:
        raise EvalError(f"target mean error must be >= 0, got {target_mean_error}")
    if target_mean_error == 0:
        return 0.0
    if target_world is None:
        cs = template.plane.corners
        target_world = Point3(
            sum(c.x for c in cs) / 4, sum(c.y for c in cs) / 4, sum(c.z for c in cs) / 4
        )

    def f(sigma: float) -> float:
        return mean_intersection_error(
            template, target_world, sigma, samples=samples, seed=seed
        )

    floor = f(0.0)
    if floor > target_mean_error * (1.0 + CALIBRATION_REL_TOL):
        raise NonConvergenceError(
            f"aim bias alone yields {floor:.4f} m mean error, above the "
            f"{target_mean_error} m target; no joint-noise sigma can reach it"
        )
    lo, hi = 0.0, target_mean_error
    for _ in range(CALIBRATION_MAX_ITER):
        if f(hi) >= target_mean_error:
            break
        hi *= 2.0
    else:
        raise NonConvergenceError(
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
    raise NonConvergenceError(
        f"bisection did not reach {CALIBRATION_REL_TOL:.0%} of {target_mean_error} m "
        f"in {CALIBRATION_MAX_ITER} iterations"
    )


# --- report emission --------------------------------------------------------


def _round4(x: float | None) -> float | None:
    return None if x is None else round(x, 4)


def _round2(x: float) -> float:
    return round(x, 2)


def _cell_row(cell: SweepCell, report: SweepReport) -> dict:
    errors = cell.errors
    mean_err = _round4(sum(errors) / len(errors)) if errors else None
    std_err = _round4(statistics.pstdev(errors)) if errors else None
    du, dv = cell.offset_means()
    return {
        "kind": cell.kind,
        "l_m": _round4(cell.l),
        "target_id": cell.target_id,
        "trials": len(cell.trials),
        "successes": cell.successes,
        "success_pct": _round2(cell.success_pct),
        "mean_err_m": mean_err,
        "std_err_m": std_err,
        "fallback_pct": _round2(cell.fallback_pct),
        "mean_du_m": _round4(du),
        "mean_dv_m": _round4(dv),
        "sigma_m": _round4(report.sigma),
        "seed": report.seed,
    }


def _fmt_csv(value, column: str) -> str:
    if value is None:
        return ""
    if column in ("success_pct", "fallback_pct"):
        return format(value, ".2f")
    if column.endswith("_m"):
        return format(value, ".4f")
    return str(value)


def emit_report(report: SweepReport, format: str) -> str:
    """Render a sweep report as 'csv' (cell aggregates) or 'json' (aggregates
    plus per-trial offsets). Values shared between the two formats are
    identical; reruns with the same config are byte-identical."""
    rows = [_cell_row(cell, report) for cell in report.cells]
    if format == "csv":
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            buf.write(",".join(_fmt_csv(row[c], c) for c in CSV_COLUMNS) + "\n")
        return buf.getvalue()
    if format == "json":
        doc = {
            "kind": report.kind,
            "config": {
                "sigma_m": report.sigma,
                "seed": report.seed,
                "snap_samples": report.snap_samples,
                "trials_per_target": report.trials_per_target,
                "stability_threshold_m": report.stability_threshold,
                "source": "synthetic",
            },
            "cells": [],
        }
        for row, cell in zip(rows, report.cells):
            entry = dict(row)
            entry["trials_detail"] = [
                {
                    "trial": t.trial_id,
                    "du_m": _round4(t.gestured_mean.u - t.ground_truth_uv.u)
                    if t.gestured_mean is not None else None,
                    "dv_m": _round4(t.gestured_mean.v - t.ground_truth_uv.v)
                    if t.gestured_mean is not None else None,
                    "err_m": _round4(t.error),
                    "selected": t.selected_id,
                    "success": t.success,
                    "fallback": t.fallback_used,
                }
                for t in cell.trials
            ]
            doc["cells"].append(entry)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise UnsupportedFormatError(f"unsupported report format {format!r}")
