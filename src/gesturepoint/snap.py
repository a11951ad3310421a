"""Target-selection strategies over stabilized gesture points.

Two concrete strategies share a stability gate (all N samples within a radial
threshold of their mean, strict ``<``):

* pick: nearest registered target to the sample mean by Euclidean distance,
  optionally restricted to a target group first.
* place: the area whose rectangle contains the mean; when the mean is out of
  every area, the nearest area center wins (``fallback_used``).

Ties (equidistant targets, overlapping areas) break deterministically by
distance then lexicographic id. ``evaluate_request`` is the one dispatch from
a SnapRequest to a strategy; it is pure over the tuples it is given. Layouts
load once: a registry validates and sorts its items in ``replace_all`` and
hands every reader the same immutable tuple.

Layout file format (meters, workplane frame; every number finite, half
extents > 0):

    {"targets": [{"id": "b1", "label": "big_bolt_1", "group": "big_bolt",
                  "u": 0.2, "v": 0.3}],
     "areas":   [{"id": "a1", "cu": 0.3, "cv": 0.4, "hu": 0.1, "hv": 0.1}]}
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geometry import PlanarPoint, planar_mean

DEFAULT_STABILITY_THRESHOLD = 0.05
DEFAULT_SAMPLE_COUNT = 15


class SnapError(ValueError):
    pass


class EmptySamplesError(SnapError):
    pass


class EmptyRegistryError(SnapError):
    pass


class EmptyAreasError(SnapError):
    pass


class DuplicateIdError(SnapError):
    pass


class UnknownIdError(SnapError):
    pass


class MalformedFileError(SnapError):
    pass


def _finite_uv(p: PlanarPoint) -> bool:
    return math.isfinite(p.u) and math.isfinite(p.v)


@dataclass(frozen=True)
class Target:
    id: str
    label: str
    position: PlanarPoint
    group: str | None = None

    def __post_init__(self) -> None:
        if not _finite_uv(self.position):
            raise SnapError(f"target {self.id!r} position must be finite, got {self.position}")


@dataclass(frozen=True)
class Area:
    id: str
    center: PlanarPoint
    half_extent: tuple[float, float]

    def __post_init__(self) -> None:
        if not _finite_uv(self.center):
            raise SnapError(f"area {self.id!r} center must be finite, got {self.center}")
        hu, hv = self.half_extent
        if not (0 < hu < math.inf and 0 < hv < math.inf):  # NaN fails too
            raise SnapError(
                f"area {self.id!r} half_extent must be positive and finite, got {self.half_extent}"
            )

    def contains(self, p: PlanarPoint) -> bool:
        """Axis-aligned containment in (u, v); the boundary counts as inside."""
        return (
            abs(p.u - self.center.u) <= self.half_extent[0]
            and abs(p.v - self.center.v) <= self.half_extent[1]
        )


@dataclass(frozen=True)
class SnapRequest:
    samples: tuple[PlanarPoint, ...]
    strategy: str
    group_filter: str | None = None


@dataclass(frozen=True)
class GateResult:
    mean: PlanarPoint
    max_deviation: float
    stable: bool


@dataclass(frozen=True)
class SnapResult:
    selected_id: str
    mean_point: PlanarPoint
    max_radial_deviation: float
    fallback_used: bool
    distance_to_selected: float


def _distance_uv(a: PlanarPoint, b: PlanarPoint) -> float:
    return math.hypot(a.u - b.u, a.v - b.v)


def stability_gate(
    samples: Sequence[PlanarPoint], threshold: float = DEFAULT_STABILITY_THRESHOLD
) -> GateResult:
    """Mean the samples and check every radial deviation is < threshold."""
    if not samples:
        raise EmptySamplesError("stability gate needs at least one sample")
    mean = planar_mean(samples)
    max_dev = max(_distance_uv(p, mean) for p in samples)
    return GateResult(mean=mean, max_deviation=max_dev, stable=max_dev < threshold)


def pick_snap(
    samples: Sequence[PlanarPoint],
    targets: Sequence[Target],
    *,
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
    group: str | None = None,
) -> SnapResult | None:
    """Select the nearest target to the stable sample mean, or None.

    None means no selection: the gate failed or the group filter matched
    nothing. The nearest target is selected however far away it is.
    """
    if not targets:
        raise EmptyRegistryError("no targets registered")
    candidates = [t for t in targets if group is None or t.group == group]
    if not candidates:
        return None
    gate = stability_gate(samples, threshold)
    if not gate.stable:
        return None
    best = min(candidates, key=lambda t: (_distance_uv(gate.mean, t.position), t.id))
    return SnapResult(
        selected_id=best.id,
        mean_point=gate.mean,
        max_radial_deviation=gate.max_deviation,
        fallback_used=False,
        distance_to_selected=_distance_uv(gate.mean, best.position),
    )


def place_snap(
    samples: Sequence[PlanarPoint],
    areas: Sequence[Area],
    *,
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
) -> SnapResult | None:
    """Select the area containing the stable sample mean, else the nearest
    area center (fallback), or None when the gate fails."""
    if not areas:
        raise EmptyAreasError("no areas registered")
    gate = stability_gate(samples, threshold)
    if not gate.stable:
        return None
    containing = [a for a in areas if a.contains(gate.mean)]
    pool = containing if containing else list(areas)
    best = min(pool, key=lambda a: (_distance_uv(gate.mean, a.center), a.id))
    return SnapResult(
        selected_id=best.id,
        mean_point=gate.mean,
        max_radial_deviation=gate.max_deviation,
        fallback_used=not containing,
        distance_to_selected=_distance_uv(gate.mean, best.center),
    )


def evaluate_request(
    request: SnapRequest,
    targets: Sequence[Target],
    areas: Sequence[Area],
    *,
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
) -> SnapResult | None:
    """Dispatch a SnapRequest to the strategy it names."""
    if request.strategy == "pick":
        return pick_snap(request.samples, targets, threshold=threshold, group=request.group_filter)
    if request.strategy == "place":
        return place_snap(request.samples, areas, threshold=threshold)
    raise SnapError(f"unknown strategy {request.strategy!r}")


class Registry:
    """Load-once targets or areas: ``replace_all`` rejects duplicate ids,
    sorts by id and binds the new tuple in one assignment; ``snapshot``
    returns that tuple. Nothing mutates it in place, so readers need no lock."""

    def __init__(self) -> None:
        self._items: tuple = ()

    def replace_all(self, items: Iterable) -> None:
        staged: dict[str, object] = {}
        for item in items:
            if item.id in staged:
                raise DuplicateIdError(f"id {item.id!r} appears twice")
            staged[item.id] = item
        self._items = tuple(staged[k] for k in sorted(staged))

    def snapshot(self) -> tuple:
        return self._items


TargetRegistry = AreaRegistry = Registry


def _target_from_dict(spec: dict) -> Target:
    try:
        return Target(
            id=str(spec["id"]),
            label=str(spec.get("label", spec["id"])),
            position=PlanarPoint(u=float(spec["u"]), v=float(spec["v"])),
            group=None if spec.get("group") in (None, "") else str(spec["group"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"bad target entry {spec!r}: {exc}") from exc


def _area_from_dict(spec: dict) -> Area:
    try:
        return Area(
            id=str(spec["id"]),
            center=PlanarPoint(u=float(spec["cu"]), v=float(spec["cv"])),
            half_extent=(float(spec["hu"]), float(spec["hv"])),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"bad area entry {spec!r}: {exc}") from exc


def parse_layout(doc: dict) -> tuple[list[Target], list[Area]]:
    if not isinstance(doc, dict):
        raise MalformedFileError("layout file must hold a JSON object")
    targets = [_target_from_dict(t) for t in doc.get("targets", [])]
    areas = [_area_from_dict(a) for a in doc.get("areas", [])]
    return targets, areas


def load_layout(path: str | os.PathLike) -> tuple[list[Target], list[Area]]:
    """Read a targets/areas JSON document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{path}: invalid JSON: {exc}") from exc
    return parse_layout(doc)


def layout_document(
    targets: Sequence[Target], areas: Sequence[Area], extra: dict | None = None
) -> dict:
    doc = dict(extra or {})
    doc["targets"] = [
        {"id": t.id, "label": t.label, "group": t.group, "u": t.position.u, "v": t.position.v}
        for t in targets
    ]
    doc["areas"] = [
        {"id": a.id, "cu": a.center.u, "cv": a.center.v, "hu": a.half_extent[0], "hv": a.half_extent[1]}
        for a in areas
    ]
    return doc


def save_layout(
    path: str | os.PathLike,
    targets: Sequence[Target],
    areas: Sequence[Area],
    extra: dict | None = None,
) -> None:
    """Write a layout document atomically (write-then-rename)."""
    doc = layout_document(targets, areas, extra)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

