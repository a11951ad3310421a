"""Target-selection strategies over stabilized gesture points.

Two concrete strategies share a stability gate (all N samples within a radial
threshold of their mean, strict ``<``):

* pick: nearest registered target to the sample mean by Euclidean distance,
  optionally restricted to a target group first.
* place: the area whose rectangle contains the mean; when the mean is out of
  every area, the nearest area center wins (``fallback_used``).

Ties (equidistant targets, overlapping areas) break deterministically by
distance then lexicographic id, whatever the order of the entries given.
``evaluate_request`` is the one dispatch from a SnapRequest to a strategy,
pure over the tuples it is given; ``GesturePipeline.snap`` calls it. Layouts
load once: a registry validates and sorts its items in ``replace_all`` and
hands every reader the same immutable tuple.

Layout file format (meters, workplane frame; ids, labels and groups are JSON
strings, every number a finite JSON number, half extents > 0, ids unique):

    {"targets": [{"id": "b1", "label": "big_bolt_1", "group": "big_bolt",
                  "u": 0.2, "v": 0.3}],
     "areas":   [{"id": "a1", "cu": 0.3, "cv": 0.4, "hu": 0.1, "hv": 0.1}]}
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

from .geometry import FrozenValue, PlanarPoint, planar_mean
from .stream import decode_object, json_number, read_text, write_document

DEFAULT_STABILITY_THRESHOLD = 0.05
DEFAULT_SAMPLE_COUNT = 15


class SnapError(ValueError):
    pass


class DuplicateIdError(SnapError):
    pass


class MalformedFileError(SnapError):
    pass


class Target(FrozenValue):
    def __init__(self, id: str, label: str, position: PlanarPoint, group: str | None = None) -> None:
        d = self.__dict__
        d["id"], d["label"], d["position"], d["group"] = id, label, position, group


class Area(FrozenValue):
    def __init__(self, id: str, center: PlanarPoint, half_extent: tuple[float, float]) -> None:
        d = self.__dict__
        d["id"], d["center"], d["half_extent"] = id, center, half_extent

    def contains(self, p: PlanarPoint) -> bool:
        """Axis-aligned containment in (u, v); the boundary counts as inside."""
        return (
            abs(p.u - self.center.u) <= self.half_extent[0]
            and abs(p.v - self.center.v) <= self.half_extent[1]
        )


class SnapRequest(FrozenValue):
    def __init__(self, samples: tuple[PlanarPoint, ...], strategy: str, group_filter: str | None = None) -> None:
        d = self.__dict__
        d["samples"], d["strategy"], d["group_filter"] = samples, strategy, group_filter


class GateResult(FrozenValue):
    def __init__(self, mean: PlanarPoint, max_deviation: float, stable: bool) -> None:
        d = self.__dict__
        d["mean"], d["max_deviation"], d["stable"] = mean, max_deviation, stable


class SnapResult(FrozenValue):
    def __init__(self, selected_id: str, mean_point: PlanarPoint, max_radial_deviation: float,
                 fallback_used: bool) -> None:
        d = self.__dict__
        d["selected_id"], d["mean_point"] = selected_id, mean_point
        d["max_radial_deviation"], d["fallback_used"] = max_radial_deviation, fallback_used


def _distance_uv(a: PlanarPoint, b: PlanarPoint) -> float:
    return math.hypot(a.u - b.u, a.v - b.v)


def stability_gate(
    samples: Sequence[PlanarPoint], threshold: float = DEFAULT_STABILITY_THRESHOLD
) -> GateResult:
    """Mean the samples and check every radial deviation is < threshold."""
    if not samples:
        raise SnapError("stability gate needs at least one sample")
    mean = planar_mean(samples)
    mu, mv = mean.u, mean.v
    max_dev = max([math.hypot(p.u - mu, p.v - mv) for p in samples])
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
    nothing. A ``group`` of None or ``""`` filters nothing. The nearest
    target is selected however far away it is.
    """
    if not targets:
        raise SnapError("no targets registered")
    candidates = [t for t in targets if not group or t.group == group]
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
        raise SnapError("no areas registered")
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


def snap_fields(result: SnapResult | None) -> dict:
    """The ok/id/fallback fields that live's and replay's snap answers share."""
    if result is None:
        return {"ok": False, "id": None, "fallback": False}
    return {"ok": True, "id": result.selected_id, "fallback": result.fallback_used}


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


def _target_from_dict(spec) -> Target:
    if not (isinstance(spec, dict) and isinstance(spec.get("id"), str) and isinstance(spec.get("label", ""), str)
            and isinstance(spec.get("group"), (str, type(None)))):
        raise MalformedFileError("bad target entry: expected an object whose id, label and group are JSON strings")
    tid = spec["id"]
    return Target(id=tid, label=spec.get("label", tid), group=spec.get("group") or None,
                  position=PlanarPoint(u=json_number(spec.get("u"), MalformedFileError, "u of target", tid),
                                       v=json_number(spec.get("v"), MalformedFileError, "v of target", tid)))


def checked_half_extent(aid: str, hu: float, hv: float, error: type[ValueError]) -> tuple[float, float]:
    """The one check of an area's half extents, for the layout reader and
    ``registry add-area``: (hu, hv) once both are positive and finite, else
    ``error``."""
    if not (0 < hu < math.inf and 0 < hv < math.inf):  # NaN fails too
        raise error(f"area {aid!r} half_extent must be positive and finite, got {(hu, hv)}")
    return hu, hv


def _area_from_dict(spec) -> Area:
    if not (isinstance(spec, dict) and isinstance(spec.get("id"), str)):
        raise MalformedFileError("bad area entry: expected an object whose id is a JSON string")
    aid = spec["id"]
    center = PlanarPoint(u=json_number(spec.get("cu"), MalformedFileError, "cu of area", aid),
                         v=json_number(spec.get("cv"), MalformedFileError, "cv of area", aid))
    hu = json_number(spec.get("hu"), MalformedFileError, "hu of area", aid)
    hv = json_number(spec.get("hv"), MalformedFileError, "hv of area", aid)
    return Area(id=aid, center=center, half_extent=checked_half_extent(aid, hu, hv, MalformedFileError))


def parse_layout(doc: dict) -> tuple[list[Target], list[Area]]:
    """A layout document's targets and areas; an id repeated in either is malformed."""
    targets, areas = doc.get("targets", []), doc.get("areas", [])
    if not (isinstance(targets, list) and isinstance(areas, list)):
        raise MalformedFileError('layout "targets" and "areas" must be lists')
    targets, areas = [_target_from_dict(t) for t in targets], [_area_from_dict(a) for a in areas]
    try:
        Registry().replace_all(targets)
        Registry().replace_all(areas)
    except DuplicateIdError as exc:
        raise MalformedFileError(str(exc)) from exc
    return targets, areas


def load_layout(path: str | os.PathLike) -> tuple[list[Target], list[Area]]:
    """Read a targets/areas JSON document: an unreadable file raises
    ConfigError, any other fault MalformedFileError."""
    return parse_layout(decode_object(read_text(path), MalformedFileError, path))


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


def save_layout(path: str | os.PathLike, targets: Sequence[Target], areas: Sequence[Area]) -> None:
    """Write a layout document whole (``stream.write_document``)."""
    write_document(path, layout_document(targets, areas))
