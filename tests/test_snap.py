"""Snap strategy tests: stability gate arithmetic, nearest-target and
area-containment selection, registries and layout files."""

from __future__ import annotations

import json
import math
import sys
import threading

import numpy as np
import pytest

from gesturepoint.geometry import PlanarPoint
from gesturepoint.snap import (
    Area,
    AreaRegistry,
    DuplicateIdError,
    EmptyAreasError,
    EmptyRegistryError,
    EmptySamplesError,
    MalformedFileError,
    SnapRequest,
    Target,
    TargetRegistry,
    evaluate_request,
    load_layout,
    pick_snap,
    place_snap,
    save_layout,
    stability_gate,
)


def pts(*pairs) -> list[PlanarPoint]:
    return [PlanarPoint(u, v) for u, v in pairs]


def cluster(center, count=15, spread=0.001, seed=0) -> list[PlanarPoint]:
    rng = np.random.default_rng(seed)
    return [
        PlanarPoint(center[0] + rng.uniform(-spread, spread), center[1] + rng.uniform(-spread, spread))
        for _ in range(count)
    ]


# --- stability gate ------------------------------------------------------------


def test_gate_identical_samples_stable():
    gate = stability_gate(pts(*[(0.2, 0.3)] * 15))
    assert gate.stable
    assert (gate.mean.u, gate.mean.v) == (0.2, 0.3)
    assert gate.max_deviation == 0.0


def test_gate_single_outlier_breaks_it():
    samples = pts(*[(0.2, 0.3)] * 14, (0.2, 0.37))
    gate = stability_gate(samples)
    mean_v = (14 * 0.3 + 0.37) / 15
    assert gate.mean.v == pytest.approx(mean_v, abs=1e-15)
    # the outlier sits ~6.53 cm from the mean it pulled ~0.47 cm toward itself
    assert gate.max_deviation == pytest.approx(0.37 - mean_v, abs=1e-12)
    assert gate.max_deviation > 0.06
    assert not gate.stable


def test_gate_threshold_flip():
    samples = pts((0.0, 0.0), (0.08, 0.0))  # both 4 cm from the mean
    assert stability_gate(samples, threshold=0.05).stable
    assert not stability_gate(samples, threshold=0.03).stable


def test_gate_boundary_is_strict_less_than():
    samples = pts((0.0, 0.0), (0.1, 0.0))  # deviations exactly 0.05
    gate = stability_gate(samples, threshold=0.05)
    assert gate.max_deviation == 0.05
    assert not gate.stable


def test_gate_empty_samples():
    with pytest.raises(EmptySamplesError):
        stability_gate([])


# --- pick ------------------------------------------------------------------


TARGETS = (
    Target(id="t1", label="near", position=PlanarPoint(0.1, 0.1)),
    Target(id="t2", label="far", position=PlanarPoint(0.5, 0.5)),
)


def test_pick_selects_nearest():
    result = pick_snap(cluster((0.12, 0.11)), TARGETS)
    assert result.selected_id == "t1"
    assert not result.fallback_used
    assert result.distance_to_selected == pytest.approx(
        math.hypot(result.mean_point.u - 0.1, result.mean_point.v - 0.1)
    )


def test_pick_unstable_returns_none():
    samples = pts(*[(0.1, 0.1)] * 14, (0.1, 0.25))
    assert pick_snap(samples, TARGETS) is None


def test_pick_empty_registry_raises():
    with pytest.raises(EmptyRegistryError):
        pick_snap(cluster((0.1, 0.1)), [])


def test_pick_group_filter():
    targets = (
        Target(id="b1", label="big 1", position=PlanarPoint(0.1, 0.1), group="big_bolt"),
        Target(id="s1", label="small 1", position=PlanarPoint(0.12, 0.1), group="small_bolt"),
    )
    # s1 is nearer, but the group filter rules it out first
    result = pick_snap(cluster((0.13, 0.1)), targets, group="big_bolt")
    assert result.selected_id == "b1"
    assert pick_snap(cluster((0.13, 0.1)), targets, group="no_such_group") is None


def test_pick_tie_breaks_by_id():
    targets = (
        Target(id="b", label="b", position=PlanarPoint(0.1, 0.0)),
        Target(id="a", label="a", position=PlanarPoint(-0.1, 0.0)),
    )
    result = pick_snap(pts(*[(0.0, 0.0)] * 15), targets)
    assert result.selected_id == "a"


def test_pick_matches_exhaustive_scan_oracle():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n_targets = rng.integers(1, 50)
        targets = [
            Target(id=f"t{i:02d}", label="", position=PlanarPoint(*rng.uniform(0, 1, 2)))
            for i in range(n_targets)
        ]
        mean = rng.uniform(0, 1, 2)
        samples = [PlanarPoint(*(mean + rng.uniform(-0.01, 0.01, 2))) for _ in range(15)]
        result = pick_snap(samples, targets)
        assert result is not None
        best_dist = min(
            math.hypot(t.position.u - result.mean_point.u, t.position.v - result.mean_point.v)
            for t in targets
        )
        winners = sorted(
            t.id
            for t in targets
            if math.hypot(t.position.u - result.mean_point.u, t.position.v - result.mean_point.v)
            == best_dist
        )
        assert result.selected_id == winners[0]


def test_pick_translation_equivariance():
    rng = np.random.default_rng(37)
    for _ in range(200):
        targets = [
            Target(id=f"t{i}", label="", position=PlanarPoint(*rng.uniform(0, 1, 2)))
            for i in range(8)
        ]
        samples = [PlanarPoint(*rng.uniform(0.4, 0.6, 2)) for _ in range(15)]
        du, dv = rng.uniform(-3, 3, 2)
        moved_targets = [
            Target(id=t.id, label=t.label, position=PlanarPoint(t.position.u + du, t.position.v + dv))
            for t in targets
        ]
        moved_samples = [PlanarPoint(p.u + du, p.v + dv) for p in samples]
        base = pick_snap(samples, targets)
        moved = pick_snap(moved_samples, moved_targets)
        assert (base is None) == (moved is None)
        if base is not None:
            assert base.selected_id == moved.selected_id


# --- place ------------------------------------------------------------------

AREAS = (
    Area(id="a1", center=PlanarPoint(0.2, 0.2), half_extent=(0.1, 0.1)),
    Area(id="a2", center=PlanarPoint(0.5, 0.5), half_extent=(0.1, 0.1)),
)


def test_place_containment():
    result = place_snap(pts(*[(0.22, 0.19)] * 15), AREAS)
    assert result.selected_id == "a1"
    assert not result.fallback_used


def test_place_boundary_counts_as_containment():
    result = place_snap(pts(*[(0.3, 0.2)] * 15), AREAS)  # exactly on a1's edge
    assert result.selected_id == "a1"
    assert not result.fallback_used


def test_place_fallback_nearest_center():
    result = place_snap(pts(*[(0.35, 0.34)] * 15), AREAS)
    assert result.fallback_used
    assert result.selected_id == "a1"


def test_place_fallback_exact_tie_breaks_by_id():
    # dyadic coordinates so both center distances are bit-identical
    areas = (
        Area(id="a2", center=PlanarPoint(0.25, 0.25), half_extent=(0.1, 0.1)),
        Area(id="a1", center=PlanarPoint(0.75, 0.75), half_extent=(0.1, 0.1)),
    )
    result = place_snap(pts(*[(0.5, 0.5)] * 15), areas)
    assert result.fallback_used
    assert result.selected_id == "a1"


def test_place_unstable_and_empty():
    assert place_snap(pts(*[(0.2, 0.2)] * 14, (0.2, 0.35)), AREAS) is None
    with pytest.raises(EmptyAreasError):
        place_snap(pts((0.2, 0.2)), [])


def test_place_overlapping_areas_tie_by_center_distance_then_id():
    overlapping = (
        Area(id="z", center=PlanarPoint(0.25, 0.30), half_extent=(0.3, 0.3)),
        Area(id="y", center=PlanarPoint(0.75, 0.30), half_extent=(0.3, 0.3)),
    )
    inside_both_closer_to_z = place_snap(pts(*[(0.30, 0.30)] * 15), overlapping)
    assert inside_both_closer_to_z.selected_id == "z"
    assert not inside_both_closer_to_z.fallback_used
    equidistant = place_snap(pts(*[(0.5, 0.30)] * 15), overlapping)
    assert equidistant.selected_id == "y"  # exact tie on distance, lexicographic id
    assert not equidistant.fallback_used


def test_place_containment_fallback_dichotomy():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        areas = [
            Area(
                id=f"a{i}",
                center=PlanarPoint(*rng.uniform(0, 1, 2)),
                half_extent=tuple(rng.uniform(0.03, 0.2, 2)),
            )
            for i in range(rng.integers(1, 8))
        ]
        samples = cluster(rng.uniform(0, 1, 2), seed=int(rng.integers(0, 2**31)))
        result = place_snap(samples, areas)
        assert result is not None
        selected = next(a for a in areas if a.id == result.selected_id)
        assert result.fallback_used == (not selected.contains(result.mean_point))


def test_group_filter_monotonicity():
    rng = np.random.default_rng(53)
    groups = ("alpha", "beta", None)
    for _ in range(300):
        targets = [
            Target(
                id=f"t{i}",
                label="",
                position=PlanarPoint(*rng.uniform(0, 1, 2)),
                group=groups[rng.integers(0, 3)],
            )
            for i in range(10)
        ]
        samples = cluster(rng.uniform(0, 1, 2), seed=int(rng.integers(0, 2**31)))
        group = groups[rng.integers(0, 2)]
        result = pick_snap(samples, targets, group=group)
        if result is not None:
            selected = next(t for t in targets if t.id == result.selected_id)
            assert selected.group == group


def test_evaluate_request_dispatch():
    samples = tuple(cluster((0.15, 0.15)))
    pick = evaluate_request(SnapRequest(samples, "pick"), TARGETS, AREAS)
    assert pick.selected_id == "t1"
    place = evaluate_request(SnapRequest(samples, "place"), TARGETS, AREAS)
    assert place.selected_id == "a1"
    with pytest.raises(Exception, match="unknown strategy"):
        evaluate_request(SnapRequest(samples, "sideways"), TARGETS, AREAS)


def test_gate_soundness_of_both_strategies():
    rng = np.random.default_rng(43)
    for _ in range(300):
        samples = [PlanarPoint(*rng.uniform(0, 1, 2)) for _ in range(15)]
        gate = stability_gate(samples)
        pick = pick_snap(samples, TARGETS)
        place = place_snap(samples, AREAS)
        if not gate.stable:
            assert pick is None and place is None
        else:
            assert pick is not None and place is not None


# --- registries and files -----------------------------------------------------


def test_registry_replace_all_rejects_duplicate_ids():
    reg = TargetRegistry()
    t1 = Target(id="t1", label="one", position=PlanarPoint(0.1, 0.1))
    reg.replace_all([t1])
    with pytest.raises(DuplicateIdError):
        reg.replace_all([Target(id="t2", label="", position=PlanarPoint(0, 0)), t1,
                         Target(id="t1", label="dup", position=PlanarPoint(0.2, 0.2))])
    assert reg.snapshot() == (t1,)  # a rejected load leaves the old layout in place
    assert TargetRegistry().snapshot() == () and AreaRegistry is TargetRegistry


def test_registry_snapshot_sorted_and_isolated():
    reg = TargetRegistry()
    reg.replace_all([Target(id=i, label="", position=PlanarPoint(0, 0)) for i in "bca"])
    snap = reg.snapshot()
    assert isinstance(snap, tuple) and [t.id for t in snap] == ["a", "b", "c"]
    assert reg.snapshot() is snap  # sorted once at load, shared by every reader
    reg.replace_all([Target(id="z", label="", position=PlanarPoint(0, 0))])
    assert [t.id for t in snap] == ["a", "b", "c"]  # an earlier snapshot never changes
    assert [t.id for t in reg.snapshot()] == ["z"]


def test_layout_file_round_trip(tmp_path):
    path = tmp_path / "layout.json"
    targets = [Target(id="t1", label="bolt", position=PlanarPoint(0.2, 0.3), group="big")]
    areas = [Area(id="a1", center=PlanarPoint(0.3, 0.4), half_extent=(0.05, 0.1))]
    save_layout(path, targets, areas)
    loaded_targets, loaded_areas = load_layout(path)
    assert loaded_targets == targets
    assert loaded_areas == areas


def test_layout_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedFileError):
        load_layout(path)
    path.write_text(json.dumps({"targets": [{"id": "x"}]}), encoding="utf-8")
    with pytest.raises(MalformedFileError):
        load_layout(path)


def test_strategies_share_registry_snapshots():
    targets, areas = TargetRegistry(), AreaRegistry()
    targets.replace_all([Target(id="t1", label="", position=PlanarPoint(0.1, 0.1))])
    areas.replace_all([Area(id="a1", center=PlanarPoint(0.2, 0.2), half_extent=(0.1, 0.1))])
    shared_targets, shared_areas = targets.snapshot(), areas.snapshot()
    samples = tuple(cluster((0.15, 0.15)))
    results = {}

    def run(name, strategy):
        request = SnapRequest(samples=samples, strategy=strategy)
        results[name] = [
            evaluate_request(request, shared_targets, shared_areas) for _ in range(200)
        ]

    threads = [
        threading.Thread(target=run, args=(f"{strategy}{k}", strategy))
        for k in range(4)
        for strategy in ("pick", "place")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for name, got in results.items():
        want = "t1" if name.startswith("pick") else "a1"
        assert {r.selected_id for r in got} == {want}


def test_registry_readers_see_whole_layouts_during_replace_all():
    layouts = [
        [Target(id=f"{prefix}{i}", label="", position=PlanarPoint(0.01 * i, 0)) for i in range(20)]
        for prefix in ("a", "b")
    ]
    wanted = {tuple(sorted(layout, key=lambda t: t.id)) for layout in layouts}
    reg = TargetRegistry()
    reg.replace_all(layouts[0])
    stop = threading.Event()
    torn = []

    def write():
        k = 0
        while not stop.is_set():
            k += 1
            reg.replace_all(layouts[k % 2])

    def read():
        for _ in range(2000):
            snap = reg.snapshot()
            if snap not in wanted:
                torn.append(snap)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read) for _ in range(4)]
        writer.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=30)
        stop.set()
        writer.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not writer.is_alive() and not any(t.is_alive() for t in readers)
    assert torn == []


def test_area_validation():
    with pytest.raises(Exception):
        Area(id="bad", center=PlanarPoint(0, 0), half_extent=(0.0, 0.1))
