"""Evaluation harness tests: error metric, boards, sweeps,
calibration, report emission."""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
import math
import statistics
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturepoint import evaluation
from gesturepoint.evaluation import (
    _KIND_CODES,
    CSV_COLUMNS,
    BoardLayout,
    EvalError,
    FRAMES_PER_TRIAL,
    InvalidParametersError,
    PICK_DISTANCES,
    ScenarioTemplate,
    SweepCell,
    SweepReport,
    TrialResult,
    _derived_seed,
    board_document,
    board_from_document,
    calibrate_sigma,
    draw_joint_noise,
    emit_report,
    euclidean_error,
    generate_scenario,
    ideal_wrists,
    intersect_rays_plane,
    make_board,
    mean_error_by_sigma,
    noisy_joints,
    run_boards,
    run_pick_sweep,
    run_place_sweep,
    stabilize_trials,
    standard_boards,
)
from gesturepoint.geometry import (
    ARM_SEPARATION_MIN,
    PARALLEL_TOL,
    PlanarPoint,
    Point3,
    Quaternion,
    WorkplaneFrame,
    edge_axes,
    from_workplane,
    plane_from_corners,
    to_workplane,
    workplane_frame,
)
from gesturepoint.pipeline import HISTORY_CAPACITY, GesturePipeline
from gesturepoint.snap import DEFAULT_STABILITY_THRESHOLD, Area, SnapRequest, Target, evaluate_request, stability_gate


# --- error metric ------------------------------------------------------------


def test_euclidean_error_345_triangle():
    assert euclidean_error(PlanarPoint(0, 0, 0), PlanarPoint(0.03, 0, 0.04)) == pytest.approx(0.05)
    assert euclidean_error(PlanarPoint(0.1, 0.1), PlanarPoint(0.13, 0.14)) == pytest.approx(0.05)


def test_euclidean_error_identity_and_symmetry():
    p = PlanarPoint(0.2, -0.4, 1.0)
    assert euclidean_error(p, p) == 0.0
    q = PlanarPoint(1.0, 0.5, -0.2)
    assert euclidean_error(p, q) == euclidean_error(q, p)


def test_euclidean_error_matches_componentwise_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rng.uniform(-5, 5, (2, 3))
        expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert euclidean_error(PlanarPoint(*a), PlanarPoint(*b)) == pytest.approx(expected, rel=1e-15)


def test_euclidean_error_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b, c = (PlanarPoint(*rng.uniform(-2, 2, 3)) for _ in range(3))
        assert euclidean_error(a, c) <= euclidean_error(a, b) + euclidean_error(b, c) + 1e-12


def test_euclidean_error_rigid_invariance_under_workplane_transform():
    rng = np.random.default_rng(15)
    plane = ScenarioTemplate.desk_default().plane
    frame = workplane_frame(plane)
    for _ in range(200):
        a = Point3(rng.uniform(0, 0.6), rng.uniform(0, 0.8), 0.0)
        b = Point3(rng.uniform(0, 0.6), rng.uniform(0, 0.8), 0.0)
        direct = math.dist(a.as_tuple(), b.as_tuple())
        planar = euclidean_error(to_workplane(a, frame), to_workplane(b, frame))
        assert abs(direct - planar) < 1e-9


# --- boards ------------------------------------------------------------------


def test_pick_board_geometry():
    board = make_board("pick_square", 0.10)
    positions = {t.id: (t.position.u, t.position.v) for t in board.targets}
    assert positions == {
        "B1": (0.35, 0.35000000000000003),
        "B2": (0.35, 0.45),
        "B3": (0.25, 0.35000000000000003),
        "B4": (0.25, 0.45),
    }
    sides = {t.id: t.group for t in board.targets}
    assert sides == {"B1": "right", "B2": "right", "B3": "left", "B4": "left"}


def test_place_board_disjoint_and_in_bounds():
    board = make_board("place_areas", 0.20)
    assert len(board.areas) == 3
    for a in board.areas:
        assert 0 <= a.center.u - a.half_extent[0] and a.center.u + a.half_extent[0] <= 0.60
        assert 0 <= a.center.v - a.half_extent[1] and a.center.v + a.half_extent[1] <= 0.80
    spans = sorted((a.center.v - a.half_extent[1], a.center.v + a.half_extent[1]) for a in board.areas)
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi1 < lo2  # strictly disjoint


def test_quantitative_board_layout():
    board = make_board("quantitative_10")
    assert len(board.targets) == 10
    us = sorted({t.position.u for t in board.targets})
    vs = sorted({t.position.v for t in board.targets})
    assert us == [0.1, 0.5]
    assert vs == pytest.approx([0.1, 0.25, 0.4, 0.55, 0.7])


def test_board_invalid_parameters():
    with pytest.raises(InvalidParametersError):
        make_board("pick_square", 0.90)
    with pytest.raises(InvalidParametersError):
        make_board("place_areas", 0.27)  # 3 x 0.27 m does not fit 0.80 m
    with pytest.raises(InvalidParametersError):
        make_board("pick_square")
    with pytest.raises(InvalidParametersError):
        make_board("mystery_board", 0.1)


def test_board_document_round_trip():
    board = make_board("pick_square", 0.08)
    doc = board_document(board)
    loaded = board_from_document(json.loads(json.dumps(doc)))
    assert loaded.kind == board.kind
    assert loaded.parameter == board.parameter
    assert loaded.targets == board.targets
    assert tuple(loaded.plane_size) == board.plane_size


# --- sweeps ------------------------------------------------------------------


def test_noiseless_pick_sweep_is_perfect():
    report = run_pick_sweep(
        ScenarioTemplate.desk_default(0.0), distances=(0.10, 0.02), trials_per_target=3, base_seed=5
    )
    assert all(row["success_pct"] == 100.0 for row in report.rows)
    assert all(len(cell.trials) == 3 for cell in report.cells)


def test_noiseless_place_sweep_is_perfect_without_fallback():
    report = run_place_sweep(
        ScenarioTemplate.desk_default(0.0), sizes=(0.20, 0.05), trials_per_area=3, base_seed=5
    )
    assert all(row["success_pct"] == 100.0 for row in report.rows)
    assert all(row["fallback_pct"] == 0.0 for row in report.rows)


def test_noiseless_quantitative_board():
    template = ScenarioTemplate.desk_default(0.0)
    report = run_boards(template, standard_boards("quantitative", template), trials_per_target=2, base_seed=5)
    assert len(report.cells) == 10
    assert all(row["success_pct"] == 100.0 for row in report.rows)


def test_sweeps_never_call_the_scalar_gate_or_snap(monkeypatch):
    """``snap_trials`` decides every trial itself: no sweep calls
    ``stability_gate`` or a snap. Two targets on one spot tie exactly, so
    each trial is a close call whose 15 deviations and 2 distances come from
    ``math.hypot``, and the id breaks the tie."""
    def scalar(*args, **kwargs):
        raise AssertionError("a sweep called the scalar gate or snap")

    scalar_names = ("stability_gate", "pick_snap", "place_snap", "evaluate_request")
    assert not set(scalar_names) & set(vars(evaluation))  # so patching them in snap reaches every caller
    for name in scalar_names:
        monkeypatch.setattr(f"gesturepoint.snap.{name}", scalar)
    hypot_calls = []
    hypot = math.hypot
    monkeypatch.setattr(math, "hypot", lambda *xy: hypot_calls.append(xy) or hypot(*xy))
    template = ScenarioTemplate.desk_default(0.0)
    run_pick_sweep(template, distances=(0.10,), trials_per_target=2, base_seed=5)
    run_place_sweep(template, sizes=(0.10,), trials_per_area=2, base_seed=5)
    assert hypot_calls == []  # clear decisions: no close call
    twins = BoardLayout("custom", None, tuple(
        Target(tid, tid, PlanarPoint(0.3, 0.4)) for tid in ("B", "A")), ())
    report = run_boards(template, [twins], trials_per_target=3, base_seed=5)
    assert len(hypot_calls) == 6 * (template.snap_samples + 2)
    assert [t.selected_id for c in report.cells for t in c.trials] == ["A"] * 6
    assert [c.target_id for c in report.cells] == ["B", "A"]
    assert [row["successes"] for row in report.rows] == [0, 3]
    # a failed gate selects nothing, yet the trial keeps its mean and error
    board = make_board("pick_square", 0.10)
    points = np.array([[[0.3, 0.4, 0.0]] * 14 + [[0.9, 0.4, 0.0]]])
    (result,) = evaluation.snap_trials(template, [board], np.zeros(1, int), [(board, 0, board.targets[0], 0)],
                                       points, np.array([15]))
    assert result.selected_id is None and not result.success
    assert result.gestured_mean == PlanarPoint(0.3 + 0.6 / 15, 0.4, 0.0)
    assert result.error == euclidean_error(result.gestured_mean, board.targets[0].position)


def test_an_exact_distance_tie_selects_the_smaller_id():
    """Two targets on one spot, listed "T2" then "T10": every trial ties
    exactly and selects "T10", the smaller id as strings compare, as
    ``evaluate_request``'s ``(distance, id)`` key does."""
    template = ScenarioTemplate.desk_default(0.0)
    twins = BoardLayout("custom", None, tuple(Target(tid, tid, PlanarPoint(0.3, 0.4)) for tid in ("T2", "T10")), ())
    report = run_boards(template, [twins], trials_per_target=2, base_seed=5)
    assert [t.selected_id for c in report.cells for t in c.trials] == ["T10"] * 4
    assert [row["successes"] for row in report.rows] == [0, 2]


def test_a_maximum_deviation_at_the_threshold_is_unstable():
    """The gate is a strict ``<``: with the threshold set to a trial's own
    maximum deviation (``math.hypot``'s) the trial selects nothing, and one
    ulp above it the trial snaps."""
    template = ScenarioTemplate.desk_default(0.01)
    board = make_board("pick_square", 0.10)
    aimed = board.targets[0]
    frames = generate_scenario(template, from_workplane(aimed.position, template.frame),
                               _derived_seed(9, _KIND_CODES[board.kind], 0, 0), FRAMES_PER_TRIAL)
    _, points = reference_trial(template, board, aimed, "t", frames)
    deviation = stability_gate(points[-template.snap_samples:]).max_deviation
    selected = []
    for threshold in (deviation, math.nextafter(deviation, math.inf)):
        report = run_boards(dataclasses.replace(template, stability_threshold=threshold), [board],
                            trials_per_target=1, base_seed=9)
        first = report.cells[0].trials[0]
        assert first.gestured_mean == stability_gate(points[-template.snap_samples:]).mean
        selected.append(first.selected_id)
    assert selected == [None, aimed.id]


def test_default_pick_sweep_counts_match_protocol():
    # 10 trials per cell; the five smallest distances put 50 trials on each bolt
    report = run_pick_sweep(
        ScenarioTemplate.desk_default(0.0), trials_per_target=10, base_seed=1
    )
    small = [c for c in report.cells if c.l <= 0.10]
    per_bolt: dict[str, int] = {}
    for cell in small:
        assert len(cell.trials) == 10
        per_bolt[cell.target_id] = per_bolt.get(cell.target_id, 0) + len(cell.trials)
    assert per_bolt == {"B1": 50, "B2": 50, "B3": 50, "B4": 50}
    assert len(report.cells) == len(PICK_DISTANCES) * 4


def test_sweep_success_not_increasing_in_sigma():
    tpl = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=0.019)
    rates = []
    for sigma in (0.004, 0.012):
        report = run_pick_sweep(
            dataclasses.replace(tpl, sigma=sigma),
            distances=(0.02,),
            trials_per_target=60,
            base_seed=33,
        )
        rates.append(report.success_by_l()[0.02])
    assert rates[1] <= rates[0] + 5.0  # Monte-Carlo slack


def test_sweep_rerun_is_identical():
    tpl = ScenarioTemplate.desk_default(0.008)
    a = run_pick_sweep(tpl, distances=(0.04,), trials_per_target=5, base_seed=77)
    b = run_pick_sweep(tpl, distances=(0.04,), trials_per_target=5, base_seed=77)
    assert emit_report(a, "json") == emit_report(b, "json")
    assert emit_report(a, "csv") == emit_report(b, "csv")


def _edge_entities(rng, mean, kind: str, place: bool) -> list:
    """Targets or areas around a trial's gate mean (None: no snap), with the
    decision edge ``kind`` puts on the mean: two entities on one spot (an
    exact tie), two mirrored about it (a tie up to rounding), or an area
    whose edge runs through it in u, in v or in both."""
    u, v = (0.3, 0.4) if mean is None else (mean.u, mean.v)
    spots = [(u + x, v + y) for x, y in rng.normal(0, 0.05, (int(rng.integers(1, 4)), 2)).tolist()]
    d = float(rng.uniform(1e-6, 0.05))
    if kind == "twins":
        spots += [spots[0]]
    elif kind == "mirror":
        spots += [(u + d, v), (u - d, v)]
    halves = [tuple(rng.uniform(0.005, 0.1, 2).tolist()) for _ in spots]
    if place and kind in ("edge_u", "edge_v", "corner"):
        cu, cv = spots[0]
        hu, hv = halves[0]
        halves[0] = (abs(u - cu) if kind != "edge_v" else max(hu, 2 * abs(u - cu)),
                     abs(v - cv) if kind != "edge_u" else max(hv, 2 * abs(v - cv)))
        if not halves[0][0] > 0 or not halves[0][1] > 0:
            halves[0] = (0.01, 0.01)
    ids = [str(len(spots) - j) for j in range(len(spots))]  # so a tie breaks against the list order
    if place:
        return [Area(f"A{i}", PlanarPoint(cu, cv), half) for i, (cu, cv), half in zip(ids, spots, halves)]
    return [Target(f"T{i}", "t", PlanarPoint(cu, cv)) for i, (cu, cv) in zip(ids, spots)]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    spread=st.sampled_from([0.0, 1e-3, 0.02, 0.2]),
    threshold_at=st.sampled_from(["plain", "at", "below", "above"]),
    kinds=st.lists(st.sampled_from(["plain", "twins", "mirror", "edge_u", "edge_v", "corner"]), min_size=1, max_size=6),
)
def test_array_gate_and_snap_equal_evaluate_request_trial_by_trial(seed, n, spread, threshold_at, kinds):
    """``snap_trials`` against :func:`scalar_trial` (``evaluate_request`` on
    the trial's last points) for every trial of a batch of one-board trials:
    the first trial's maximum deviation can sit exactly at the threshold or
    an ulp from it, and the entities put exact and rounded ties and area
    edges on the gate mean."""
    rng = np.random.default_rng(seed)
    frames = n + 3
    points = rng.normal(0, spread, (len(kinds), frames, 3)) + [0.3, 0.4, 0.0]
    counts = rng.choice([n - 1, n, frames, int(rng.integers(0, frames + 1))], len(kinds))
    counts[0] = frames
    if threshold_at != "plain" and n > 1 and spread > 0:
        # redraw the first trial until np.hypot rounds its maximum deviation unlike math.hypot
        for _ in range(5000):
            gate = stability_gate([PlanarPoint(*p) for p in points[0, -n:].tolist()])
            offsets = points[0, -n:, :2] - [gate.mean.u, gate.mean.v]
            if np.hypot(offsets[:, 0], offsets[:, 1]).max() != gate.max_deviation:
                break
            points[0] = rng.normal(0, spread, (frames, 3)) + [0.3, 0.4, 0.0]
    samples = [[PlanarPoint(*p) for p in points[k, :c][-n:].tolist()] for k, c in enumerate(counts.tolist())]
    gates = [stability_gate(s) if len(s) >= n else None for s in samples]
    threshold = DEFAULT_STABILITY_THRESHOLD
    if gates[0] is not None and gates[0].max_deviation > 0 and threshold_at != "plain":
        deviation = gates[0].max_deviation
        threshold = {"at": deviation, "below": math.nextafter(deviation, math.inf),
                     "above": math.nextafter(deviation, 0.0)}[threshold_at]
    template = ScenarioTemplate.desk_default(0.0, snap_samples=n, stability_threshold=threshold)
    boards, runs = [], []
    for k, kind in enumerate(kinds):
        entities = _edge_entities(rng, gates[k] and gates[k].mean, kind, place=bool(rng.integers(2)))
        board = BoardLayout("pick_square" if isinstance(entities[0], Target) else "place_areas", None,
                            tuple(e for e in entities if isinstance(e, Target)),
                            tuple(e for e in entities if isinstance(e, Area)))
        boards.append(board)
        runs.append((board, 0, entities[int(rng.integers(len(entities)))], k))
    got = evaluation.snap_trials(template, boards, np.arange(len(kinds)), runs, points, counts)
    for (board, _, entity, k), result, trial_samples in zip(runs, got, samples):
        assert result == scalar_trial(template, board, entity, result.trial_id, trial_samples)


# doubles whose ``x ** 2`` (the C library's ``pow``) differed from ``x * x`` on
# one glibc; any x is a valid input elsewhere
POW_ROUNDS_APART = (-0.016989283321025218, -0.0018380501578693187, -9.342045199082216e-07,
                    0.041384671915959084, 0.0008087626066796805, 0.0038474772126138503)
offsets = st.one_of(st.sampled_from(POW_ROUNDS_APART), st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(offsets, offsets, offsets, st.floats(0.0, 0.6), st.floats(0.0, 0.8)), min_size=1, max_size=8))
def test_array_error_equals_euclidean_error_bit_for_bit(cases):
    """Each trial's error, one array expression over all trials, equals
    ``euclidean_error`` of its mean and the aimed ``(u, v, 0)`` bit for
    bit; both square by multiplication, never ``**``, whose ``pow`` can
    round a square differently, as it does for ``POW_ROUNDS_APART``."""
    template = ScenarioTemplate.desk_default(0.0, snap_samples=1)
    boards = [BoardLayout("custom", None, (Target("T", "t", PlanarPoint(u, v)),), ()) for *_, u, v in cases]
    points = np.array([[[u + du, v + dv, dz]] for du, dv, dz, u, v in cases])
    runs = [(board, 0, board.targets[0], k) for k, board in enumerate(boards)]
    got = evaluation.snap_trials(template, boards, np.arange(len(cases)), runs, points, np.ones(len(cases), int))
    for result, board in zip(got, boards):
        mean, aim = result.gestured_mean, board.targets[0].position
        assert result.error == euclidean_error(mean, aim)
        du, dv, dz = mean.u - aim.u, mean.v - aim.v, mean.z_residual
        assert result.error == math.sqrt(du * du + dv * dv + dz * dz)


# --- array trial engine against the per-frame pipeline ----------------------


def tilted_template(sigma: float = 0.0, **overrides) -> ScenarioTemplate:
    """The desk scenario turned off every axis and moved off the origin."""
    q = np.array([0.95, 0.2, -0.15, 0.18])
    rot = Quaternion(*(q / np.linalg.norm(q)))
    tilt = WorkplaneFrame(Point3(0.2, -0.3, 0.1), rot)
    corners = [from_workplane(PlanarPoint(u, v), tilt) for u, v in ((0, 0), (0.6, 0), (0.6, 0.8), (0, 0.8))]
    plane = plane_from_corners(corners)
    return ScenarioTemplate(
        plane=plane,
        shoulder_base=from_workplane(PlanarPoint(0.30, -0.10, 0.60), tilt),
        arm_length=0.55,
        sigma=sigma,
        **overrides,
    )


def test_template_frame_follows_its_plane():
    """The frame is derived from the plane, so a template given another plane
    gets that plane's frame."""
    desk, tilted = ScenarioTemplate.desk_default(), tilted_template()
    moved = dataclasses.replace(desk, plane=tilted.plane)
    assert moved.frame == workplane_frame(tilted.plane) == tilted.frame != desk.frame


def _float_ideal_wrist(template, target, bu: float, bv: float) -> list[float]:
    """One ideal wrist on Python floats: the in-plane basis as
    ``workplane_frame`` takes its axes, then the aim in ``ideal_wrists``'s
    operation order."""
    n, (c0, c1) = template.plane.normal, template.plane.corners[:2]
    ex, ey, ez = c1.x - c0.x, c1.y - c0.y, c1.z - c0.z
    s = ex * n.x + ey * n.y + ez * n.z
    ex, ey, ez = ex - n.x * s, ey - n.y * s, ez - n.z * s
    k = math.sqrt(ex * ex + ey * ey + ez * ez)
    e1 = (ex / k, ey / k, ez / k)
    e2 = (n.y * e1[2] - n.z * e1[1], n.z * e1[0] - n.x * e1[2], n.x * e1[1] - n.y * e1[0])
    base = template.shoulder_base.as_tuple()
    aim = [t + bu * a + bv * b - o for t, a, b, o in zip(target, e1, e2, base)]
    scale = template.arm_length / math.sqrt(aim[0] * aim[0] + aim[1] * aim[1] + aim[2] * aim[2])
    return [o + a * scale for o, a in zip(base, aim)]


def test_ideal_wrists_equal_a_float_reference_on_tilted_planes():
    """Placement takes no 1-D ``@`` or ``np.linalg.norm``, whose sums follow
    the BLAS build: on seeded random tilted planes each wrist equals the
    pure-float reference bit for bit."""
    rng = np.random.default_rng(23)
    for _ in range(300):
        q = rng.normal(size=4)
        tilt = WorkplaneFrame(Point3(*rng.uniform(-1, 1, 3).tolist()), Quaternion(*(q / np.linalg.norm(q)).tolist()))
        corners = [from_workplane(PlanarPoint(u, v), tilt) for u, v in ((0, 0), (0.6, 0), (0.6, 0.8), (0, 0.8))]
        template = ScenarioTemplate(plane=plane_from_corners(corners), arm_length=0.55, sigma=0.0,
                                    shoulder_base=from_workplane(PlanarPoint(0.3, -0.1, 0.6), tilt))
        targets = [from_workplane(PlanarPoint(*rng.uniform(0.1, 0.5, 2).tolist()), tilt).as_tuple() for _ in range(3)]
        bias = rng.normal(scale=0.02, size=(3, 2))
        want = [_float_ideal_wrist(template, t, bu, bv) for t, (bu, bv) in zip(targets, bias.tolist())]
        assert ideal_wrists(template, np.array(targets), bias).tolist() == want


@pytest.mark.parametrize("trials", [1, 3, 82, 10_000])
def test_ideal_wrists_per_component_equal_the_row_norm_form(trials):
    """Placement per component, ``sqrt((x*x + y*y) + z*z)`` on component
    rows, gives the wrists of the (trials, 3) form it replaced, whose
    ``np.linalg.norm(axis=1)`` sums a length-3 axis in that order, bit for
    bit on random tilted planes, from one trial up to calibration's count."""
    rng = np.random.default_rng(trials)
    for _ in range(20):
        q = rng.normal(size=4)
        tilt = WorkplaneFrame(Point3(*rng.uniform(-1, 1, 3).tolist()), Quaternion(*(q / np.linalg.norm(q)).tolist()))
        corners = [from_workplane(PlanarPoint(u, v), tilt) for u, v in ((0, 0), (0.6, 0), (0.6, 0.8), (0, 0.8))]
        template = ScenarioTemplate(plane=plane_from_corners(corners), arm_length=0.55, sigma=0.0,
                                    shoulder_base=from_workplane(PlanarPoint(0.3, -0.1, 0.6), tilt))
        bias = rng.normal(scale=0.02, size=(trials, 2))
        e1, e2 = (np.array(axis) for axis in edge_axes(template.plane))
        base = np.array(template.shoulder_base.as_tuple())
        for targets in (np.array(from_workplane(PlanarPoint(0.3, 0.4), tilt).as_tuple()),
                        rng.uniform(-1, 1, (trials, 3))):
            aim = targets + bias[:, :1] * e1 + bias[:, 1:] * e2 - base
            want = base + aim * (template.arm_length / np.linalg.norm(aim, axis=1))[:, None]
            assert ideal_wrists(template, targets, bias).tolist() == want.tolist()


def scalar_trial(template, board, aimed, trial_id, samples) -> TrialResult:
    """One trial scored on the scalar path from its last stabilized points
    (fewer than snap_samples: no snap): the gate's mean, ``evaluate_request``
    and ``euclidean_error``. Pick success means the aimed target was
    selected; a place fallback counts as a failure."""
    aimed_uv = aimed.position if board.targets else aimed.center
    mode = "pick" if board.targets else "place"
    mean = result = error = None
    if len(samples) >= template.snap_samples:
        samples = tuple(samples[-template.snap_samples:])
        mean = stability_gate(samples, template.stability_threshold).mean
        result = evaluate_request(
            SnapRequest(samples, mode), board.targets, board.areas, threshold=template.stability_threshold
        )
        error = euclidean_error(mean, PlanarPoint(aimed_uv.u, aimed_uv.v, 0.0))
    selected = result.selected_id if result else None
    fallback = bool(result and result.fallback_used)
    success = selected == aimed.id and not (mode == "place" and fallback)
    return TrialResult(trial_id, aimed_uv, mean, error, selected, success, fallback)


def reference_trial(template, board, aimed, trial_id, frames) -> tuple[TrialResult, list]:
    """The per-frame reference: frames one at a time through GesturePipeline,
    then :func:`scalar_trial` over the last snap_samples points. Returns the
    trial result and every stabilized point."""
    pipe = GesturePipeline(template.plane, template.frame, hands=(template.hand,))
    for frame in frames:
        pipe.process(frame)
    points = pipe.recent(template.hand, HISTORY_CAPACITY)
    return scalar_trial(template, board, aimed, trial_id, points), points


def joint_frames(template, shoulders, wrists) -> list[tuple[float, dict]]:
    return [
        (k / 30.0, {f"{template.hand}_shoulder": (*s, 1.0), f"{template.hand}_wrist": (*w, 1.0)})
        for k, (s, w) in enumerate(zip(shoulders.tolist(), wrists.tolist()))
    ]


def hand_built_joints(template, patterns, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """(trials, frames, 3) joints where each pattern letter picks a frame's
    kind: i in bounds, o out of bounds, p a ray parallel to the plane
    (grazing it from 1e-8 m above, so only the parallel test drops the
    in-bounds hit), b plane hit behind the wrist, s arm shorter than 1 cm."""
    rng = np.random.default_rng(seed)
    base = np.array(template.shoulder_base.as_tuple())
    normal = np.array(template.plane.normal.as_tuple())

    def world(u, v):
        return np.array(from_workplane(PlanarPoint(u, v), template.frame).as_tuple())

    def joints(kind):
        if kind == "p":
            shoulder = world(0.1, 0.4) + 1e-8 * normal
            return shoulder, shoulder + (world(0.3, 0.4) - world(0.1, 0.4)) - 5e-9 * normal
        aim = world(0.3 + rng.normal(0, 0.01), 0.4 + rng.normal(0, 0.01)) if kind != "o" else world(-0.2, 0.5)
        if kind == "b":
            return base, aim - 0.05 * normal
        reach = 0.004 if kind == "s" else 0.55
        return base, base + reach * (aim - base) / np.linalg.norm(aim - base)

    pairs = np.array([[joints(kind) for kind in pattern] for pattern in patterns])
    return pairs[:, :, 0], pairs[:, :, 1]


PATTERNS = (
    "iioipibisioi",  # every drop reason interleaved with accepted samples
    "opbsooiiiiii",  # drops first, then fewer than a window of accepted samples
    "ioiooiooooop",  # three accepted samples in all: no snap
    "oooooooooooo",  # nothing accepted
    "iiiiiiiiiiii",
)


@pytest.mark.parametrize("tilted", [False, True], ids=["desk", "tilted"])
def test_engine_matches_pipeline_on_hand_built_joints(tilted):
    template = (tilted_template if tilted else ScenarioTemplate.desk_default)(0.0, snap_samples=5)
    shoulders, wrists = hand_built_joints(template, PATTERNS)
    points, counts = stabilize_trials(template, shoulders, wrists)
    assert counts.tolist() == [p.count("i") for p in PATTERNS]
    for board in (*standard_boards("pick", template, (0.1,)), *standard_boards("place", template, (0.2,))):
        aimed = (board.targets or board.areas)[0]
        runs = [(board, 0, aimed, k) for k in range(len(PATTERNS))]
        engine = evaluation.snap_trials(template, [board], np.zeros(len(runs), int), runs, points, counts)
        for k in range(len(PATTERNS)):
            reference, ref_points = reference_trial(
                template, board, aimed, engine[k].trial_id, joint_frames(template, shoulders[k], wrists[k])
            )
            got = points[k, :counts[k]]
            assert got.tolist() == [[p.u, p.v, p.z_residual] for p in ref_points]
            assert engine[k] == reference


@pytest.mark.parametrize(
    "template",
    [
        ScenarioTemplate.desk_default(0.04, aim_bias_sigma=0.019, snap_samples=25),
        ScenarioTemplate.desk_default(0.01, aim_bias_sigma=0.004),
        tilted_template(0.03, aim_bias_sigma=0.019, snap_samples=20),
    ],
    ids=["desk-noisy", "desk", "tilted"],
)
def test_sweep_trials_match_pipeline_per_trial(template):
    boards = [
        *standard_boards("pick", template, (0.3, 0.04)),
        *standard_boards("place", template, (0.1,)),
        *standard_boards("quantitative", template),
    ]
    report = run_boards(template, boards, trials_per_target=3, base_seed=11)
    engine_trials = iter(t for cell in report.cells for t in cell.trials)
    outcomes = set()
    for board in boards:
        for e_idx, aimed in enumerate(board.targets or board.areas):
            aimed_uv = aimed.position if board.targets else aimed.center
            for k in range(3):
                seed = _derived_seed(11, _KIND_CODES[board.kind], e_idx, k)
                frames = generate_scenario(template, from_workplane(aimed_uv, template.frame), seed,
                                           FRAMES_PER_TRIAL)
                engine = next(engine_trials)
                reference, _ = reference_trial(template, board, aimed, engine.trial_id, frames)
                assert engine == reference
                outcomes.add((engine.gestured_mean is None, engine.selected_id is None, engine.success))
    assert next(engine_trials, None) is None
    assert (False, False, True) in outcomes  # some trials succeed


def edge_rays(plane, rng, trials: int, frames: int) -> tuple[np.ndarray, np.ndarray]:
    """(trials, frames, 3) shoulders and wrists of rays at the edge of every
    decision. Each ray aims at a point on a plane edge, within 1e-13 m of it,
    or up to 0.2 m inside or outside it, and is one of four kinds: an arm of
    0.2-1.2 m, a wrist on the plane (t = DEFAULT_T_MIN), an arm a few ulps
    from ARM_SEPARATION_MIN, or a ray a few ulps from PARALLEL_TOL that
    starts just off the plane, so its hit can still land near the edge."""
    count = trials * frames
    n = np.array(plane.normal.as_tuple())
    corners = np.array([c.as_tuple() for c in plane.corners])
    edge = rng.integers(0, 4, count)
    a, along = corners[edge], corners[(edge + 1) % 4] - corners[edge]
    along /= np.sqrt((along * along).sum(axis=1))[:, None]
    across = np.cross(n, along)
    offset = rng.choice([0.0, 1e-13, -1e-13, 0.2, -0.2], count) * rng.random(count)
    aim = a + rng.random(count)[:, None] * (corners[(edge + 1) % 4] - a) + offset[:, None] * across
    height = rng.choice([-1.0, 1.0], count) * rng.uniform(0.2, 1.0, count)
    lateral = rng.uniform(-0.5, 0.5, (count, 2))
    shoulders = aim + height[:, None] * n + lateral[:, :1] * along + lateral[:, 1:] * across
    to_aim = aim - shoulders
    unit = to_aim / np.sqrt((to_aim * to_aim).sum(axis=1))[:, None]
    ulps = rng.integers(-4, 5, count)
    reach = np.where(rng.random(count) < 0.5, rng.uniform(0.2, 1.2, count),
                     ARM_SEPARATION_MIN * (1 + ulps * 2.0 ** -52))
    wrists = shoulders + reach[:, None] * unit
    on_plane = rng.random(count) < 0.3
    wrists[on_plane] = aim[on_plane]
    # nearly parallel: |<n, unit dir>| within a few ulps of PARALLEL_TOL
    grazing = rng.random(count) < 0.3
    c = PARALLEL_TOL * (1 + ulps * 2.0 ** -50)
    direction = along * np.sqrt(1 - c * c)[:, None] - (np.sign(height) * c)[:, None] * n
    span = rng.uniform(0.05, 0.5, count)
    start = aim - span[:, None] * direction
    arm = span * np.where(rng.random(count) < 0.5, 1.0, rng.uniform(0.5, 1.0, count))
    shoulders[grazing] = start[grazing]
    wrists[grazing] = (start + arm[:, None] * direction)[grazing]
    return shoulders.reshape(trials, frames, 3), wrists.reshape(trials, frames, 3)


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    q=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(lambda q: sum(x * x for x in q) > 0.01),
    origin=st.tuples(_UNIT, _UNIT, _UNIT),
    size=st.tuples(st.floats(0.2, 1.2), st.floats(0.2, 1.2)),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_equals_the_per_frame_kernel_at_every_decision_edge(q, origin, size, seed):
    """Scalar ``process`` against ``stabilize_trials`` on a random tilted
    plane: the same accept/drop decision for every ray, and bit-equal
    stabilized points for every trial."""
    norm = math.sqrt(sum(x * x for x in q))
    tilt = WorkplaneFrame(Point3(*origin), Quaternion(*(x / norm for x in q)))
    w, h = size
    plane = plane_from_corners([from_workplane(PlanarPoint(u, v), tilt) for u, v in ((0, 0), (w, 0), (w, h), (0, h))])
    template = ScenarioTemplate(plane=plane, shoulder_base=Point3(*origin),
                                arm_length=0.55, sigma=0.0)
    trials, frames = 40, 50
    shoulders, wrists = edge_rays(plane, np.random.default_rng(seed), trials, frames)
    # one frame per trial: the engine's decision for every ray, and its raw point
    _, decided = stabilize_trials(template, shoulders.reshape(-1, 1, 3), wrists.reshape(-1, 1, 3))
    points, counts = stabilize_trials(template, shoulders, wrists)
    decisions = []
    for k in range(trials):
        pipe = GesturePipeline(plane, template.frame, hands=(template.hand,))
        outputs = [pipe.process(f) for f in joint_frames(template, shoulders[k], wrists[k])]
        decisions += [len(out) for out in outputs]
        want = [[gp.position.u, gp.position.v, gp.position.z_residual] for out in outputs for gp in out]
        assert points[k, :counts[k]].tolist() == want
    assert decided.tolist() == decisions
    assert 0 < sum(decisions) < trials * frames


# --- calibration ----------------------------------------------------------------


def test_calibrate_zero_target():
    assert calibrate_sigma(0.0, ScenarioTemplate.desk_default(0.0)) == 0.0


def test_calibrate_monotone_in_target():
    tpl = ScenarioTemplate.desk_default(0.0)
    s1 = calibrate_sigma(0.02, tpl, samples=4000, seed=3)
    s2 = calibrate_sigma(0.04, tpl, samples=4000, seed=3)
    assert 0 < s1 < s2


def test_calibrated_sigma_reproduces_on_fresh_seed():
    tpl = ScenarioTemplate.desk_default(0.0)
    target = Point3(0.3, 0.4, 0.0)
    sigma = calibrate_sigma(0.031, tpl, samples=6000, seed=3)
    err = mean_error_by_sigma(tpl, target, samples=6000, seed=1234)(sigma)
    assert abs(err - 0.031) / 0.031 < 0.05


@pytest.mark.parametrize(
    "make_template", [ScenarioTemplate.desk_default, tilted_template], ids=["desk", "tilted"]
)
def test_calibration_objective_matches_a_fresh_draw_per_sigma(make_template):
    """The reference: each sigma draws and places its own trials, as
    calibration did before it drew once, and averages the ``np.linalg.norm``
    errors of the rays that hit. The arm held 5 cm above the plane makes
    some rays miss (parallel, or a hit behind the wrist) at the larger
    sigmas, so both the all-hit and the some-hit means are pinned."""
    template = make_template(0.0, aim_bias_sigma=0.008)
    low = dataclasses.replace(template, arm_length=0.1,
                              shoulder_base=from_workplane(PlanarPoint(0.3, -0.1, 0.05), template.frame))
    target = from_workplane(PlanarPoint(0.2, 0.5), template.frame)
    target_xyz = np.array(target.as_tuple())
    hit_shares = set()
    for tpl in (template, low):
        for sigma in (0.0, 0.004, 0.03):
            bias, eps = draw_joint_noise(11, tpl.aim_bias_sigma, 1500, 1)
            shoulders, wrists = noisy_joints(tpl.shoulder_base, ideal_wrists(tpl, target_xyz, bias), eps, sigma)
            hits, valid = intersect_rays_plane(shoulders[:, 0], wrists[:, 0], tpl.plane)
            expected = float(np.linalg.norm(hits[valid] - target_xyz, axis=1).mean())
            assert mean_error_by_sigma(tpl, target, samples=1500, seed=11)(sigma) == expected
            hit_shares.add("all" if valid.all() else "some")
    assert hit_shares == {"all", "some"}


def test_calibration_objective_with_no_ray_on_the_plane_raises():
    """A shoulder in the plane aims every ray along it: no ray hits."""
    template = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=0.008)
    flat = dataclasses.replace(template, shoulder_base=Point3(0.3, -0.4, 0.0))
    with pytest.raises(EvalError, match="no ray reached the plane"):
        mean_error_by_sigma(flat, Point3(0.3, 0.4, 0.0), samples=50, seed=1)(0.0)


@pytest.mark.parametrize("samples", [0, -5])
def test_calibration_samples_below_one_raise_before_drawing(monkeypatch, samples):
    def no_draw(*args):
        raise AssertionError("drew joints")

    monkeypatch.setattr(evaluation, "draw_joint_noise", no_draw)
    tpl = ScenarioTemplate.desk_default(0.0)
    with pytest.raises(InvalidParametersError, match="at least 1 sample"):
        calibrate_sigma(0.031, tpl, samples=samples, seed=3)
    with pytest.raises(InvalidParametersError, match="at least 1 sample"):
        mean_error_by_sigma(tpl, Point3(0.3, 0.4, 0.0), samples=samples, seed=3)(0.01)


def test_calibrate_negative_target_is_an_invalid_parameter():
    with pytest.raises(InvalidParametersError, match="must be >= 0"):
        calibrate_sigma(-0.01, ScenarioTemplate.desk_default(0.0))


def test_calibrate_unreachable_when_bias_floor_exceeds_target():
    tpl = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=0.05)
    with pytest.raises(Exception, match="aim bias"):
        calibrate_sigma(0.01, tpl, samples=2000, seed=3)


# --- reports ----------------------------------------------------------------


def _empty_report() -> SweepReport:
    return SweepReport(
        kind="pick_square", sigma=0.0, seed=0, snap_samples=15,
        trials_per_target=0, stability_threshold=0.05, cells=(),
    )


def test_empty_report_csv_is_header_only():
    text = emit_report(_empty_report(), "csv")
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_report_unsupported_format():
    report = run_place_sweep(ScenarioTemplate.desk_default(0.006), sizes=(0.2,), trials_per_area=1, base_seed=1)
    for rejected in (_empty_report(), report):
        with pytest.raises(EvalError, match="unsupported report format"):
            emit_report(rejected, "xml")
        assert "rows" not in rejected.__dict__  # no row was built


def test_report_rows_are_built_once_and_freed_with_the_report(monkeypatch):
    built = []
    cell_row = evaluation._cell_row
    monkeypatch.setattr(evaluation, "_cell_row", lambda cell, report: built.append(cell) or cell_row(cell, report))
    report = run_place_sweep(ScenarioTemplate.desk_default(0.006), sizes=(0.2, 0.1), trials_per_area=1, base_seed=1)
    texts = [emit_report(report, fmt) for fmt in ("csv", "json", "csv")]
    assert built == list(report.cells) and texts[0] == texts[2]
    alive = weakref.ref(report)
    del report
    gc.collect()
    assert alive() is None


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.pstdev rounds twice before Python 3.11")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.floats(0.0, 0.2),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1.7976931348623157e308]),
), min_size=1, max_size=40))
def test_exact_pstdev_equals_statistics(values):
    assert evaluation._pstdev(values).hex() == statistics.pstdev(values).hex()


def test_report_means_add_the_trial_values_in_order_on_every_python():
    """The row means add each trial's value one by one from 0.0: for these
    errors the compensated ``sum()`` of Python 3.12 on gives 0.0778, the
    ordered sum (and ``sum()`` up to 3.11) 0.0779."""
    errors = (0.0774627732406665, 0.07856702881271312, 0.07752019794662038)
    trials = tuple(TrialResult(f"B0-{k}", PlanarPoint(0.0, 0.0), PlanarPoint(e, -e), e, "B0", True, False)
                   for k, e in enumerate(errors))
    report = SweepReport(kind="pick_square", sigma=0.01, seed=7, snap_samples=15, trials_per_target=3,
                         stability_threshold=0.05, cells=(SweepCell("pick_square", 0.04, "B0", trials),))
    row = report.rows[0]
    assert (row["mean_err_m"], row["mean_du_m"], row["mean_dv_m"]) == (0.0779, 0.0779, -0.0779)



def test_calibration_centroid_adds_the_corners_in_order_on_every_python(monkeypatch):
    """The centroid adds the four corner coordinates one by one from 0.0: for
    x = 0.1, 0.7, 0.7, 0.1 that is 0.4, where the compensated ``sum()`` of
    Python 3.12 on gives 0.39999999999999997."""
    seen = []

    def objective(template, centroid, *, samples, seed):
        seen.append(centroid)
        raise EvalError("stop")

    monkeypatch.setattr(evaluation, "mean_error_by_sigma", objective)
    plane = plane_from_corners([Point3(0.1, 0.0, 0.0), Point3(0.7, 0.0, 0.0), Point3(0.7, 0.8, 0.0),
                                Point3(0.1, 0.8, 0.0)])
    assert [c.x for c in plane.corners] == [0.1, 0.7, 0.7, 0.1]
    with pytest.raises(EvalError, match="stop"):
        calibrate_sigma(0.031, dataclasses.replace(ScenarioTemplate.desk_default(0.0), plane=plane))
    assert seen == [Point3(0.4, 0.4, 0.0)]


# the builtin sum() calls the package may make, by enclosing function: each adds integers only
INTEGER_SUMS = {"SweepReport.success_by_l": 1, "_pstdev": 2, "_cell_row": 2}


def test_the_package_calls_sum_on_integers_only():
    """``sum()`` of floats is compensated from Python 3.12 on, so a float
    ``sum()`` would make an output differ between Pythons; the package adds
    floats one by one. Every call of the builtin ``sum`` in its source is one
    of the integer sums listed, found by walking each module's syntax tree."""
    import ast
    import pathlib

    found: dict[str, int] = {}

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "sum":
                name = ".".join(scope) or "<module>"
                found[name] = found.get(name, 0) + 1
            walk(child, scope)

    for path in sorted(pathlib.Path(evaluation.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), ())
    assert found == INTEGER_SUMS

def _edge_report() -> SweepReport:
    """Cells with no gesture (None everywhere), no trials, and the float and
    string edges of the JSON text: -0.0, 1e16, 5e-324, NaN and infinite
    errors, and ids with quotes, backslashes and non-ASCII characters."""
    def trial(trial_id, mean, error, selected=None):
        return TrialResult(trial_id, PlanarPoint(0.3, 0.4), mean, error, selected, selected is not None, False)

    edges = (trial('B"1\\-0', PlanarPoint(0.3, 0.4), -0.0, 'B"1\\'),
             trial("B-1", PlanarPoint(1e16 + 0.3, -0.0), 1e16),
             trial("B-2", PlanarPoint(5e-324, 0.4), 5e-324, "Zielfläche ✓"))
    return SweepReport(
        kind="pick_square", sigma=-0.0, seed=2**40, snap_samples=15, trials_per_target=3,
        stability_threshold=np.float64(5e-324),  # a float subclass
        cells=(
            SweepCell("pick_square", None, "none", (trial("n-0", None, None), trial("n-1", None, None))),
            SweepCell("pick_square", 0.04, "empty", ()),
            SweepCell("pick_square", 1e16, 'B"1\\ü', edges),
            SweepCell("place_areas", -0.0, "\u00e9\t\n", (trial("nan", PlanarPoint(0.1, 0.1), math.nan),
                                                           trial("inf", PlanarPoint(0.1, 0.1), math.inf))),
        ),
    )


def _report_document(report: SweepReport) -> dict:
    """The JSON report's document, as the report writer documents it."""
    return {
        "kind": report.kind,
        "config": {"sigma_m": report.sigma, "seed": report.seed, "snap_samples": report.snap_samples,
                   "trials_per_target": report.trials_per_target,
                   "stability_threshold_m": report.stability_threshold, "source": "synthetic"},
        "cells": [{**row, "trials_detail": [
            {"trial": t.trial_id, "err_m": None if t.error is None else round(t.error, 4),
             "du_m": None if t.gestured_mean is None else round(t.gestured_mean.u - t.ground_truth_uv.u, 4),
             "dv_m": None if t.gestured_mean is None else round(t.gestured_mean.v - t.ground_truth_uv.v, 4),
             "selected": t.selected_id, "success": t.success, "fallback": t.fallback_used}
            for t in cell.trials]} for row, cell in zip(report.rows, report.cells)],
    }


@pytest.mark.parametrize("report", [_empty_report(), _edge_report()], ids=["no-cells", "edges"])
def test_json_report_is_the_json_module_text(report):
    assert emit_report(report, "json") == json.dumps(_report_document(report), indent=2, sort_keys=True) + "\n"


_FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]))
_POINT = st.builds(PlanarPoint, _FLOAT, _FLOAT, _FLOAT)
_TRIAL = st.builds(TrialResult, st.text(), _POINT, st.none() | _POINT, st.none() | _FLOAT,
                   st.none() | st.text(), st.booleans(), st.booleans())
_CELL = st.builds(SweepCell, st.text(), st.none() | _FLOAT, st.text(), st.lists(_TRIAL, max_size=4).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.builds(SweepReport, st.text(), _FLOAT, st.integers(), st.integers(), st.integers(), _FLOAT,
                 st.lists(_CELL, max_size=4).map(tuple)))
def test_json_report_equals_json_dumps_on_random_reports(report):
    """Any report, with NaN, infinite, -0.0 and None values and non-ASCII
    text anywhere, gives the json module's text of its document."""
    assert emit_report(report, "json") == json.dumps(_report_document(report), indent=2, sort_keys=True) + "\n"


def test_csv_and_json_carry_identical_values():
    tpl = ScenarioTemplate.desk_default(0.006, aim_bias_sigma=0.01)
    report = run_place_sweep(tpl, sizes=(0.20, 0.05), trials_per_area=4, base_seed=9)
    csv_rows = list(csv.DictReader(io.StringIO(emit_report(report, "csv"))))
    json_cells = json.loads(emit_report(report, "json"))["cells"]
    assert len(csv_rows) == len(json_cells)
    for row, cell in zip(csv_rows, json_cells):
        for column in CSV_COLUMNS:
            json_value = cell[column]
            text = row[column]
            if json_value is None:
                assert text == ""
            elif isinstance(json_value, (int, float)) and not isinstance(json_value, bool):
                assert float(text) == float(json_value)
            else:
                assert text == str(json_value)


def test_json_report_keeps_per_trial_offsets():
    tpl = ScenarioTemplate.desk_default(0.006, aim_bias_sigma=0.01)
    report = run_place_sweep(tpl, sizes=(0.10,), trials_per_area=3, base_seed=9)
    doc = json.loads(emit_report(report, "json"))
    for cell in doc["cells"]:
        assert len(cell["trials_detail"]) == 3
        for trial in cell["trials_detail"]:
            assert set(trial) == {"trial", "du_m", "dv_m", "err_m", "selected", "success", "fallback"}
    assert doc["config"]["source"] == "synthetic"


def test_csv_column_order_is_stable():
    assert CSV_COLUMNS == (
        "kind", "l_m", "target_id", "trials", "successes", "success_pct",
        "mean_err_m", "std_err_m", "fallback_pct", "mean_du_m", "mean_dv_m",
        "sigma_m", "seed",
    )
