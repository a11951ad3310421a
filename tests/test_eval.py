"""Evaluation harness tests: error metric, boards, sweeps,
calibration, report emission."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from gesturepoint.evaluation import (
    _KIND_CODES,
    CSV_COLUMNS,
    DimensionMismatchError,
    InvalidParametersError,
    PICK_DISTANCES,
    ScenarioTemplate,
    SweepReport,
    TrialResult,
    UnsupportedFormatError,
    _derived_seed,
    board_document,
    board_from_document,
    calibrate_sigma,
    desk_plane,
    emit_report,
    euclidean_error,
    make_board,
    mean_intersection_error,
    run_boards,
    run_pick_sweep,
    run_place_sweep,
    run_quantitative,
    run_trial,
    stabilize_trials,
    template_plane_size,
)
from gesturepoint.geometry import (
    PlanarPoint,
    Point3,
    Quaternion,
    Vec3,
    from_workplane,
    plane_from_corners,
    to_workplane,
    workplane_frame,
)
from gesturepoint.pipeline import HISTORY_CAPACITY, GesturePipeline
from gesturepoint.snap import DEFAULT_STABILITY_THRESHOLD, SnapRequest, evaluate_request, stability_gate
from gesturepoint.stream import JointSample, KeypointFrame, generate_scenario


# --- error metric ------------------------------------------------------------


def test_euclidean_error_345_triangle():
    assert euclidean_error(Point3(0, 0, 0), Point3(0.03, 0.04, 0)) == pytest.approx(0.05)
    assert euclidean_error(PlanarPoint(0.1, 0.1), PlanarPoint(0.13, 0.14)) == pytest.approx(0.05)


def test_euclidean_error_identity_and_symmetry():
    p = Point3(0.2, -0.4, 1.0)
    assert euclidean_error(p, p) == 0.0
    q = Point3(1.0, 0.5, -0.2)
    assert euclidean_error(p, q) == euclidean_error(q, p)


def test_euclidean_error_matches_componentwise_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rng.uniform(-5, 5, (2, 3))
        expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert euclidean_error(Point3(*a), Point3(*b)) == pytest.approx(expected, rel=1e-15)


def test_euclidean_error_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b, c = (Point3(*rng.uniform(-2, 2, 3)) for _ in range(3))
        assert euclidean_error(a, c) <= euclidean_error(a, b) + euclidean_error(b, c) + 1e-12


def test_euclidean_error_kind_mismatch():
    with pytest.raises(DimensionMismatchError):
        euclidean_error(Point3(0, 0, 0), PlanarPoint(0, 0))


def test_euclidean_error_rigid_invariance_under_workplane_transform():
    rng = np.random.default_rng(15)
    plane = desk_plane()
    frame = workplane_frame(plane)
    for _ in range(200):
        a = Point3(rng.uniform(0, 0.6), rng.uniform(0, 0.8), 0.0)
        b = Point3(rng.uniform(0, 0.6), rng.uniform(0, 0.8), 0.0)
        direct = euclidean_error(a, b)
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
    assert all(cell.success_pct == 100.0 for cell in report.cells)
    assert all(len(cell.trials) == 3 for cell in report.cells)


def test_noiseless_place_sweep_is_perfect_without_fallback():
    report = run_place_sweep(
        ScenarioTemplate.desk_default(0.0), sizes=(0.20, 0.05), trials_per_area=3, base_seed=5
    )
    assert all(cell.success_pct == 100.0 for cell in report.cells)
    assert all(cell.fallback_pct == 0.0 for cell in report.cells)


def test_noiseless_quantitative_board():
    report = run_quantitative(ScenarioTemplate.desk_default(0.0), trials_per_target=2, base_seed=5)
    assert len(report.cells) == 10
    assert all(cell.success_pct == 100.0 for cell in report.cells)


def test_run_trial_gates_each_trial_once(monkeypatch):
    calls = []

    def counting_gate(samples, threshold=DEFAULT_STABILITY_THRESHOLD):
        calls.append(len(samples))
        return stability_gate(samples, threshold)

    monkeypatch.setattr("gesturepoint.snap.stability_gate", counting_gate)
    monkeypatch.setattr("gesturepoint.evaluation.stability_gate", counting_gate)
    template = ScenarioTemplate.desk_default(0.0)
    run_pick_sweep(template, distances=(0.10,), trials_per_target=2, base_seed=5)
    assert calls == [template.snap_samples] * 8  # noiseless: every snap's gate passes
    # a failed gate selects nothing, so the trial's mean needs one more
    board = make_board("pick_square", 0.10)
    samples = [PlanarPoint(0.3, 0.4)] * 14 + [PlanarPoint(0.9, 0.4)]
    calls.clear()
    result = run_trial(template, board, board.targets[0], "t", samples)
    assert result.selected_id is None and result.gestured_mean == stability_gate(samples).mean
    assert len(calls) == 2


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


# --- array trial engine against the per-frame pipeline ----------------------


def tilted_template(sigma: float = 0.0, **overrides) -> ScenarioTemplate:
    """The desk scenario turned off every axis and moved off the origin."""
    q = np.array([0.95, 0.2, -0.15, 0.18])
    rot = Quaternion(*(q / np.linalg.norm(q)))
    origin = Point3(0.2, -0.3, 0.1)
    corners = [origin + rot.rotate(Vec3(u, v, 0.0)) for u, v in ((0, 0), (0.6, 0), (0.6, 0.8), (0, 0.8))]
    plane = plane_from_corners(corners)
    return ScenarioTemplate(
        plane=plane,
        frame=workplane_frame(plane),
        shoulder_base=origin + rot.rotate(Vec3(0.30, -0.10, 0.60)),
        arm_length=0.55,
        sigma=sigma,
        **overrides,
    )


def reference_trial(template, board, aimed, trial_id, frames) -> tuple[TrialResult, list]:
    """The per-frame reference: frames one at a time through GesturePipeline,
    then evaluate_request over the last snap_samples points. Returns the
    trial result and every stabilized point."""
    pipe = GesturePipeline(template.plane, template.frame, hands=(template.hand,), window=template.window)
    for frame in frames:
        pipe.process(frame)
    points = pipe.recent(template.hand, HISTORY_CAPACITY)
    aimed_uv = aimed.position if board.targets else aimed.center
    mode = "pick" if board.targets else "place"
    mean = result = error = None
    if len(points) >= template.snap_samples:
        samples = tuple(points[-template.snap_samples:])
        mean = stability_gate(samples, template.stability_threshold).mean
        result = evaluate_request(
            SnapRequest(samples, mode), board.targets, board.areas, threshold=template.stability_threshold
        )
        error = euclidean_error(mean, PlanarPoint(aimed_uv.u, aimed_uv.v, 0.0))
    selected = result.selected_id if result else None
    fallback = bool(result and result.fallback_used)
    success = selected == aimed.id and not (mode == "place" and fallback)
    return TrialResult(trial_id, aimed_uv, mean, error, selected, success, fallback), points


def assert_same_trial(engine: TrialResult, reference: TrialResult, exact: bool) -> None:
    if exact:
        assert engine == reference
        return
    assert (engine.selected_id, engine.success, engine.fallback_used) == (
        reference.selected_id, reference.success, reference.fallback_used
    )
    assert (engine.error is None) == (reference.error is None)
    if engine.error is not None:
        assert abs(engine.error - reference.error) <= 1e-12


def engine_samples(points, count: int, n: int) -> list[PlanarPoint]:
    return [PlanarPoint(*p) for p in points[count - n:count].tolist()] if count >= n else []


def joint_frames(template, shoulders, wrists) -> list[KeypointFrame]:
    return [
        KeypointFrame(
            timestamp=k / 30.0,
            joints={
                f"{template.hand}_shoulder": JointSample(Point3(*s), 1.0),
                f"{template.hand}_wrist": JointSample(Point3(*w), 1.0),
            },
        )
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
    size = template_plane_size(template)
    for board in (make_board("pick_square", 0.1, plane_size=size), make_board("place_areas", 0.2, plane_size=size)):
        aimed = (board.targets or board.areas)[0]
        for k in range(len(PATTERNS)):
            reference, ref_points = reference_trial(
                template, board, aimed, "t", joint_frames(template, shoulders[k], wrists[k])
            )
            got = points[k, :counts[k]]
            want = np.array([(p.u, p.v, p.z_residual) for p in ref_points]).reshape(-1, 3)
            if tilted:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            else:
                assert got.tolist() == want.tolist()
            engine = run_trial(template, board, aimed, "t", engine_samples(points[k], counts[k], 5))
            assert_same_trial(engine, reference, exact=not tilted)


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
    exact = template.plane.normal.as_tuple() == (0.0, 0.0, 1.0)
    size = template_plane_size(template)
    boards = [
        make_board("pick_square", 0.3, plane_size=size),
        make_board("pick_square", 0.04, plane_size=size),
        make_board("place_areas", 0.1, plane_size=size),
        make_board("quantitative_10", plane_size=size),
    ]
    report = run_boards(template, boards, trials_per_target=3, base_seed=11)
    engine_trials = iter(t for cell in report.cells for t in cell.trials)
    outcomes = set()
    for board in boards:
        for e_idx, aimed in enumerate(board.targets or board.areas):
            aimed_uv = aimed.position if board.targets else aimed.center
            for k in range(3):
                seed = _derived_seed(11, _KIND_CODES[board.kind], e_idx, k)
                scenario = template.scenario_for(from_workplane(aimed_uv, template.frame), seed)
                engine = next(engine_trials)
                reference, _ = reference_trial(template, board, aimed, engine.trial_id, generate_scenario(scenario))
                assert_same_trial(engine, reference, exact)
                outcomes.add((engine.gestured_mean is None, engine.selected_id is None, engine.success))
    assert next(engine_trials, None) is None
    assert (False, False, True) in outcomes  # some trials succeed


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
    err = mean_intersection_error(tpl, target, sigma, samples=6000, seed=1234)
    assert abs(err - 0.031) / 0.031 < 0.05


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
    with pytest.raises(UnsupportedFormatError):
        emit_report(_empty_report(), "xml")


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
