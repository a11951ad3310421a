"""Golden values: the calibration objective, calibrated sigmas and small
sweep reports, pinned bit for bit so a refactor of the sampler or the
intersection maths cannot shift them unnoticed."""

from __future__ import annotations

import hashlib

import pytest

from gesturepoint.evaluation import (
    _KIND_CODES,
    ScenarioTemplate,
    _derived_seed,
    calibrate_sigma,
    emit_report,
    make_board,
    mean_intersection_error,
    run_pick_sweep,
    run_place_sweep,
    run_quantitative,
)
from gesturepoint.geometry import Point3, from_workplane
from gesturepoint.pipeline import GesturePipeline
from gesturepoint.stream import generate_scenario


@pytest.mark.parametrize(
    "aim_bias, seed, expected",
    [
        (0.0, 3, "0x1.f168400609622p-6"),
        (0.0, 11, "0x1.f4978bed16ce9p-6"),
        (0.006, 3, "0x1.008e43c9b51ecp-5"),
        (0.006, 11, "0x1.022dc67e0ff60p-5"),
    ],
)
def test_mean_intersection_error_golden(aim_bias, seed, expected):
    template = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=aim_bias)
    value = mean_intersection_error(template, Point3(0.2, 0.5, 0.0), 0.012, samples=2000, seed=seed)
    assert value.hex() == expected


@pytest.mark.parametrize(
    "aim_bias, expected", [(0.0, "0x1.dc28f5c28f5c2p-7"), (0.006, "0x1.cc49ba5e353f8p-7")]
)
def test_calibrated_sigma_golden(aim_bias, expected):
    template = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=aim_bias)
    assert calibrate_sigma(0.031, template, samples=2000, seed=5).hex() == expected


def _digests(reports: dict) -> dict:
    return {
        (name, fmt): hashlib.sha256(emit_report(report, fmt).encode()).hexdigest()
        for name, report in reports.items()
        for fmt in ("csv", "json")
    }


def test_small_pick_and_place_report_digests():
    template = ScenarioTemplate.desk_default(0.01, aim_bias_sigma=0.004)
    reports = {
        "pick": run_pick_sweep(template, distances=(0.2, 0.04), trials_per_target=3, base_seed=7),
        "place": run_place_sweep(template, sizes=(0.1,), trials_per_area=3, base_seed=7),
    }
    assert _digests(reports) == {
        ("pick", "csv"): "327f7d6ca514a981bf12fc655946ed7fc0ca71a253d07b8a14b4f1e6ae87856d",
        ("pick", "json"): "6a43f292bc8a1ce333d89ce0ecd72c6f7d6aabd04778c6590aa5e103228d7a4b",
        ("place", "csv"): "bed3638182ee7ad55b59aca53edaff19f7dcc8022cb797e5e471d9b0792472af",
        ("place", "json"): "12122a0b474f268f9bcb8c08c6c14c744e1a3bed85e50c58f309310cc3b41f0f",
    }


def test_small_quantitative_report_digests():
    template = ScenarioTemplate.desk_default(0.01, aim_bias_sigma=0.004)
    report = run_quantitative(template, trials_per_target=2, base_seed=3)
    assert _digests({"quantitative": report}) == {
        ("quantitative", "csv"): "741601eeae37f90eef79737e8cb44d3e5c0da586ef18a2d3e06abdeb20d3a9b9",
        ("quantitative", "json"): "ac7a6b8acf8db4615418baef1ea7a445179ee59360556da87966cd6c20417a18",
    }


def _scalar_drops(template, board, trials, base_seed) -> list[int]:
    """Frames the scalar pipeline set aside in each trial of ``board``, in
    sweep order (entity, then trial)."""
    drops = []
    for e_idx, entity in enumerate(board.targets or board.areas):
        aimed = entity.position if board.targets else entity.center
        for k in range(trials):
            seed = _derived_seed(base_seed, _KIND_CODES[board.kind], e_idx, k)
            scenario = template.scenario_for(from_workplane(aimed, template.frame), seed)
            pipe = GesturePipeline(template.plane, template.frame, window=template.window)
            for frame in generate_scenario(scenario):
                pipe.process(frame)
            drops.append(pipe.frames_seen - len(pipe.recent(template.hand, template.frames_per_trial)))
    return drops


def test_noisy_pick_and_place_report_digests():
    """Noise and bias large enough that frames fall out of bounds, gates fail
    and some trials keep fewer than snap_samples points (no snap at all)."""
    template = ScenarioTemplate.desk_default(0.04, aim_bias_sigma=0.019, snap_samples=25)
    distances, sizes = (0.4, 0.04), (0.2, 0.05)
    reports = {
        "pick": run_pick_sweep(template, distances=distances, trials_per_target=3, base_seed=7),
        "place": run_place_sweep(template, sizes=sizes, trials_per_area=3, base_seed=7),
    }
    trials = [t for report in reports.values() for cell in report.cells for t in cell.trials]
    boards = [make_board("pick_square", l) for l in distances] + [
        make_board("place_areas", l) for l in sizes
    ]
    drops = [d for board in boards for d in _scalar_drops(template, board, 3, 7)]
    snapped = [t.gestured_mean is not None for t in trials]
    assert len(drops) == len(trials)
    assert any(d > 0 and s for d, s in zip(drops, snapped))  # compaction before a snap
    assert any(d > template.frames_per_trial - template.snap_samples for d in drops)
    assert not all(snapped)  # fewer than snap_samples accepted: no snap
    assert any(s and t.selected_id is None for s, t in zip(snapped, trials))  # gate failed
    assert any(t.success for t in trials)
    assert _digests(reports) == {
        ("pick", "csv"): "b9589b1503cd4943b681d74c7d14c8aab108e577dbdec6344116fffaec756fda",
        ("pick", "json"): "fb396e432a4dc0a310a4c16f4cec8a35838f562bc08e3d6539439f27e3a6dba3",
        ("place", "csv"): "27fade53419a838dce0d0ea54e91483d7c8c923f9d82b8c6a3fe56041ba927b7",
        ("place", "json"): "db5745e2244be34b145d44e37baa9052bb9883fa8a734fe9fe2c1a9d3531c897",
    }
