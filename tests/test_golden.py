"""Golden values: the calibration objective, calibrated sigmas and small
sweep reports, pinned bit for bit so a refactor of the sampler or the
intersection maths cannot shift them unnoticed."""

from __future__ import annotations

import hashlib

import pytest

from gesturepoint.evaluation import (
    ScenarioTemplate,
    calibrate_sigma,
    emit_report,
    mean_intersection_error,
    run_pick_sweep,
    run_place_sweep,
)
from gesturepoint.geometry import Point3


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


def test_small_pick_and_place_report_digests():
    template = ScenarioTemplate.desk_default(0.01, aim_bias_sigma=0.004)
    reports = {
        "pick": run_pick_sweep(template, distances=(0.2, 0.04), trials_per_target=3, base_seed=7),
        "place": run_place_sweep(template, sizes=(0.1,), trials_per_area=3, base_seed=7),
    }
    digests = {
        (name, fmt): hashlib.sha256(emit_report(report, fmt).encode()).hexdigest()
        for name, report in reports.items()
        for fmt in ("csv", "json")
    }
    assert digests == {
        ("pick", "csv"): "327f7d6ca514a981bf12fc655946ed7fc0ca71a253d07b8a14b4f1e6ae87856d",
        ("pick", "json"): "6a43f292bc8a1ce333d89ce0ecd72c6f7d6aabd04778c6590aa5e103228d7a4b",
        ("place", "csv"): "bed3638182ee7ad55b59aca53edaff19f7dcc8022cb797e5e471d9b0792472af",
        ("place", "json"): "12122a0b474f268f9bcb8c08c6c14c744e1a3bed85e50c58f309310cc3b41f0f",
    }
