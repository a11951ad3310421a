"""The names the benchmark harness (``perfbench/``) reaches the package by.

The list is ROADMAP's "Names perfbench needs"; the two change together. A
rename that breaks one fails here, in the unit tests, instead of only in a
harness self-test or a traced run. Nothing is imported from ``perfbench/``.
"""

from __future__ import annotations

import importlib
import inspect
import subprocess
import sys

import pytest

from gesturepoint.stream import StreamReader

# every module whose functions the harness's tracer wraps
TRACED_MODULES = ("stream", "geometry", "stabilizer", "pipeline", "snap", "live", "evaluation", "cli")

HARNESS_NAMES = {
    "cli": ("main", "save_plane_file", "load_plane_file", "cmd_replay"),
    "geometry": ("Point3", "plane_from_corners", "workplane_frame", "to_workplane", "from_workplane"),
    "pipeline": ("GesturePipeline.process", "GesturePipeline.recent"),
    "stabilizer": ("RunningAverageStabilizer.push",),
    "live": ("LiveSession.handle_line", "PipelineSettings"),
    "snap": ("SnapRequest", "evaluate_request", "place_snap", "load_layout", "save_layout", "Target",
             "Area", "TargetRegistry.replace_all", "AreaRegistry.replace_all"),
    "stream": ("parse_frame", "MalformedRecordError", "StreamReader"),
    "evaluation": ("ScenarioTemplate.desk_default", "make_board", "PICK_DISTANCES", "PLACE_SIZES",
                   "calibrate_sigma", "emit_report", "run_pick_sweep", "run_place_sweep"),
}


@pytest.mark.parametrize("module", TRACED_MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"gesturepoint.{module}")


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HARNESS_NAMES.items() for n in names])
def test_harness_name_resolves(module, name):
    obj = importlib.import_module(f"gesturepoint.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)


def test_stream_reader_takes_skip_malformed():
    inspect.signature(StreamReader).bind([], skip_malformed=True)


@pytest.mark.parametrize("name, trials", [("run_pick_sweep", "trials_per_target"),
                                          ("run_place_sweep", "trials_per_area")])
def test_sweep_takes_the_harness_call_form(name, trials):
    evaluation = importlib.import_module("gesturepoint.evaluation")
    template = evaluation.ScenarioTemplate.desk_default()
    inspect.signature(getattr(evaluation, name)).bind(template, **{trials: 2}, base_seed=0)


def test_cli_runs_as_a_module():
    result = subprocess.run([sys.executable, "-m", "gesturepoint.cli", "--version"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
