"""Tests of the benchmark itself: tiny smoke runs of every workload and mode,
the output checkers against deliberately mutated outputs, and the refusal to
run without sources.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, require_sources  # noqa: E402

require_sources()

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import sweep_worker  # noqa: E402
import wl_live  # noqa: E402
import wl_sweep  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["live_loopback", "replay_file", "sweep_envelope"])
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = run._spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert set(result["metrics"][name]) == {"value", "unit"}
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in names)
    elif workload == "sweep_envelope":
        assert result["metrics"]["stream.parse_frame.calls"]["value"] == 0
        assert result["metrics"]["evaluation.run_trial.self_us"]["value"] > 0
    elif workload == "live_loopback":
        assert result["metrics"]["evaluation.run_trial.self_us"]["value"] == 0
        assert result["metrics"]["live.handle_line.self_us"]["value"] > 0
    # the known defects of the probed commit show up as failed probes
    assert "failed_frac" in done.stdout


def _live_session(lines, plane, layout):
    from gesturepoint.cli import load_plane_file
    from gesturepoint.live import LiveSession, PipelineSettings
    from gesturepoint.snap import AreaRegistry, TargetRegistry, load_layout

    plane_obj, frame, _, _ = load_plane_file(plane)
    targets, areas = TargetRegistry(), AreaRegistry()
    loaded_targets, loaded_areas = load_layout(layout)
    targets.replace_all(loaded_targets)
    areas.replace_all(loaded_areas)
    return LiveSession(PipelineSettings(plane=plane_obj, frame=frame), targets, areas)


def test_live_checker_flags_one_mutated_reply():
    plane, layout, _ = inputs.common_files()
    lines = inputs.live_session_lines(3, 0, 200)
    expect = reference.live_expectations(lines, plane, layout)
    session = _live_session(lines, plane, layout)
    replies = [r for line in lines for r in session.handle_line(line)]
    checked = wl_live._Session(None, lines, expect)
    checked.replies = [(r.encode(), 0.0) for r in replies]
    assert wl_live._check(checked, 0, len(lines)) == 0

    point = next(i for i, r in enumerate(replies) if r.startswith('{"t"'))
    snap = next(i for i, r in enumerate(replies) if r.startswith('{"ok": true'))
    for index in (point, snap):
        mutated = list(checked.replies)
        text = replies[index]
        digit = next(i for i in range(len(text) - 1, 0, -1) if text[i].isdigit() and text[i] != "9")
        mutated[index] = ((text[:digit] + str(int(text[digit]) + 1) + text[digit + 1:]).encode(), 0.0)
        checked.replies = mutated
        assert wl_live._check(checked, 0, len(lines)) == 1
        checked.replies = [(r.encode(), 0.0) for r in replies]


def test_sweep_checker_flags_one_mutated_report_byte():
    from gesturepoint.evaluation import ScenarioTemplate

    pinned = wl_sweep.load_pinned()
    biased = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=sweep_worker.AIM_BIAS)
    texts, trials = sweep_worker.envelope_reports(biased, 0, wl_sweep.TRIALS)
    assert trials == 82
    assert wl_sweep.failed_trials([[0, 0.1, trials, sweep_worker.digest(texts)]], pinned) == 0
    csv = texts[0]
    pos = len(csv) // 2
    texts[0] = csv[:pos] + chr(ord(csv[pos]) ^ 1) + csv[pos + 1:]
    assert wl_sweep.failed_trials([[0, 0.1, trials, sweep_worker.digest(texts)]], pinned) == trials


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay_file", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
