"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its stated tolerance with frozen seeds, so the whole
module is deterministic. Monte-Carlo trial counts for the envelope criterion
were sized so the margins are wide under the frozen seed (see the per-test
constants).
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    default_sigint,
    desk_corners,
    make_plane_file,
    run_cli,
    unit_square_plane,
    write_corner_file,
    write_scenario_file,
)
from gesturepoint.cli import load_plane_file
from gesturepoint.evaluation import (
    ScenarioTemplate,
    calibrate_sigma,
    emit_report,
    intersect_rays_plane,
    mean_intersection_error,
    run_boards,
    run_pick_sweep,
    run_place_sweep,
    standard_boards,
)
from gesturepoint.geometry import (
    PlanarPoint,
    Point3,
    Quaternion,
    plane_from_corners,
)
from gesturepoint.live import LiveServer, PipelineSettings
from gesturepoint.snap import Area, Target, pick_snap, place_snap, stability_gate
from gesturepoint.stabilizer import RunningAverageStabilizer
from test_geometry import random_arm_case


def report(criterion: int, description: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


# --- criterion 1: geometry oracle suite ---------------------------------------


def test_criterion_1_geometry_oracles():
    """10,000 drawn arm cases, each put to three oracles: the hit lies on the
    plane (substitution), scaling the scene scales the hit, and a rigid
    motion of the scene moves the hit with it. Each case calls
    ``intersect_rays_plane`` three times and ``plane_from_corners`` twice;
    the verdicts are taken over all cases at once. A missed ray's NaN hit
    fails every oracle."""
    rng = np.random.default_rng(0xA11CE)
    started = time.perf_counter()
    residuals, hits, scales, scaled_hits, moved_hits, moved_wants = [], [], [], [], [], []
    for _ in range(10_000):
        plane, shoulder, wrist = random_arm_case(rng)
        start, end = np.array(shoulder.as_tuple()), np.array(wrist.as_tuple())
        hit = intersect_rays_plane(start, end, plane)[0]
        hits.append(hit)
        # substitution oracle
        residuals.append(plane.signed_distance(Point3(*hit.tolist())))

        # scale invariance
        s = float(rng.uniform(0.2, 5.0))
        scaled_plane = plane_from_corners([Point3(c.x * s, c.y * s, c.z * s) for c in plane.corners])
        scales.append(s)
        scaled_hits.append(intersect_rays_plane(start * s, end * s, scaled_plane)[0])

        # rigid-motion equivariance: corners, shoulder, wrist and hit moved together
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        rot = np.array(Quaternion(*q.tolist()).to_matrix())
        t = rng.uniform(-2, 2, 3)
        points = [p.as_tuple() for p in (*plane.corners, shoulder, wrist)] + [hit]
        *corners, moved_shoulder, moved_wrist, want = np.array(points) @ rot.T + t
        moved_plane = plane_from_corners([Point3(*c) for c in np.array(corners).tolist()])
        moved_hits.append(intersect_rays_plane(moved_shoulder, moved_wrist, moved_plane)[0])
        moved_wants.append(want)
    ok = bool((np.abs(residuals) < 1e-9).all())
    # math.isclose(got, want * s, rel_tol=1e-9, abs_tol=1e-12), per coordinate
    got, want = np.array(scaled_hits), np.array(hits) * np.array(scales)[:, None]
    ok &= bool((np.abs(got - want) <= np.maximum(1e-9 * np.maximum(np.abs(got), np.abs(want)), 1e-12)).all())
    ok &= bool((np.abs(np.array(moved_hits) - np.array(moved_wants)) < 1e-9).all())
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    report(1, f"10k ray-plane oracle/scale/rigid checks in {elapsed:.2f}s (< 5s)", ok)


# --- criterion 2: noiseless end-to-end exactness -------------------------------


def test_criterion_2_noiseless_end_to_end():
    template = ScenarioTemplate.desk_default(0.0)
    started = time.perf_counter()
    reports = [
        run_boards(template, standard_boards("quantitative", template), trials_per_target=10, base_seed=2),
        run_pick_sweep(template, trials_per_target=10, base_seed=2),
        run_place_sweep(template, trials_per_area=10, base_seed=2),
    ]
    elapsed = time.perf_counter() - started
    perfect = all(row["success_pct"] == 100.0 for rep in reports for row in rep.rows)
    ok = perfect and elapsed < 30.0
    report(2, f"sigma=0 selects the aimed target in 100% of trials on every board in {elapsed:.1f}s (< 30s)", ok)


# --- criterion 3: calibration fidelity ------------------------------------------


def test_criterion_3_calibration_fidelity():
    template = ScenarioTemplate.desk_default(0.0)
    target = Point3(0.3, 0.4, 0.0)
    ok = True
    details = []
    for label, target_error in (("dominant", 0.031), ("non-dominant", 0.065)):
        sigma = calibrate_sigma(target_error, template, samples=10_000, seed=2024)
        held_out = mean_intersection_error(template, target, sigma, samples=10_000, seed=777)
        rel = abs(held_out - target_error) / target_error
        details.append(f"{label}: sigma={sigma:.4f} held-out={held_out:.4f} ({rel:.1%})")
        ok &= rel < 0.05
    report(3, "calibrate_sigma reproduces 3.1cm and 6.5cm within 5% on held-out seeds; " + "; ".join(details), ok)


# --- criterion 4: envelope reproduction -----------------------------------------

# trial counts sized so expected failure-count gaps at the frozen seed are
# tens of events, far beyond Monte-Carlo wobble
ENVELOPE_AIM_BIAS = 0.019
ENVELOPE_CAL_SEED = 2024
ENVELOPE_SWEEP_SEED = 20240809
ENVELOPE_PICK_TRIALS = 150
ENVELOPE_PLACE_TRIALS = 200


def test_criterion_4_envelope_at_dominant_calibration():
    base = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=ENVELOPE_AIM_BIAS)
    sigma = calibrate_sigma(0.031, base, samples=10_000, seed=ENVELOPE_CAL_SEED)
    template = dataclasses.replace(base, sigma=sigma)

    pick = run_pick_sweep(template, trials_per_target=ENVELOPE_PICK_TRIALS, base_seed=ENVELOPE_SWEEP_SEED)
    pick_rates = pick.success_by_l()
    place = run_place_sweep(template, trials_per_area=ENVELOPE_PLACE_TRIALS, base_seed=ENVELOPE_SWEEP_SEED)
    place_rates = place.success_by_l()

    big_l_ok = all(pick_rates[l] >= 95.0 for l in (0.40, 0.30, 0.20, 0.10))
    pick_strict = pick_rates[0.06] > pick_rates[0.04] > pick_rates[0.02]
    place_20_ok = place_rates[0.20] >= 95.0
    place_strict = place_rates[0.20] > place_rates[0.10] > place_rates[0.05]
    ok = big_l_ok and pick_strict and place_20_ok and place_strict
    pick_text = ", ".join(f"{l:g}:{pick_rates[l]:.1f}%" for l in sorted(pick_rates, reverse=True))
    place_text = ", ".join(f"{l:g}:{place_rates[l]:.1f}%" for l in sorted(place_rates, reverse=True))
    report(4, f"envelope at dominant calibration; pick[{pick_text}] place[{place_text}]", ok)


# --- criterion 5: snap strategy oracles ----------------------------------------


def test_criterion_5_snap_oracles():
    rng = np.random.default_rng(0x5AFE)
    pick_agree = 0
    for _ in range(10_000):
        n_targets = int(rng.integers(1, 51))
        targets = [
            Target(id=f"t{i:02d}", label="", position=PlanarPoint(*rng.uniform(0, 1, 2)))
            for i in range(n_targets)
        ]
        center = rng.uniform(0, 1, 2)
        samples = [PlanarPoint(*(center + rng.uniform(-0.012, 0.012, 2))) for _ in range(15)]
        result = pick_snap(samples, targets)
        if result is None:
            continue
        mean = result.mean_point
        best = min(
            (math.hypot(t.position.u - mean.u, t.position.v - mean.v), t.id) for t in targets
        )
        pick_agree += result.selected_id == best[1]
    pick_ok = pick_agree == 10_000

    dichotomy_ok = True
    for _ in range(10_000):
        areas = [
            Area(
                id=f"a{i}",
                center=PlanarPoint(*rng.uniform(0, 1, 2)),
                half_extent=(float(rng.uniform(0.02, 0.25)), float(rng.uniform(0.02, 0.25))),
            )
            for i in range(int(rng.integers(1, 9)))
        ]
        center = rng.uniform(0, 1, 2)
        samples = [PlanarPoint(*(center + rng.uniform(-0.012, 0.012, 2))) for _ in range(15)]
        result = place_snap(samples, areas)
        if result is None:
            dichotomy_ok = False
            break
        selected = next(a for a in areas if a.id == result.selected_id)
        inside = (
            abs(result.mean_point.u - selected.center.u) <= selected.half_extent[0]
            and abs(result.mean_point.v - selected.center.v) <= selected.half_extent[1]
        )
        if result.fallback_used != (not inside):
            dichotomy_ok = False
            break

    # 5 cm boundary semantics: a deviation of exactly the threshold is unstable
    at_threshold = [PlanarPoint(0.0, 0.0), PlanarPoint(0.1, 0.0)]
    just_inside = [PlanarPoint(0.0, 0.0), PlanarPoint(0.09999, 0.0)]
    gate_ok = (
        not stability_gate(at_threshold, 0.05).stable
        and stability_gate(just_inside, 0.05).stable
        and stability_gate(at_threshold, 0.05).max_deviation == 0.05
    )
    ok = pick_ok and dichotomy_ok and gate_ok
    report(
        5,
        f"pick oracle {pick_agree}/10000, place dichotomy on 10k instances, strict 5cm gate boundary",
        ok,
    )


# --- criterion 6: stabilizer algebra --------------------------------------------


def test_criterion_6_stabilizer_algebra():
    bounds = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    def oracle_mean(window: list[PlanarPoint]) -> tuple[float, float]:
        # the documented mean: offsets from the first point added one by one
        # (sum() compensates float sums from Python 3.12 on)
        first = window[0]
        su = sv = 0.0
        for p in window:
            su += p.u - first.u
            sv += p.v - first.v
        return first.u + su / len(window), first.v + sv / len(window)

    rng = np.random.default_rng(0xF1F0)
    ok = True
    for _ in range(1000):
        stab = RunningAverageStabilizer(bounds)
        accepted: list[PlanarPoint] = []
        for i in range(int(rng.integers(1, 40))):
            if rng.random() < 0.35:
                p = PlanarPoint(*rng.uniform(1.5, 4.0, 2))  # out of bounds
                if stab.push(p.u, p.v, p.z_residual, i / 30.0, "right") is not None:
                    ok = False
            else:
                p = PlanarPoint(*rng.uniform(0.01, 0.99, 2))
                out = stab.push(p.u, p.v, p.z_residual, i / 30.0, "right")
                accepted.append(p)
                expected = oracle_mean(accepted[-5:])
                if (out.position.u, out.position.v) != expected:
                    ok = False
        if not ok:
            break
    report(6, "running average equals filter-then-mean oracle on 1k interleavings, exact", ok)


# --- criterion 7: determinism and formats ---------------------------------------

GOLDEN_STREAMS = (
    (101, "0.2, 0.3, 0.0", 0.0),
    (102, "0.45, 0.55, 0.0", 0.009),
    (103, "0.15, 0.65, 0.0", 0.016),
)


def _live_responses(address, lines) -> list[str]:
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(("\n".join(lines) + "\n").encode("utf-8"))
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8").splitlines()


def test_criterion_7_determinism_and_formats(tmp_path):
    ok = True
    notes = []

    # byte-identical streams and reports under identical seeds
    scenario = write_scenario_file(tmp_path / "s.cfg", sigma=0.012, seed=9, count=25)
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    ok &= run_cli(["generate", "--scenario", str(scenario), "--out", str(s1)]) == 0
    ok &= run_cli(["generate", "--scenario", str(scenario), "--out", str(s2)]) == 0
    ok &= s1.read_bytes() == s2.read_bytes()
    template = ScenarioTemplate.desk_default(0.007, aim_bias_sigma=0.01)
    rep1 = run_pick_sweep(template, distances=(0.06,), trials_per_target=6, base_seed=4)
    rep2 = run_pick_sweep(template, distances=(0.06,), trials_per_target=6, base_seed=4)
    ok &= emit_report(rep1, "csv") == emit_report(rep2, "csv")
    ok &= emit_report(rep1, "json") == emit_report(rep2, "json")
    notes.append("byte-identical streams/reports")

    # replay/live equivalence on three golden streams
    plane_file = make_plane_file(tmp_path / "plane.json")
    plane, frame, _, _ = load_plane_file(str(plane_file))
    for seed, target, sigma in GOLDEN_STREAMS:
        cfg = write_scenario_file(tmp_path / f"g{seed}.cfg", target=target, sigma=sigma, seed=seed, count=40)
        stream = tmp_path / f"g{seed}.jsonl"
        ok &= run_cli(["generate", "--scenario", str(cfg), "--out", str(stream)]) == 0
        replay_out = tmp_path / f"g{seed}.points.jsonl"
        ok &= run_cli(["replay", "--plane", str(plane_file), "--stream", str(stream), "--out", str(replay_out)]) == 0
        with LiveServer("127.0.0.1", 0, PipelineSettings(plane=plane, frame=frame)) as server:
            live_lines = _live_responses(server.address, stream.read_text(encoding="utf-8").splitlines())
        ok &= live_lines == replay_out.read_text(encoding="utf-8").splitlines()
    notes.append("replay/live equivalence on 3 golden streams")

    # exit-code contract for every subcommand
    corners = write_corner_file(tmp_path / "corners.json", desk_corners())
    bad_corners = write_corner_file(
        tmp_path / "bad_corners.json", [Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0)]
    )
    layout = tmp_path / "layout.json"
    plane_out = tmp_path / "plane_out.json"
    points_out = tmp_path / "points_out.jsonl"
    cases = [
        (["define-plane", "--corners", str(corners), "--out", str(plane_out)], 0),
        (["define-plane", "--corners", str(bad_corners), "--out", str(plane_out)], 2),
        (["generate", "--scenario", str(scenario), "--out", str(tmp_path / "g.jsonl")], 0),
        (["generate", "--scenario", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "g.jsonl")], 2),
        (["replay", "--plane", str(plane_file), "--stream", str(s1), "--out", str(points_out)], 0),
        (["replay", "--stream", str(s1), "--out", str(points_out)], 2),  # no plane
        (["replay", "--plane", str(plane_file), "--stream", str(s1),
          "--out", str(tmp_path / "no_dir" / "x.jsonl")], 1),
        (["sweep", "--kind", "pick", "--trials", "1", "--distances", "0.10",
          "--out", str(tmp_path / "rep")], 0),
        (["sweep", "--kind", "pick", "--distances", "nonsense", "--out", str(tmp_path / "rep")], 2),
        (["calibrate", "--target-error", "0"], 0),
        (["calibrate", "--target-error", "-1"], 2),
        (["calibrate", "--target-error", "0.004", "--aim-bias", "0.05", "--samples", "2000"], 1),
        (["registry", "init", "--file", str(layout)], 0),
        (["registry", "add-target", "--file", str(layout), "--id", "t"], 2),  # missing --u/--v
        (["registry", "remove-target", "--file", str(layout), "--id", "ghost"], 1),
        (["live"], 2),  # no plane configured
        (["live", "--plane", str(plane_file), "--listen", "not-a-port"], 2),
    ]
    for argv, expected in cases:
        got = run_cli(argv)
        if got != expected:
            notes.append(f"exit {got} != {expected} for {' '.join(argv[:2])}")
            ok = False

    # live success (0 via SIGINT) and bind failure (1)
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    ok &= run_cli(["live", "--plane", str(plane_file), "--listen", f"127.0.0.1:{port}"]) == 1
    blocker.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "gesturepoint.cli", "live", "--plane", str(plane_file),
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=default_sigint,
    )
    try:
        ready = proc.stdout.readline()
        assert "listening" in ready
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
    ok &= code == 0
    notes.append("exit-code contract across all subcommands")

    report(7, "; ".join(notes), ok)
