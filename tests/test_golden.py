"""Golden values: the calibration objective, calibrated sigmas and small
sweep reports, pinned bit for bit so a refactor of the sampler or the
intersection maths cannot shift them unnoticed."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random

import pytest

from conftest import run_cli

from gesturepoint import evaluation
from gesturepoint.cli import save_plane_file
from gesturepoint.evaluation import (
    _KIND_CODES,
    FRAMES_PER_TRIAL,
    ScenarioTemplate,
    _derived_seed,
    calibrate_sigma,
    emit_report,
    generate_scenario,
    make_board,
    mean_intersection_error,
    run_boards,
    run_pick_sweep,
    run_place_sweep,
    standard_boards,
)
from gesturepoint.geometry import Point3, Quaternion, from_workplane, plane_from_corners, workplane_frame
from gesturepoint.live import gesture_point_record
from gesturepoint.pipeline import GesturePipeline, PipelineSettings
from gesturepoint.stream import KeypointFrame


@pytest.mark.parametrize(
    "aim_bias, seed, expected",
    [
        (0.0, 3, "0x1.f168400609622p-6"),
        (0.0, 11, "0x1.f4978bed16ce9p-6"),
        (0.006, 3, "0x1.008e43c9b51ecp-5"),
        (0.006, 11, "0x1.022dc67e0ff60p-5"),
        (0.019, 0, "0x1.3cd1098d20a17p-5"),
        (0.019, 7, "0x1.3877022d968fcp-5"),
    ],
)
def test_mean_intersection_error_golden(aim_bias, seed, expected):
    template = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=aim_bias)
    value = mean_intersection_error(template, Point3(0.2, 0.5, 0.0), 0.012, samples=2000, seed=seed)
    assert value.hex() == expected


# The first two rows keep the ids they had before the target, sample-count
# and seed columns were added. The rows at 10,000 samples are the sweep
# envelope's calibration (3.1 cm, 1.9 cm aim bias, seeds 0-7) and the
# benchmark's calibration set (3.1 and 6.5 cm, seeds 2024-2026).
@pytest.mark.parametrize(
    "target, aim_bias, samples, seed, expected",
    [
        pytest.param(0.031, 0.0, 2000, 5, "0x1.dc28f5c28f5c2p-7", id="0.0-0x1.dc28f5c28f5c2p-7"),
        pytest.param(0.031, 0.006, 2000, 5, "0x1.cc49ba5e353f8p-7", id="0.006-0x1.cc49ba5e353f8p-7"),
        (0.031, 0.019, 10_000, 0, "0x1.2d916872b020cp-7"),
        (0.031, 0.019, 10_000, 1, "0x1.3d70a3d70a3d7p-7"),
        (0.031, 0.019, 10_000, 2, "0x1.2d916872b020cp-7"),
        (0.031, 0.019, 10_000, 3, "0x1.3d70a3d70a3d7p-7"),
        (0.031, 0.019, 10_000, 4, "0x1.2d916872b020cp-7"),
        (0.031, 0.019, 10_000, 5, "0x1.1db22d0e56042p-7"),
        (0.031, 0.019, 10_000, 6, "0x1.1db22d0e56042p-7"),
        (0.031, 0.019, 10_000, 7, "0x1.3d70a3d70a3d7p-7"),
        (0.031, 0.0, 10_000, 2024, "0x1.dc28f5c28f5c2p-7"),
        (0.031, 0.0, 10_000, 2025, "0x1.dc28f5c28f5c2p-7"),
        (0.031, 0.0, 10_000, 2026, "0x1.dc28f5c28f5c2p-7"),
        (0.065, 0.0, 10_000, 2024, "0x1.f333333333334p-6"),
        (0.065, 0.0, 10_000, 2025, "0x1.f333333333334p-6"),
        (0.065, 0.0, 10_000, 2026, "0x1.f333333333334p-6"),
    ],
)
def test_calibrated_sigma_golden(target, aim_bias, samples, seed, expected):
    template = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=aim_bias)
    assert calibrate_sigma(target, template, samples=samples, seed=seed).hex() == expected


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


# the benchmark's sweep workload checks each envelope it runs against these
_ENVELOPES = json.loads((pathlib.Path(__file__).parents[1] / "perfbench" / "sweep_digests.json")
                        .read_text(encoding="utf-8"))


def _envelope_digest(seed: int) -> str:
    biased = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=0.019)
    template = dataclasses.replace(biased, sigma=calibrate_sigma(0.031, biased, seed=seed))
    trials = _ENVELOPES["trials"]
    reports = (run_pick_sweep(template, trials_per_target=trials, base_seed=seed),
               run_place_sweep(template, trials_per_area=trials, base_seed=seed))
    digest = hashlib.sha256()
    for report in reports:
        for fmt in ("csv", "json"):
            digest.update(emit_report(report, fmt).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(_ENVELOPES["digests"], key=int))
def test_benchmark_sweep_envelope_digest(seed):
    """One envelope of the benchmark's sweep workload, rebuilt from its pinned
    digest: the desk template with a 1.9 cm aim bias, calibrated to a 3.1 cm
    mean error at the envelope's seed, every pick board and every place
    board at the pinned trial count, and the pick CSV, pick JSON, place CSV
    and place JSON reports hashed in that order."""
    assert _envelope_digest(int(seed)) == _ENVELOPES["digests"][seed]


def test_benchmark_envelopes_take_every_decision_from_the_arrays(monkeypatch):
    """Sweeps gate and snap every trial in arrays and send a trial through
    the scalar ``run_trial`` only when a decision is within a few ulps of a
    tie or of the threshold: none of the 656 trials of the 8 pinned
    envelopes does, and the reports keep their bytes."""
    fallbacks = []
    run_trial = evaluation.run_trial
    monkeypatch.setattr(evaluation, "run_trial", lambda *args: fallbacks.append(args[3]) or run_trial(*args))
    for seed, digest in _ENVELOPES["digests"].items():
        assert _envelope_digest(int(seed)) == digest
    assert fallbacks == []


def test_benchmark_envelope_derives_one_seed_per_trial_key(monkeypatch):
    """The l series shares its trial seeds, so an envelope draws once per
    (kind, entity, trial) key: 4 bolts and 3 areas, 2 trials each, 14 seeds
    for its 82 trials, and the same report bytes."""
    keys = []
    derived_seed = evaluation._derived_seed
    monkeypatch.setattr(evaluation, "_derived_seed", lambda *key: keys.append(key) or derived_seed(*key))
    assert _envelope_digest(3) == _ENVELOPES["digests"]["3"]
    assert len(keys) == len(set(keys)) == (4 + 3) * _ENVELOPES["trials"] == 14


def test_small_quantitative_report_digests():
    template = ScenarioTemplate.desk_default(0.01, aim_bias_sigma=0.004)
    report = run_boards(template, standard_boards("quantitative", template), trials_per_target=2, base_seed=3)
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
            pipe = GesturePipeline(template.plane, template.frame)
            target = from_workplane(aimed, template.frame)
            for frame in generate_scenario(template, target, seed, FRAMES_PER_TRIAL):
                pipe.process(frame)
            drops.append(pipe.frames_seen - len(pipe.recent(template.hand, FRAMES_PER_TRIAL)))
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
    assert any(d > FRAMES_PER_TRIAL - template.snap_samples for d in drops)
    assert not all(snapped)  # fewer than snap_samples accepted: no snap
    assert any(s and t.selected_id is None for s, t in zip(snapped, trials))  # gate failed
    assert any(t.success for t in trials)
    assert _digests(reports) == {
        ("pick", "csv"): "b9589b1503cd4943b681d74c7d14c8aab108e577dbdec6344116fffaec756fda",
        ("pick", "json"): "fb396e432a4dc0a310a4c16f4cec8a35838f562bc08e3d6539439f27e3a6dba3",
        ("place", "csv"): "27fade53419a838dce0d0ea54e91483d7c8c923f9d82b8c6a3fe56041ba927b7",
        ("place", "json"): "db5745e2244be34b145d44e37baa9052bb9883fa8a734fe9fe2c1a9d3531c897",
    }


def _tilted_plane_case(rng: random.Random, pair: str) -> list[str]:
    """Every output of one seeded tilted plane and frame: both hands through
    ``pair`` over 40 frames that aim inside and outside the bounds, miss a
    joint, lose confidence, collapse the arm, point away or run parallel;
    each point in workplane and camera records, then the drop counters."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = sum(c * c for c in q) ** 0.5
    rows = Quaternion(*(c / norm for c in q)).to_matrix()
    origin = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    width, depth = rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2)

    def place(u: float, v: float, w: float) -> tuple[float, float, float]:
        return tuple(o + (a * u + b * v + c * w) for o, (a, b, c) in zip(origin, rows))

    corners = [Point3(*place(u, v, 0.0)) for u, v in ((0, 0), (width, 0), (width, depth), (0, depth))]
    plane = plane_from_corners(corners, Point3(*place(0.5 * width, 0.5 * depth, 2.0)))
    origin_corner = rng.randrange(4)
    frame = workplane_frame(plane, origin_corner, (origin_corner + rng.choice((1, 3))) % 4)
    settings = PipelineSettings(plane=plane, frame=frame, hands=("left", "right"), pair=pair)
    camera = PipelineSettings(plane=plane, frame=frame, frame_mode="camera")
    pipe = settings.make_pipeline()
    out = []
    for k in range(40):
        joints = {}
        for hand in ("left", "right"):
            kind = rng.choice(("aim", "aim", "aim", "aim", "missing", "low", "short", "away", "parallel"))
            tu, tv, tw = rng.uniform(-0.1, 1.1) * width, rng.uniform(-0.1, 1.1) * depth, 0.0
            su, sv, sw = tu + rng.uniform(-0.3, 0.3), tv + rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2)
            if kind == "away":  # mirrored through the shoulder: the hit lies behind
                tu, tv, tw = 2 * su - tu, 2 * sv - tv, 2 * sw
            elif kind == "parallel":
                tw = sw
            frac = 0.004 if kind == "short" else rng.uniform(0.3, 0.7)
            noise = 0.0 if kind == "parallel" else 0.003
            shoulder = place(su, sv, sw)
            wrist = tuple(c + rng.gauss(0.0, noise) for c in place(
                su + frac * (tu - su), sv + frac * (tv - sv), sw + frac * (tw - sw)))
            elbow = tuple(s + 0.5 * (w - s) + rng.gauss(0.0, noise) for s, w in zip(shoulder, wrist))
            confidence = rng.uniform(0.0, 0.25) if kind == "low" else rng.uniform(0.35, 1.0)
            for part, position in (("shoulder", shoulder), ("elbow", elbow), ("wrist", wrist)):
                joints[f"{hand}_{part}"] = (*position, confidence)
            if kind == "missing":
                del joints[f"{hand}_{rng.choice(('shoulder', 'elbow', 'wrist'))}"]
        for gp in pipe.process(KeypointFrame(timestamp=k / 30, joints=joints)):
            out.append(gesture_point_record(gp, settings))
            out.append(gesture_point_record(gp, camera))
    out.append(f"{pipe.frames_seen} {pipe.frames_without_ray} {pipe.discarded_out_of_bounds}")
    return out


@pytest.mark.parametrize(
    "pair, expected",
    [
        ("shoulder_wrist", "c3c45af245e6fb3fd47994debd0250cf62dc4099211a6dd97a75e71a42f2b0ef"),
        ("elbow_wrist", "2cfca5a10a4323a0ade6010ffa36161c3da349d74bdb716d93811871a31a9aae"),
    ],
)
def test_tilted_plane_pipeline_digest(pair, expected):
    """``GesturePipeline.process`` on 30 seeded tilted planes and frames, bit
    for bit: workplane and camera records of both hands, then the frame
    counters."""
    rng = random.Random(f"tilted-{pair}")
    lines = [line for _ in range(30) for line in _tilted_plane_case(rng, pair)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected


def test_plane_file_digest(tmp_path):
    """``save_plane_file`` bytes for 40 seeded tilted quadrilaterals, bit for
    bit: 3 and 4 corners (the 4th up to 4 mm off the plane), with a
    viewpoint on either side or none, each in every adjacent
    ``(origin_corner, x_corner)`` pair."""
    rng = random.Random("plane-files")
    path, digest = tmp_path / "plane.json", hashlib.sha256()
    for k in range(40):
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = sum(c * c for c in q) ** 0.5
        rows = Quaternion(*(c / norm for c in q)).to_matrix()
        origin = [rng.uniform(-1.0, 1.0) for _ in range(3)]

        def place(u: float, v: float, w: float) -> Point3:
            return Point3(*(o + (a * u + b * v + c * w) for o, (a, b, c) in zip(origin, rows)))

        width, depth, skew = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2), rng.uniform(-0.1, 0.1)
        corners = [place(0.0, 0.0, 0.0), place(width, 0.0, 0.0), place(width + skew, depth, 0.0)]
        if k % 2:
            corners.append(place(skew + rng.uniform(-0.02, 0.02), depth, rng.uniform(-0.004, 0.004)))
        viewpoint = (None, place(0.5 * width, 0.5 * depth, 2.0), place(0.3, 0.2, -1.5))[k % 3]
        plane = plane_from_corners(corners, viewpoint)
        for origin_corner in range(4):
            for x_corner in ((origin_corner + 1) % 4, (origin_corner + 3) % 4):
                frame = workplane_frame(plane, origin_corner, x_corner)
                save_plane_file(str(path), plane, frame, origin_corner, x_corner)
                digest.update(path.read_bytes())
    assert digest.hexdigest() == "dbfcf2612d545931fe1f06c9a0f12eac0bc62e20480b64b22ff0042c14adf17d"


# --- the scenario paths of the CLI ------------------------------------------------
# Each scenario file runs through ``generate``, and the tilted one through
# ``calibrate --scenario`` and ``sweep --scenario``. The sweep file's sigma and
# count are values the sweep ignores: it takes sigma from its flags and runs
# the template's frames per trial.

_SCENARIO_FILES = {
    "three-corners": "plane_corner_1 = 0, 0, 0\nplane_corner_2 = 0.6, 0, 0\nplane_corner_3 = 0.6, 0.8, 0\n"
                     "shoulder = 0.3, -0.1, 0.6\ntarget = 0.2, 0.5, 0\nsigma = 0\n"
                     "arm_length = 0.55\nseed = 1\ncount = 4\n",
    "tilted-left-15hz": "plane_corner_1 = 0, 0, 0\nplane_corner_2 = 0.6, 0, 0\nplane_corner_3 = 0.6, 0.8, 0.2\n"
                        "plane_corner_4 = 0, 0.8, 0.2\nshoulder = 0.3, -0.1, 0.6\ntarget = 0.3, 0.4, 0.1\n"
                        "sigma = 0.004\narm_length = 0.5\nseed = 2\ncount = 3\nframe_rate = 15\nhand = left\n",
    "noisy": "plane_corner_1 = 0, 0, 0\nplane_corner_2 = 0.6, 0, 0\nplane_corner_3 = 0.6, 0.8, 0\n"
             "plane_corner_4 = 0, 0.8, 0\nshoulder = 0.3, -0.1, 0.6\ntarget = 0.45, 0.55, 0\n"
             "sigma = 0.013\narm_length = 0.55\nseed = 3\ncount = 5\n",
}


def _scenario_file(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    path.write_text(_SCENARIO_FILES[name], encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name, expected", [
    ("three-corners", "ae97f25e6b9cdca5f2423853d89e27428940cc00e248750ff6e9247465fc9c44"),
    ("tilted-left-15hz", "538b3835dabfe9aeb588deec15009cd839b149455137ef15b5248eace06bd5ce"),
    ("noisy", "dbbafc8fd5ef90abb6d9eaeb266707978d2b05468ebfd843636d35eb191506ae"),
])
def test_generate_scenario_file_digest(tmp_path, name, expected):
    out = tmp_path / "stream.jsonl"
    argv = ["generate", "--scenario", _scenario_file(tmp_path, name), "--out", str(out), "--seed", "17", "--count", "9"]
    assert run_cli(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_calibrate_scenario_file_stdout(tmp_path, capsys):
    argv = ["calibrate", "--target-error", "0.027", "--scenario", _scenario_file(tmp_path, "tilted-left-15hz"),
            "--samples", "800", "--seed", "5", "--aim-bias", "0.003"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "0.013500\n"


@pytest.mark.parametrize("kind, lengths, expected", [
    ("pick", ["--distances", "0.3,0.06"],
     {"csv": "0473b9122908e452ae084da5b701280d7d1c7c03e2f052018cdfd13939a785e3",
      "json": "70544f35e73d35126f8349189d0cb3759afe5784e9a59bed85795c0353aea928"}),
    ("place", ["--sizes", "0.2,0.05"],
     {"csv": "79167df0f89bdbdb9cf47bd8fa3f3345c8fa49f64c0ea3aedba44c5ac75d927e",
      "json": "eb059f07146770c3c40225e18d81cd50178f02467f79fe52ca68eb3bb519632e"}),
])
def test_sweep_scenario_file_report_digests(tmp_path, kind, lengths, expected):
    out = tmp_path / "reports"
    argv = ["sweep", "--kind", kind, "--scenario", _scenario_file(tmp_path, "tilted-left-15hz"),
            "--sigma", "0.03", "--aim-bias", "0.01", "--n", "12", "--trials", "2", "--seed", "9",
            "--out", str(out), *lengths]
    assert run_cli(argv) == 0
    board = {"pick": "pick_square", "place": "place_areas"}[kind]
    assert {fmt: hashlib.sha256((out / f"{board}_report.{fmt}").read_bytes()).hexdigest()
            for fmt in ("csv", "json")} == expected
