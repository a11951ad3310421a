"""Command-line front end wiring the pipeline end to end.

Subcommands: define-plane, generate, replay, live, sweep, calibrate,
registry. Exit codes: 0 success, 1 runtime failure (write errors, port bind,
non-convergence, registry id conflicts), 2 usage or configuration error (bad
flags, missing or invalid input files).

The environment variable GESTURE_POINTER_CONFIG may name a flat
``key = value`` file supplying defaults for any long flag (dashes become
underscores, e.g. ``min_confidence = 0.4``); explicit flags win. Float flags
and float keys go through :func:`finite_float`, so ``nan`` or ``inf`` is a
usage error (exit 2).

Plane file format (written by define-plane, read by --plane):

    {"units": "m", "normal": [a, b, c], "d": d,
     "corners": [[x, y, z], ...4],
     "frame": {"origin_corner": 0, "x_corner": 1,
               "origin": [x, y, z], "quaternion": [w, x, y, z]}}

Corner files for define-plane hold pre-detected marker poses or clicked
pixels: {"corners": [{"x":..,"y":..,"z":..} | {"px":..,"py":..,"depth":..},
...], "intrinsics": {...}} (intrinsics required for the pixel form).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__
from .evaluation import (
    DEFAULT_TRIALS_PER_TARGET,
    EvalError,
    InvalidParametersError,
    NonConvergenceError,
    PICK_DISTANCES,
    PLACE_SIZES,
    ScenarioTemplate,
    calibrate_sigma,
    emit_report,
    load_boards,
    make_board,
    run_boards,
    save_boards,
    template_plane_size,
)
from .geometry import (
    GeometryError,
    PlanarPoint,
    Plane,
    Point3,
    Vec3,
    WorkplaneFrame,
    deproject,
    plane_from_corners,
    workplane_frame,
)
from .live import LiveServer, gesture_point_record
from .pipeline import HISTORY_CAPACITY, PipelineSettings
from .snap import (
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_STABILITY_THRESHOLD,
    Area,
    AreaRegistry,
    DuplicateIdError,
    MalformedFileError,
    SnapError,
    SnapRequest,
    Target,
    TargetRegistry,
    UnknownIdError,
    evaluate_request,
    layout_document,
    load_layout,
    save_layout,
)
from .stabilizer import DEFAULT_WINDOW
from .stream import (
    DEFAULT_MIN_CONFIDENCE,
    MalformedRecordError,
    StreamError,
    StreamReader,
    generate_scenario,
    load_scenario_config,
    parse_intrinsics_header,
    parse_kv_config,
    parse_triplet,
    write_stream,
)

ENV_CONFIG = "GESTURE_POINTER_CONFIG"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Bad or missing configuration/input files; maps to exit code 2."""


# exceptions that indicate the *inputs* were wrong, not that the run failed
_CONFIG_EXCEPTIONS = (
    ConfigError,
    GeometryError,
    StreamError,
    MalformedFileError,
    InvalidParametersError,
)


def finite_float(text: str) -> float:
    """The one parser of float flags and float env-config keys: NaN and
    infinities raise ValueError, so argparse and the env config exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


_ENV_KEY_TYPES = {
    "plane": str, "frame": str, "hand": str, "pair": str, "registry": str,
    "out": str, "scenario": str, "group": str, "listen": str,
    "n": int, "window": int, "origin_corner": int, "x_corner": int,
    "trials": int, "samples": int, "seed": int, "count": int,
    "threshold": finite_float, "min_confidence": finite_float, "sigma": finite_float,
    "calibrate": finite_float, "target_error": finite_float, "aim_bias": finite_float,
}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def _load_scenario(path: str):
    try:
        return load_scenario_config(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_layout(path: str):
    try:
        return load_layout(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_registries(path: str | None) -> tuple[TargetRegistry, AreaRegistry]:
    """Registries loaded once from a layout file; empty without one."""
    targets, areas = TargetRegistry(), AreaRegistry()
    if path:
        loaded_targets, loaded_areas = _load_layout(path)
        targets.replace_all(loaded_targets)
        areas.replace_all(loaded_areas)
    return targets, areas


def save_plane_file(
    path: str, plane: Plane, frame: WorkplaneFrame, origin_corner: int, x_corner: int
) -> None:
    q = frame.orientation
    doc = {
        "units": "m",
        "normal": [plane.normal.x, plane.normal.y, plane.normal.z],
        "d": plane.d,
        "corners": [[c.x, c.y, c.z] for c in plane.corners],
        "frame": {
            "origin_corner": origin_corner,
            "x_corner": x_corner,
            "origin": [frame.origin.x, frame.origin.y, frame.origin.z],
            "quaternion": [q.w, q.x, q.y, q.z],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plane_file(path: str) -> tuple[Plane, WorkplaneFrame, int, int]:
    """Load a plane file; the frame is recomputed from the stored corner
    indices so hand-edited corners stay consistent."""
    doc = _read_json(path)
    try:
        normal = Vec3(*[float(x) for x in doc["normal"]])
        corners = tuple(Point3(*[float(x) for x in c]) for c in doc["corners"])
        plane = Plane(normal=normal, d=float(doc["d"]), corners=corners)
        frame_spec = doc.get("frame", {})
        origin_corner = int(frame_spec.get("origin_corner", 0))
        x_corner = int(frame_spec.get("x_corner", 1))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: bad plane file: {exc}") from exc
    frame = workplane_frame(plane, origin_corner, x_corner)
    return plane, frame, origin_corner, x_corner


def load_corner_file(path: str) -> tuple[list[Point3], bool]:
    """Read corner points (3D, or pixel+depth deprojected through the file's
    intrinsics). Returns (corners, used_pixels)."""
    doc = _read_json(path)
    raw = doc.get("corners")
    if not isinstance(raw, list) or not 3 <= len(raw) <= 4:
        raise ConfigError(f"{path}: expected 3 or 4 corners")
    try:
        intrinsics = parse_intrinsics_header(doc)
    except MalformedRecordError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    corners: list[Point3] = []
    used_pixels = False
    for i, spec in enumerate(raw, start=1):
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: corner {i} must be an object")
        try:
            if {"x", "y", "z"} <= spec.keys():
                corners.append(Point3(float(spec["x"]), float(spec["y"]), float(spec["z"])))
            elif {"px", "py", "depth"} <= spec.keys():
                if intrinsics is None:
                    raise ConfigError(f"{path}: corner {i} uses pixels but the file has no intrinsics")
                used_pixels = True
                corners.append(
                    deproject((float(spec["px"]), float(spec["py"])), float(spec["depth"]), intrinsics)
                )
            else:
                raise ConfigError(f"{path}: corner {i} needs x/y/z or px/py/depth")
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{path}: corner {i}: {exc}") from exc
    return corners, used_pixels


def _positive(name: str, value, *, minimum=0) -> None:
    if value is not None and value <= minimum:
        raise ConfigError(f"{name} must be > {minimum}, got {value}")


def _settings_from_args(args) -> PipelineSettings:
    if args.plane is None:
        raise ConfigError("--plane FILE is required")
    plane, frame, _, _ = load_plane_file(args.plane)
    if args.n is not None and not 1 <= args.n <= HISTORY_CAPACITY:
        raise ConfigError(f"--n must be in 1..{HISTORY_CAPACITY}, got {args.n}")
    _positive("--threshold", args.threshold)
    _positive("--window", args.window)
    if args.min_confidence is not None and not 0 <= args.min_confidence <= 1:
        raise ConfigError(f"--min-confidence must be in [0, 1], got {args.min_confidence}")
    # only the flags given override the PipelineSettings defaults
    given = {
        "frame_mode": args.frame,
        "min_confidence": args.min_confidence,
        "snap_samples": args.n,
        "threshold": args.threshold,
        "window": args.window,
        "group": getattr(args, "group", None),
    }
    if args.hand:
        given["hands"] = ("left", "right") if args.hand == "both" else (args.hand,)
    if args.pair:
        given["pair"] = args.pair.replace("-", "_")
    return PipelineSettings(
        plane=plane, frame=frame, **{k: v for k, v in given.items() if v is not None}
    )


# --- subcommands -------------------------------------------------------------


def cmd_define_plane(args) -> int:
    corners, used_pixels = load_corner_file(args.corners)
    viewpoint = None
    if args.viewpoint is not None:
        viewpoint = parse_triplet(args.viewpoint, "--viewpoint")
    elif used_pixels:
        viewpoint = Point3(0.0, 0.0, 0.0)  # pixel corners imply the camera at the origin
    try:
        plane = plane_from_corners(corners, viewpoint)
    except GeometryError as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    origin_corner = args.origin_corner if args.origin_corner is not None else 0
    x_corner = args.x_corner if args.x_corner is not None else 1
    frame = workplane_frame(plane, origin_corner, x_corner)
    save_plane_file(args.out, plane, frame, origin_corner, x_corner)
    q = frame.orientation
    print(f"normal = ({plane.normal.x:.6f}, {plane.normal.y:.6f}, {plane.normal.z:.6f})")
    print(f"d = {plane.d:.6f} m")
    print(f"frame quaternion (w,x,y,z) = ({q.w:.6f}, {q.x:.6f}, {q.y:.6f}, {q.z:.6f})")
    for i, c in enumerate(plane.corners, start=1):
        print(f"corner {i} residual = {plane.signed_distance(c):+.6f} m")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    scenario = _load_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.count is not None:
        overrides["sample_count"] = args.count
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    count = write_stream(args.out, generate_scenario(scenario))
    print(f"wrote {count} frames to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args) -> int:
    settings = _settings_from_args(args)
    pipe = settings.make_pipeline()
    if args.snap and not args.registry:
        raise ConfigError("--snap needs --registry FILE")
    targets, areas = _load_registries(args.registry if args.snap else None)
    accepted: dict[str, int] = {hand: 0 for hand in settings.hands}
    frames = 0
    points_written = 0
    try:
        # undecodable bytes become U+FFFD and fail as one malformed line, as live
        stream = open(args.stream, "r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read {args.stream}: {exc}") from exc
    reader = StreamReader(stream, skip_malformed=True)
    # line buffering: whole records reach the file even on interruption
    with stream, open(args.out, "w", encoding="utf-8", buffering=1) as out:
        for frame in reader:
            frames += 1
            for gp in pipe.process(frame):
                out.write(gesture_point_record(gp, settings) + "\n")
                points_written += 1
                if args.snap:
                    accepted[gp.hand] += 1
                    if accepted[gp.hand] % settings.snap_samples == 0:
                        request = SnapRequest(
                            samples=tuple(pipe.recent(gp.hand, settings.snap_samples)),
                            strategy=args.snap,
                            group_filter=settings.group,
                        )
                        result = evaluate_request(
                            request, targets.snapshot(), areas.snapshot(),
                            threshold=settings.threshold,
                        )
                        record = {
                            "t": gp.timestamp,
                            "hand": gp.hand,
                            "snap": {
                                "ok": result is not None,
                                "id": result.selected_id if result else None,
                                "fallback": result.fallback_used if result else False,
                            },
                        }
                        out.write(json.dumps(record, separators=(",", ":")) + "\n")
    for message in reader.warnings:
        print(f"warning: {message}", file=sys.stderr)
    warnings = reader.malformed + reader.nonmonotonic + pipe.frames_without_ray
    print(f"frames={frames} points={points_written} warnings={warnings}", file=sys.stderr)
    return EXIT_OK


def cmd_live(args) -> int:
    settings = _settings_from_args(args)
    targets, areas = _load_registries(args.registry)
    listen = args.listen or "127.0.0.1:0"
    host, sep, port_text = listen.rpartition(":")
    if not sep:
        raise ConfigError(f"--listen expects HOST:PORT, got {listen!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigError(f"bad port {port_text!r}") from exc
    server = LiveServer(host or "127.0.0.1", port, settings, targets, areas)
    bound_host, bound_port = server.address
    try:
        # the ready line is printed inside the try so an interrupt any time
        # after it appears still shuts down cleanly
        print(json.dumps({"listening": f"{bound_host}:{bound_port}"}), flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return EXIT_OK


def _template_from_args(args, sigma: float) -> ScenarioTemplate:
    overrides = {}
    if args.n is not None:
        overrides["snap_samples"] = args.n
    if args.threshold is not None:
        overrides["stability_threshold"] = args.threshold
    if getattr(args, "aim_bias", None) is not None:
        overrides["aim_bias_sigma"] = args.aim_bias
    if args.scenario:
        scenario = _load_scenario(args.scenario)
        plane = scenario.plane
        frame = workplane_frame(plane)
        return ScenarioTemplate(
            plane=plane,
            frame=frame,
            shoulder_base=scenario.shoulder_base,
            arm_length=scenario.arm_length,
            sigma=sigma,
            frame_rate=scenario.frame_rate,
            hand=scenario.hand,
            **overrides,
        )
    return ScenarioTemplate.desk_default(sigma, **overrides)


def _parse_l_values(text: str) -> tuple[float, ...]:
    try:
        values = tuple(finite_float(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad length list {text!r}: {exc}") from exc
    if not values or any(v <= 0 for v in values):
        raise ConfigError(f"length list must hold positive sizes, got {text!r}")
    return values


def cmd_sweep(args) -> int:
    if args.calibrate is not None and args.sigma is not None:
        raise ConfigError("give either --sigma or --calibrate, not both")
    _positive("--trials", args.trials)
    _positive("--threshold", args.threshold)
    if args.sigma is not None and args.sigma < 0:
        raise ConfigError(f"--sigma must be >= 0, got {args.sigma}")
    seed = args.seed if args.seed is not None else 0
    trials = args.trials if args.trials is not None else DEFAULT_TRIALS_PER_TARGET
    sigma = args.sigma if args.sigma is not None else 0.0
    template = _template_from_args(args, sigma)
    if args.calibrate is not None:
        calibrated = calibrate_sigma(args.calibrate, template, seed=seed)
        template = dataclasses.replace(template, sigma=calibrated)
    size = template_plane_size(template)
    if args.board:
        try:
            boards = load_boards(args.board)
        except (OSError, EvalError) as exc:
            raise ConfigError(f"bad board file: {exc}") from exc
        mode = "place" if args.kind == "place" else "pick"
        for i, board in enumerate(boards, start=1):
            if ("pick" if board.targets else "place") != mode:
                raise ConfigError(f"{args.board}: board {i} ({board.kind}) does not fit --kind {args.kind}")
    elif args.kind == "pick":
        distances = _parse_l_values(args.distances) if args.distances else PICK_DISTANCES
        boards = [make_board("pick_square", l, plane_size=size) for l in distances]
    elif args.kind == "place":
        sizes = _parse_l_values(args.sizes) if args.sizes else PLACE_SIZES
        boards = [make_board("place_areas", l, plane_size=size) for l in sizes]
    else:
        boards = [make_board("quantitative_10", plane_size=size)]
    report = run_boards(template, boards, trials, seed)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for fmt in ("csv", "json"):
        path = os.path.join(out_dir, f"{report.kind}_report.{fmt}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_report(report, fmt))
        paths.append(path)
    boards_path = os.path.join(out_dir, f"{report.kind}_boards.json")
    save_boards(boards_path, boards)
    paths.append(boards_path)
    print(f"sigma_m={template.sigma:.6f}", file=sys.stderr)
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    template = _template_from_args(args, 0.0)
    sigma = calibrate_sigma(
        args.target_error,
        template,
        samples=args.samples if args.samples is not None else 10_000,
        seed=args.seed if args.seed is not None else 0,
    )
    print(f"{sigma:.6f}")
    return EXIT_OK


def cmd_registry(args) -> int:
    path = args.file
    if args.action == "init":
        if os.path.exists(path) and not args.force:
            raise RuntimeError(f"{path} already exists (use --force to overwrite)")
        save_layout(path, [], [])
        print(f"wrote {path}")
        return EXIT_OK
    targets, areas = _load_layout(path)
    if args.action == "list":
        print(json.dumps(layout_document(targets, areas), indent=2, sort_keys=True))
        return EXIT_OK
    if args.action == "add-target":
        _require(args, "id", "u", "v")
        new = Target(
            id=args.id,
            label=args.label or args.id,
            position=PlanarPoint(args.u, args.v),
            group=args.group,
        )
        if any(t.id == new.id for t in targets):
            raise DuplicateIdError(f"target id {new.id!r} already registered")
        targets.append(new)
    elif args.action == "remove-target":
        _require(args, "id")
        if not any(t.id == args.id for t in targets):
            raise UnknownIdError(f"target id {args.id!r} not registered")
        targets = [t for t in targets if t.id != args.id]
    elif args.action == "add-area":
        _require(args, "id", "cu", "cv", "hu", "hv")
        new_area = Area(
            id=args.id, center=PlanarPoint(args.cu, args.cv), half_extent=(args.hu, args.hv)
        )
        if any(a.id == new_area.id for a in areas):
            raise DuplicateIdError(f"area id {new_area.id!r} already registered")
        areas.append(new_area)
    elif args.action == "remove-area":
        _require(args, "id")
        if not any(a.id == args.id for a in areas):
            raise UnknownIdError(f"area id {args.id!r} not registered")
        areas = [a for a in areas if a.id != args.id]
    else:
        raise ConfigError(f"unknown registry action {args.action!r}")
    save_layout(path, targets, areas)
    print(f"wrote {path}")
    return EXIT_OK


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigError(f"missing required flags: {', '.join('--' + n for n in missing)}")


# --- parser ------------------------------------------------------------------


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plane", help="plane JSON file (from define-plane)")
    p.add_argument("--frame", choices=("workplane", "camera"),
                   help="output coordinate frame (default workplane)")
    p.add_argument("--hand", choices=("left", "right", "both"), help="hand selection")
    p.add_argument("--pair", choices=("shoulder-wrist", "elbow-wrist"), help="joint pair")
    p.add_argument("--min-confidence", dest="min_confidence", type=finite_float,
                   help=f"joint confidence floor (default {DEFAULT_MIN_CONFIDENCE})")
    p.add_argument("--n", type=int,
                   help=f"snap sample count, 1..{HISTORY_CAPACITY} (default {DEFAULT_SAMPLE_COUNT})")
    p.add_argument("--threshold", type=finite_float,
                   help=f"stability threshold in meters (default {DEFAULT_STABILITY_THRESHOLD})")
    p.add_argument("--window", type=int, help=f"stabilizer window (default {DEFAULT_WINDOW})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesturepoint",
        description="Localize pointed targets on a planar workspace from skeleton streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("define-plane", help="build a workplane file from corner points")
    p.add_argument("--corners", required=True, help="corner JSON file (3D or pixel+depth)")
    p.add_argument("--out", required=True, help="plane file to write")
    p.add_argument("--origin-corner", dest="origin_corner", type=int, help="frame origin corner (default 0)")
    p.add_argument("--x-corner", dest="x_corner", type=int, help="frame x-axis corner (default 1)")
    p.add_argument("--viewpoint", help="orient the normal toward this point, 'x,y,z'")
    p.set_defaults(func=cmd_define_plane)

    p = sub.add_parser("generate", help="synthesize a skeleton stream from a scenario config")
    p.add_argument("--scenario", required=True, help="flat key=value scenario file")
    p.add_argument("--out", required=True, help="stream JSONL to write")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--count", type=int, help="override the scenario frame count")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("replay", help="run a recorded stream through the pipeline")
    _add_pipeline_flags(p)
    p.add_argument("--stream", required=True, help="skeleton JSONL file")
    p.add_argument("--out", required=True, help="gesture-point JSONL to write")
    p.add_argument("--snap", choices=("pick", "place"), help="attempt a snap every N accepted points")
    p.add_argument("--registry", help="targets/areas JSON file for --snap")
    p.add_argument("--group", help="target group filter for pick snaps")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("live", help="serve the line protocol over TCP")
    _add_pipeline_flags(p)
    p.add_argument("--listen", help="HOST:PORT to bind (default 127.0.0.1:0)")
    p.add_argument("--registry", help="targets/areas JSON file")
    p.add_argument("--group", help="default target group filter")
    p.set_defaults(func=cmd_live)

    p = sub.add_parser("sweep", help="run a seeded Monte-Carlo selection sweep")
    p.add_argument("--kind", required=True, choices=("pick", "place", "quantitative"))
    p.add_argument("--sigma", type=finite_float, help="joint noise sigma in meters (default 0)")
    p.add_argument("--aim-bias", dest="aim_bias", type=finite_float,
                   help="per-trial aim bias sigma in meters (default 0)")
    p.add_argument("--calibrate", type=finite_float, metavar="ERROR_M",
                   help="calibrate sigma to this mean intersection error first")
    p.add_argument("--trials", type=int,
                   help=f"trials per target (default {DEFAULT_TRIALS_PER_TARGET})")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--distances", help="comma-separated pick square sides in meters")
    p.add_argument("--sizes", help="comma-separated place area sides in meters")
    p.add_argument("--board", help="board layout JSON file replacing the generated series")
    p.add_argument("--scenario", help="scenario config supplying plane/shoulder/arm")
    p.add_argument("--n", type=int, help=f"snap sample count (default {DEFAULT_SAMPLE_COUNT})")
    p.add_argument("--threshold", type=finite_float,
                   help=f"stability threshold (default {DEFAULT_STABILITY_THRESHOLD})")
    p.add_argument("--out", help="report directory (default .)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="find the sigma matching a target mean error")
    p.add_argument("--target-error", dest="target_error", type=finite_float, required=True,
                   help="target mean intersection error in meters")
    p.add_argument("--scenario", help="scenario config supplying plane/shoulder/arm")
    p.add_argument("--aim-bias", dest="aim_bias", type=finite_float,
                   help="per-trial aim bias sigma held fixed during calibration")
    p.add_argument("--samples", type=int, help="Monte-Carlo samples per evaluation (default 10000)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--n", type=int, help=argparse.SUPPRESS)
    p.add_argument("--threshold", type=finite_float, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("registry", help="create and edit target/area files")
    p.add_argument("action", choices=("init", "list", "add-target", "remove-target",
                                      "add-area", "remove-area"))
    p.add_argument("--file", required=True, help="layout JSON file")
    p.add_argument("--force", action="store_true", help="allow init to overwrite")
    p.add_argument("--id", help="target/area id")
    p.add_argument("--label", help="target label")
    p.add_argument("--group", help="target group")
    p.add_argument("--u", type=finite_float, help="target u, meters")
    p.add_argument("--v", type=finite_float, help="target v, meters")
    p.add_argument("--cu", type=finite_float, help="area center u, meters")
    p.add_argument("--cv", type=finite_float, help="area center v, meters")
    p.add_argument("--hu", type=finite_float, help="area half extent u, meters")
    p.add_argument("--hv", type=finite_float, help="area half extent v, meters")
    p.set_defaults(func=cmd_registry)

    return parser


def _apply_env_config(args: argparse.Namespace) -> None:
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return
    try:
        cfg = parse_kv_config(_read_text(path))
    except StreamError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for key, raw in cfg.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or getattr(args, dest) is not None:
            continue
        caster = _ENV_KEY_TYPES.get(dest, str)
        try:
            setattr(args, dest, caster(raw))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        _apply_env_config(args)
        return args.func(args)
    except _CONFIG_EXCEPTIONS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, NonConvergenceError, DuplicateIdError, UnknownIdError,
            SnapError, EvalError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
