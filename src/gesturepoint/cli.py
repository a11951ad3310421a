"""Command-line front end wiring the pipeline end to end.

Subcommands: define-plane, generate, replay, live, sweep, calibrate,
registry; only generate, sweep and calibrate import ``evaluation`` and numpy.
Exit codes: 0 success, 1 runtime failure (write errors, port bind,
non-convergence, registry id conflicts), 2 usage or configuration error (bad
flags, missing or invalid input files).

The environment variable GESTURE_POINTER_CONFIG may name a flat
``key = value`` file supplying defaults for the chosen subcommand's optional
flags that take a value (dashes become underscores, e.g.
``min_confidence = 0.4``); explicit flags win, and other keys are ignored.
Each value goes through its flag's own type and choices, so ``nan``, ``inf``
or an unknown choice is a usage error (exit 2) from either source.

Plane file format (written by define-plane, read by --plane):

    {"units": "m", "normal": [a, b, c], "d": d,
     "corners": [[x, y, z], ...4],
     "frame": {"origin_corner": 0, "x_corner": 1,
               "origin": [x, y, z], "quaternion": [w, x, y, z]}}

Corner files for define-plane hold pre-detected marker poses or clicked
pixels: {"corners": [{"x":..,"y":..,"z":..} | {"px":..,"py":..,"depth":..},
...], "intrinsics": {...}} (intrinsics required for the pixel form).

Every input file goes through ``stream``'s readers: ``read_text`` (UTF-8,
optionally BOM-prefixed), the JSON decoder ``decode_object``, ``json_number``
and ``json_int`` for its numbers, and ``parse_position`` for corners.
Replay's stream is the one other file read.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .geometry import (
    GeometryError,
    PlanarPoint,
    Plane,
    Point3,
    WorkplaneFrame,
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
    Target,
    TargetRegistry,
    checked_half_extent,
    layout_document,
    load_layout,
    save_layout,
    snap_fields,
)
from .stabilizer import DEFAULT_WINDOW
from .stream import (
    DEFAULT_CALIBRATION_SAMPLES,
    DEFAULT_MIN_CONFIDENCE,
    DEFAULT_TRIALS_PER_TARGET,
    ConfigError,
    EvalError,
    InvalidParametersError,
    MalformedRecordError,
    StreamError,
    StreamReader,
    decimal_int,
    decode_object,
    finite_float,
    json_int,
    json_number,
    parse_intrinsics_header,
    parse_kv_config,
    parse_position,
    parse_triplet,
    read_text,
    write_document,
    write_stream,
)

ENV_CONFIG = "GESTURE_POINTER_CONFIG"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# exceptions that indicate the *inputs* were wrong, not that the run failed
_CONFIG_EXCEPTIONS = (
    ConfigError,
    GeometryError,
    StreamError,
    MalformedFileError,
    InvalidParametersError,
)


def non_negative_int(text: str) -> int:
    """The type of every ``--seed`` flag (and ``seed`` config key)."""
    value = decimal_int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """The type of ``generate --count`` (and the ``count`` config key)."""
    value = decimal_int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


def _load_registries(path: str | None) -> tuple[TargetRegistry, AreaRegistry]:
    """Registries loaded once from a layout file; empty without one."""
    targets, areas = TargetRegistry(), AreaRegistry()
    if path:
        loaded_targets, loaded_areas = load_layout(path)
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
    write_document(path, doc)


def load_plane_file(path: str) -> tuple[Plane, WorkplaneFrame, int, int]:
    """Load a plane file; the frame is recomputed from the stored corner
    indices so hand-edited corners stay consistent."""
    doc, what = decode_object(read_text(path), ConfigError, path), f"{path}: bad plane file"
    corners, frame_spec = doc.get("corners"), doc.get("frame", {})
    if not (isinstance(corners, list) and len(corners) == 4):
        raise ConfigError(f'{what}: "corners" must be a list of four corners')
    if not isinstance(frame_spec, dict):
        raise ConfigError(f'{what}: "frame" must be an object, got {type(frame_spec).__name__}')
    plane = Plane(normal=Point3(*_three_numbers(doc.get("normal"), what, "normal")),
                  d=json_number(doc.get("d"), ConfigError, what, "d"),
                  corners=tuple(Point3(*_three_numbers(c, what, "corners")) for c in corners))
    origin_corner = json_int(frame_spec.get("origin_corner", 0), ConfigError, what, "origin_corner")
    x_corner = json_int(frame_spec.get("x_corner", 1), ConfigError, what, "x_corner")
    frame = workplane_frame(plane, origin_corner, x_corner)
    return plane, frame, origin_corner, x_corner


def _three_numbers(value, what: str, name: str) -> tuple[float, float, float]:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{what} {name!r}: expected a list of three numbers")
    return (json_number(value[0], ConfigError, what, name), json_number(value[1], ConfigError, what, name),
            json_number(value[2], ConfigError, what, name))


def load_corner_file(path: str) -> tuple[list[Point3], bool]:
    """Read corner points through the stream's joint-position parser (3D, or
    pixel+depth deprojected through the file's intrinsics). Returns
    (corners, used_pixels)."""
    doc = decode_object(read_text(path), ConfigError, path)
    raw = doc.get("corners")
    if not isinstance(raw, list) or not 3 <= len(raw) <= 4:
        raise ConfigError(f"{path}: expected 3 or 4 corners")
    try:
        intrinsics = parse_intrinsics_header(doc)
        corners = [parse_position(spec, intrinsics, "corner", i) for i, spec in enumerate(raw, start=1)]
    except MalformedRecordError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return corners, any(not {"x", "y", "z"} <= spec.keys() for spec in raw)


def _positive(name: str, value) -> None:
    if value is not None and value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")


def _settings_from_args(args) -> PipelineSettings:
    if args.plane is None:
        raise ConfigError("--plane FILE is required")
    plane, frame, _, _ = load_plane_file(args.plane)
    if args.n is not None and not 1 <= args.n <= HISTORY_CAPACITY:
        raise ConfigError(f"--n must be in 1..{HISTORY_CAPACITY}, got {args.n}")
    _positive("--threshold", args.threshold)
    _positive("--window", args.window)
    if args.window is not None and args.window > sys.maxsize:  # the stabilizer's deque bound
        raise ConfigError(f"--window must be at most {sys.maxsize}, got {args.window}")
    if args.min_confidence is not None and not 0 <= args.min_confidence <= 1:
        raise ConfigError(f"--min-confidence must be in [0, 1], got {args.min_confidence}")
    # only the flags given override the PipelineSettings defaults
    given = {
        "frame_mode": args.frame,
        "min_confidence": args.min_confidence,
        "snap_samples": args.n,
        "threshold": args.threshold,
        "window": args.window,
        "group": args.group,
    }
    if args.hand:
        given["hands"] = ("left", "right") if args.hand == "both" else (args.hand,)
    if args.pair:
        given["pair"] = args.pair.replace("-", "_")
    return PipelineSettings(
        plane=plane, frame=frame, **{k: v for k, v in given.items() if v is not None}
    )


# --- subcommands -------------------------------------------------------------


def _check_out_spares_inputs(out: str, *inputs: str | None) -> None:
    """Writing ``--out`` destroys what it held, so it may name no file the
    command reads; naming one is a ConfigError (exit 2)."""
    for path in inputs:
        try:
            same = path is not None and os.path.samefile(out, path)
        except (OSError, ValueError):  # --out does not exist yet, or a path holds a NUL
            same = False
        if same:
            raise ConfigError(f"--out {out} is the input file {path}; writing it would destroy it")


def cmd_define_plane(args) -> int:
    _check_out_spares_inputs(args.out, args.corners)
    corners, used_pixels = load_corner_file(args.corners)
    viewpoint = None
    if args.viewpoint is not None:
        viewpoint = parse_triplet(args.viewpoint, "--viewpoint")
    elif used_pixels:
        viewpoint = Point3(0.0, 0.0, 0.0)  # pixel corners imply the camera at the origin
    plane = plane_from_corners(corners, viewpoint)
    frame = workplane_frame(plane, args.origin_corner, args.x_corner)
    save_plane_file(args.out, plane, frame, args.origin_corner, args.x_corner)
    q = frame.orientation
    print(f"normal = ({plane.normal.x:.6f}, {plane.normal.y:.6f}, {plane.normal.z:.6f})")
    print(f"d = {plane.d:.6f} m")
    print(f"frame quaternion (w,x,y,z) = ({q.w:.6f}, {q.x:.6f}, {q.y:.6f}, {q.z:.6f})")
    for i, c in enumerate(plane.corners, start=1):
        print(f"corner {i} residual = {plane.signed_distance(c):+.6f} m")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    from .evaluation import generate_scenario, load_scenario_config

    _check_out_spares_inputs(args.out, args.scenario)
    template, target, seed, count = load_scenario_config(args.scenario)
    if args.seed is not None:
        seed = args.seed
    if args.count is not None:
        count = args.count
    written = write_stream(args.out, generate_scenario(template, target, seed, count))
    print(f"wrote {written} frames to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args) -> int:
    settings = _settings_from_args(args)
    pipe = settings.make_pipeline()
    if args.snap and not args.registry:
        raise ConfigError("--snap needs --registry FILE")
    targets, areas = load_layout(args.registry) if args.snap else ([], [])
    pool, kind = (targets, "targets") if args.snap == "pick" else (areas, "areas")
    if args.snap and not pool:
        raise ConfigError(f"{args.registry}: no {kind} registered for --snap {args.snap}")
    accepted: dict[str, int] = {hand: 0 for hand in settings.hands}
    points_written = 0
    _check_out_spares_inputs(args.out, args.plane, args.stream, args.registry if args.snap else None)
    try:
        # undecodable bytes become U+FFFD and fail as one malformed line, as live
        stream = open(args.stream, "r", encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read {args.stream}: {exc}") from exc
    reader = StreamReader(stream, skip_malformed=True,
                          on_warning=lambda message: print(f"warning: {message}", file=sys.stderr))
    # line buffering and one write per frame: whole records reach the file
    # even on interruption
    with stream, open(args.out, "w", encoding="utf-8", buffering=1) as out:
        for frame in reader:
            records = []
            for gp in pipe.process(frame):
                records.append(gesture_point_record(gp, settings))
                points_written += 1
                if args.snap:
                    accepted[gp.hand] += 1
                    if accepted[gp.hand] % settings.snap_samples == 0:
                        result = pipe.snap(gp.hand, settings.snap_samples, args.snap, settings.group,
                                           targets, areas, settings.threshold)
                        record = {"t": gp.timestamp, "hand": gp.hand, "snap": snap_fields(result)}
                        records.append(json.dumps(record, separators=(",", ":")))
            if records:
                out.write("\n".join(records) + "\n")
    warnings = reader.malformed + reader.nonmonotonic + pipe.frames_without_ray
    print(f"frames={pipe.frames_seen} points={points_written} warnings={warnings}", file=sys.stderr)
    return EXIT_OK


def cmd_live(args) -> int:
    settings = _settings_from_args(args)
    targets, areas = _load_registries(args.registry)
    host, sep, port_text = args.listen.rpartition(":")
    if not sep:
        raise ConfigError(f"--listen expects HOST:PORT, got {args.listen!r}")
    if not (len(port_text) <= 5 and port_text.isascii() and port_text.isdecimal()
            and int(port_text) <= 65535):
        raise ConfigError(f"bad port {port_text!r}")
    try:
        server = LiveServer(host or "127.0.0.1", int(port_text), settings, targets, areas)
    except TypeError as exc:  # the socket layer's verdict on a host it cannot encode (a NUL, bad IDNA)
        raise ConfigError(f"bad --listen host {host!r}: {exc}") from exc
    bound_host, bound_port = server.address
    try:
        # the ready line is printed inside the try so an interrupt any time
        # after it appears still shuts down cleanly
        print(json.dumps({"listening": f"{bound_host}:{bound_port}"}), flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def _template_from_args(args, sigma: float, **flags):
    """The scenario file's template (its target, seed and count unused), or
    the desk default, with ``sigma``, and ``--aim-bias`` and the template
    fields in ``flags`` where they are not None."""
    from .evaluation import ScenarioTemplate, load_scenario_config

    template = load_scenario_config(args.scenario)[0] if args.scenario else ScenarioTemplate.desk_default()
    flags["aim_bias_sigma"] = args.aim_bias
    return dataclasses.replace(template, sigma=sigma, **{k: v for k, v in flags.items() if v is not None})


def _parse_l_values(text: str) -> tuple[float, ...]:
    try:
        values = tuple(finite_float(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad length list {text!r}: {exc}") from exc
    if not values or any(v <= 0 for v in values):
        raise ConfigError(f"length list must hold positive sizes, got {text!r}")
    return values


def cmd_sweep(args) -> int:
    from .evaluation import (
        aimed_targets, calibrate_sigma, emit_report, load_boards, run_boards, save_boards, standard_boards,
    )

    if args.calibrate is not None and args.sigma is not None:
        raise ConfigError("give either --sigma or --calibrate, not both")
    _positive("--trials", args.trials)
    template = _template_from_args(args, args.sigma or 0.0, snap_samples=args.n, stability_threshold=args.threshold)
    # the series and its workspace check need no sigma, so a bad one fails before calibration
    if args.board:
        try:
            boards = load_boards(args.board)
        except EvalError as exc:
            raise ConfigError(f"bad board file: {exc}") from exc
        mode = "place" if args.kind == "place" else "pick"
        for i, board in enumerate(boards, start=1):
            if ("pick" if board.targets else "place") != mode:
                raise ConfigError(f"{args.board}: board {i} ({board.kind}) does not fit --kind {args.kind}")
    else:
        lengths = {"pick": args.distances, "place": args.sizes}.get(args.kind)
        boards = standard_boards(args.kind, template, _parse_l_values(lengths) if lengths else None)
    aimed_targets(template, boards)
    if args.calibrate is not None:
        calibrated = calibrate_sigma(args.calibrate, template, seed=args.seed)
        template = dataclasses.replace(template, sigma=calibrated)
    report = run_boards(template, boards, args.trials, args.seed)
    try:
        os.makedirs(args.out, exist_ok=True)
    except ValueError as exc:  # a NUL in the path
        raise ConfigError(f"cannot create {args.out!r}: {exc}") from exc
    paths = []
    for fmt in ("csv", "json"):
        path = os.path.join(args.out, f"{report.kind}_report.{fmt}")
        write_document(path, emit_report(report, fmt))
        paths.append(path)
    boards_path = os.path.join(args.out, f"{report.kind}_boards.json")
    save_boards(boards_path, boards)
    paths.append(boards_path)
    print(f"sigma_m={template.sigma:.6f}", file=sys.stderr)
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    from .evaluation import calibrate_sigma

    _positive("--samples", args.samples)
    template = _template_from_args(args, 0.0)
    sigma = calibrate_sigma(args.target_error, template, samples=args.samples, seed=args.seed)
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
    targets, areas = load_layout(path)
    if args.action == "list":
        print(json.dumps(layout_document(targets, areas), indent=2, sort_keys=True))
        return EXIT_OK
    op, kind = args.action.split("-")
    entries = targets if kind == "target" else areas
    if op == "add":
        if kind == "target":
            _require(args, "id", "u", "v")
            new = Target(id=args.id, label=args.label or args.id,
                         position=PlanarPoint(args.u, args.v), group=args.group or None)
        else:
            _require(args, "id", "cu", "cv", "hu", "hv")
            new = Area(id=args.id, center=PlanarPoint(args.cu, args.cv),
                       half_extent=checked_half_extent(args.id, args.hu, args.hv, ConfigError))
        if any(e.id == new.id for e in entries):
            raise DuplicateIdError(f"{kind} id {new.id!r} already registered")
        entries.append(new)
    else:
        _require(args, "id")
        if not any(e.id == args.id for e in entries):
            raise SnapError(f"{kind} id {args.id!r} not registered")
        entries[:] = [e for e in entries if e.id != args.id]
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
    p.add_argument("--n", type=decimal_int,
                   help=f"snap sample count, 1..{HISTORY_CAPACITY} (default {DEFAULT_SAMPLE_COUNT})")
    p.add_argument("--threshold", type=finite_float,
                   help=f"stability threshold in meters (default {DEFAULT_STABILITY_THRESHOLD})")
    p.add_argument("--window", type=decimal_int, help=f"stabilizer window (default {DEFAULT_WINDOW})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesturepoint",
        description="Localize pointed targets on a planar workspace from skeleton streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(commands=sub.choices)

    p = sub.add_parser("define-plane", help="build a workplane file from corner points")
    p.add_argument("--corners", required=True, help="corner JSON file (3D or pixel+depth)")
    p.add_argument("--out", required=True, help="plane file to write")
    p.add_argument("--origin-corner", dest="origin_corner", type=decimal_int, default=0,
                   help="frame origin corner (default %(default)s)")
    p.add_argument("--x-corner", dest="x_corner", type=decimal_int, default=1,
                   help="frame x-axis corner (default %(default)s)")
    p.add_argument("--viewpoint", help="orient the normal toward this point, 'x,y,z'")
    p.set_defaults(func=cmd_define_plane)

    p = sub.add_parser("generate", help="synthesize a skeleton stream from a scenario config")
    p.add_argument("--scenario", required=True, help="flat key=value scenario file")
    p.add_argument("--out", required=True, help="stream JSONL to write")
    p.add_argument("--seed", type=non_negative_int, help="override the scenario seed")
    p.add_argument("--count", type=positive_int, help="override the scenario frame count")
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
    p.add_argument("--listen", default="127.0.0.1:0", help="HOST:PORT to bind (default %(default)s)")
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
    p.add_argument("--trials", type=decimal_int, default=DEFAULT_TRIALS_PER_TARGET,
                   help="trials per target (default %(default)s)")
    p.add_argument("--seed", type=non_negative_int, default=0, help="base seed (default %(default)s)")
    p.add_argument("--distances", help="comma-separated pick square sides in meters")
    p.add_argument("--sizes", help="comma-separated place area sides in meters")
    p.add_argument("--board", help="board layout JSON file replacing the generated series")
    p.add_argument("--scenario", help="scenario config supplying plane/shoulder/arm")
    p.add_argument("--n", type=decimal_int, help=f"snap sample count (default {DEFAULT_SAMPLE_COUNT})")
    p.add_argument("--threshold", type=finite_float,
                   help=f"stability threshold (default {DEFAULT_STABILITY_THRESHOLD})")
    p.add_argument("--out", default=".", help="report directory (default %(default)s)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="find the sigma matching a target mean error")
    p.add_argument("--target-error", dest="target_error", type=finite_float, required=True,
                   help="target mean intersection error in meters")
    p.add_argument("--scenario", help="scenario config supplying plane/shoulder/arm")
    p.add_argument("--aim-bias", dest="aim_bias", type=finite_float,
                   help="per-trial aim bias sigma held fixed during calibration")
    p.add_argument("--samples", type=decimal_int, default=DEFAULT_CALIBRATION_SAMPLES,
                   help="Monte-Carlo samples per evaluation (default %(default)s)")
    p.add_argument("--seed", type=non_negative_int, default=0, help="RNG seed (default %(default)s)")
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


def _config_defaults(command: argparse.ArgumentParser) -> dict:
    """The config file's values for ``command``'s optional flags that take a
    value, each converted and checked by the flag's own type and choices."""
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        cfg = parse_kv_config(read_text(path))
    except StreamError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # positionals, switches (nargs 0) and required flags take nothing from the file
    actions = {action.dest: action for action in command._actions
               if action.option_strings and action.nargs != 0 and not action.required}
    defaults = {}
    for key, raw in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            continue
        try:
            value = action.type(raw) if action.type else raw
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{raw!r} is not one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
        defaults[action.dest] = value
    return defaults


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        command = args.commands[args.command]
        command.set_defaults(**_config_defaults(command))
        args = parser.parse_args(argv)  # again, so that explicit flags override the file
        return args.func(args)
    except _CONFIG_EXCEPTIONS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, SnapError, EvalError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
