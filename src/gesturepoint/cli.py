"""Command-line front end wiring the pipeline end to end.

Subcommands: define-plane, generate, replay, live, sweep, calibrate,
registry. This module holds define-plane, replay and live; the other four
live in ``offline``, imported only when one of them is chosen. The parser
names every command but adds the flags of the chosen one alone, so each
command compiles and builds only what it runs. Only generate, sweep and
calibrate import ``evaluation`` and numpy, and only live imports ``live``
and the socket layer.
Exit codes: 0 success, 1 runtime failure (write errors, port bind,
non-convergence, registry id conflicts), 2 usage or configuration error (bad
flags, missing or invalid input files).

The environment variable GESTURE_POINTER_CONFIG may name a flat
``key = value`` file supplying defaults for the chosen subcommand's optional
flags that take a value (dashes become underscores, e.g.
``min_confidence = 0.4``); explicit flags win, and other keys are ignored.
Each value goes through its flag's own type, range and choices, so ``nan``,
``n = 0`` or an unknown choice is a usage error (exit 2) from either source.

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
import json
import math
import os
import sys

from . import __version__
from .geometry import GeometryError, Plane, Point3, WorkplaneFrame, plane_from_corners, workplane_frame
from .pipeline import HISTORY_CAPACITY, PipelineSettings, gesture_point_record
from .snap import (DEFAULT_SAMPLE_COUNT, DEFAULT_STABILITY_THRESHOLD, AreaRegistry, MalformedFileError, SnapError,
                   TargetRegistry, load_layout, snap_fields)
from .stabilizer import DEFAULT_WINDOW
from .stream import (DEFAULT_MIN_CONFIDENCE, ConfigError, EvalError, InvalidParametersError, MalformedRecordError,
                     StreamError, StreamReader, check_out_spares_inputs, decimal_int, decode_object, finite_float,
                     json_int, json_number, parse_intrinsics_header, parse_kv_config, parse_position, parse_triplet,
                     read_text, write_document)

ENV_CONFIG = "GESTURE_POINTER_CONFIG"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# exceptions that indicate the *inputs* were wrong, not that the run failed
_CONFIG_EXCEPTIONS = (ConfigError, GeometryError, StreamError, MalformedFileError, InvalidParametersError)


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


def _settings_from_args(args) -> PipelineSettings:
    if args.plane is None:  # the one check left after parsing: the config file may name the plane
        raise ConfigError("--plane FILE is required")
    plane, frame, _, _ = load_plane_file(args.plane)
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


def cmd_define_plane(args) -> int:
    check_out_spares_inputs(args.out, args.corners)
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
    check_out_spares_inputs(args.out, args.plane, args.stream, args.registry if args.snap else None)
    try:
        # as in live, lines end at "\n" alone (a CRLF line's "\r" is stripped with its blanks),
        # and undecodable bytes become U+FFFD and fail as one malformed line
        stream = open(args.stream, "r", encoding="utf-8-sig", errors="replace", newline="\n")
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
    from .live import LiveServer

    settings = _settings_from_args(args)
    targets, areas = _load_registries(args.registry)
    host, port = args.listen
    try:
        server = LiveServer(host, port, settings, targets, areas)
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


# --- parser ------------------------------------------------------------------


def _checked(read, low, high, shown: str):
    """An argparse type: ``read``'s value, which must lie in [low, high] ("must be {shown}")."""
    def check(text: str):
        value = read(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {shown}, got {value}")
        return value
    check.__name__ = read.__name__  # argparse names it in "invalid decimal_int value"
    return check


def _address(text: str) -> tuple[str, int]:
    """The type of ``--listen``: HOST:PORT as (host, port), an empty host meaning 127.0.0.1."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expects HOST:PORT, got {text!r}")
    if not (len(port) <= 5 and port.isascii() and port.isdecimal() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"bad port {port!r}")
    return host or "127.0.0.1", int(port)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plane", help="plane JSON file (from define-plane)")
    p.add_argument("--frame", choices=("workplane", "camera"),
                   help="output coordinate frame (default workplane)")
    p.add_argument("--hand", choices=("left", "right", "both"), help="hand selection")
    p.add_argument("--pair", choices=("shoulder-wrist", "elbow-wrist"), help="joint pair")
    p.add_argument("--min-confidence", type=_checked(finite_float, 0.0, 1.0, "in [0, 1]"),
                   help=f"joint confidence floor (default {DEFAULT_MIN_CONFIDENCE})")
    p.add_argument("--n", type=_checked(decimal_int, 1, HISTORY_CAPACITY, f"in 1..{HISTORY_CAPACITY}"),
                   help=f"snap sample count, 1..{HISTORY_CAPACITY} (default {DEFAULT_SAMPLE_COUNT})")
    p.add_argument("--threshold", type=_checked(finite_float, math.ulp(0.0), math.inf, "> 0"),
                   help=f"stability threshold in meters (default {DEFAULT_STABILITY_THRESHOLD})")
    p.add_argument("--window", type=_checked(decimal_int, 1, sys.maxsize, f"in 1..{sys.maxsize}"),
                   help=f"stabilizer window (default {DEFAULT_WINDOW})")  # sys.maxsize: the deque's bound


# every command, in --help order, with its help line
COMMANDS = {
    "define-plane": "build a workplane file from corner points",
    "generate": "synthesize a skeleton stream from a scenario config",
    "replay": "run a recorded stream through the pipeline",
    "live": "serve the line protocol over TCP",
    "sweep": "run a seeded Monte-Carlo selection sweep",
    "calibrate": "find the sigma matching a target mean error",
    "registry": "create and edit target/area files",
}


def _add_flags(p: argparse.ArgumentParser, name: str) -> None:
    """Add command ``name``'s flags to its subparser ``p``, with its function as ``func``."""
    if name == "define-plane":
        p.add_argument("--corners", required=True, help="corner JSON file (3D or pixel+depth)")
        p.add_argument("--out", required=True, help="plane file to write")
        p.add_argument("--origin-corner", dest="origin_corner", type=decimal_int, default=0,
                       help="frame origin corner (default %(default)s)")
        p.add_argument("--x-corner", dest="x_corner", type=decimal_int, default=1,
                       help="frame x-axis corner (default %(default)s)")
        p.add_argument("--viewpoint", help="orient the normal toward this point, 'x,y,z'")
        p.set_defaults(func=cmd_define_plane)
    elif name == "replay":
        _add_pipeline_flags(p)
        p.add_argument("--stream", required=True, help="skeleton JSONL file")
        p.add_argument("--out", required=True, help="gesture-point JSONL to write")
        p.add_argument("--snap", choices=("pick", "place"), help="attempt a snap every N accepted points")
        p.add_argument("--registry", help="targets/areas JSON file for --snap")
        p.add_argument("--group", help="target group filter for pick snaps")
        p.set_defaults(func=cmd_replay)
    elif name == "live":
        _add_pipeline_flags(p)
        p.add_argument("--listen", type=_address, default="127.0.0.1:0",
                       help="HOST:PORT to bind (default %(default)s)")
        p.add_argument("--registry", help="targets/areas JSON file")
        p.add_argument("--group", help="default target group filter")
        p.set_defaults(func=cmd_live)
    else:
        from .offline import add_flags

        add_flags(p, name)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command's name and help line. Flags go to the
    command that ``argv``'s first token not starting with ``-`` names, if
    any, or to every command when ``argv`` is None."""
    parser = argparse.ArgumentParser(
        prog="gesturepoint",
        description="Localize pointed targets on a planar workspace from skeleton streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(commands=sub.choices)
    chosen = None if argv is None else next((arg for arg in argv if not arg.startswith("-")), "")
    for name, text in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if chosen in (None, name):
            _add_flags(p, name)
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
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
        defaults[action.dest] = value
    return defaults


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        command = args.commands[args.command]
        defaults = _config_defaults(command)
        if defaults:
            command.set_defaults(**defaults)
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
