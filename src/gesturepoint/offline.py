"""The subcommands that run no pointer pipeline: the simulator's generate,
sweep and calibrate, which import ``evaluation`` and numpy when they run, and
registry, which edits layout files. ``cli`` imports this module only when one
of them is chosen, and calls :func:`add_flags` for that one alone.

This module never imports ``cli``: under ``python -m gesturepoint.cli`` the
running ``cli`` is ``__main__``, and an import would compile a second copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no command here calls BLAS: numpy need not spin a thread per core

from .geometry import PlanarPoint
from .snap import (DEFAULT_SAMPLE_COUNT, DEFAULT_STABILITY_THRESHOLD, Area, DuplicateIdError, SnapError, Target,
                   checked_half_extent, layout_document, load_layout, save_layout)
from .stream import (DEFAULT_CALIBRATION_SAMPLES, DEFAULT_TRIALS_PER_TARGET, ConfigError, EvalError,
                     check_out_spares_inputs, decimal_int, finite_float, write_document, write_stream)


def non_negative_int(text: str) -> int:
    """The type of every ``--seed`` flag (and ``seed`` config key)."""
    value = decimal_int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """The type of ``generate --count``, ``sweep --trials`` and ``--n``, and ``calibrate --samples``
    (and their config keys)."""
    value = decimal_int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """The type of ``sweep --threshold`` (and its config key)."""
    value = finite_float(text)
    if value <= 0:
        raise ValueError(f"expected a number > 0, got {text!r}")
    return value


def cmd_generate(args) -> int:
    from .evaluation import generate_scenario, load_scenario_config

    check_out_spares_inputs(args.out, args.scenario)
    template, target, seed, count = load_scenario_config(args.scenario)
    if args.seed is not None:
        seed = args.seed
    if args.count is not None:
        count = args.count
    written = write_stream(args.out, generate_scenario(template, target, seed, count), "synthetic")
    print(f"wrote {written} frames to {args.out}", file=sys.stderr)
    return 0


def _template_from_args(args, sigma: float, **flags):
    """The scenario file's template (its target, seed and count unused), or
    the desk default, with ``sigma``, and ``--aim-bias`` and the template
    fields in ``flags`` where they are not None."""
    import dataclasses

    from .evaluation import ScenarioTemplate, load_scenario_config

    template = load_scenario_config(args.scenario)[0] if args.scenario else ScenarioTemplate.desk_default()
    flags["aim_bias_sigma"] = args.aim_bias
    return dataclasses.replace(template, sigma=sigma, **{k: v for k, v in flags.items() if v is not None})


def _parse_l_values(text: str) -> tuple[float, ...]:
    """The type of ``sweep --distances`` and ``--sizes``: comma- or space-separated positive sizes."""
    try:
        values = tuple(finite_float(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad length list {text!r}: {exc}") from exc
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(f"length list must hold positive sizes, got {text!r}")
    return values


def cmd_sweep(args) -> int:
    import dataclasses

    from .evaluation import (
        aimed_targets, calibrate_sigma, emit_report, load_boards, run_boards, save_boards, standard_boards,
    )

    if args.calibrate is not None and args.sigma is not None:
        raise ConfigError("give either --sigma or --calibrate, not both")
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
        boards = standard_boards(args.kind, template, {"pick": args.distances, "place": args.sizes}.get(args.kind))
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
    return 0


def cmd_calibrate(args) -> int:
    from .evaluation import calibrate_sigma

    template = _template_from_args(args, 0.0)
    sigma = calibrate_sigma(args.target_error, template, samples=args.samples, seed=args.seed)
    print(f"{sigma:.6f}")
    return 0


def cmd_registry(args) -> int:
    path = args.file
    if args.action == "init":
        if os.path.exists(path) and not args.force:
            raise RuntimeError(f"{path} already exists (use --force to overwrite)")
        save_layout(path, [], [])
        print(f"wrote {path}")
        return 0
    targets, areas = load_layout(path)
    if args.action == "list":
        print(json.dumps(layout_document(targets, areas), indent=2, sort_keys=True))
        return 0
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
    return 0


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigError(f"missing required flags: {', '.join('--' + n for n in missing)}")


def add_flags(p, name: str) -> None:
    """Add command ``name``'s flags to its subparser ``p``, with its function as ``func``."""
    if name == "generate":
        p.add_argument("--scenario", required=True, help="flat key=value scenario file")
        p.add_argument("--out", required=True, help="stream JSONL to write")
        p.add_argument("--seed", type=non_negative_int, help="override the scenario seed")
        p.add_argument("--count", type=positive_int, help="override the scenario frame count")
        p.set_defaults(func=cmd_generate)
    elif name == "sweep":
        p.add_argument("--kind", required=True, choices=("pick", "place", "quantitative"))
        p.add_argument("--sigma", type=finite_float, help="joint noise sigma in meters (default 0)")
        p.add_argument("--aim-bias", dest="aim_bias", type=finite_float,
                       help="per-trial aim bias sigma in meters (default 0)")
        p.add_argument("--calibrate", type=finite_float, metavar="ERROR_M",
                       help="calibrate sigma to this mean intersection error first")
        p.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS_PER_TARGET,
                       help="trials per target (default %(default)s)")
        p.add_argument("--seed", type=non_negative_int, default=0, help="base seed (default %(default)s)")
        p.add_argument("--distances", type=_parse_l_values, help="comma-separated pick square sides in meters")
        p.add_argument("--sizes", type=_parse_l_values, help="comma-separated place area sides in meters")
        p.add_argument("--board", help="board layout JSON file replacing the generated series")
        p.add_argument("--scenario", help="scenario config supplying plane/shoulder/arm")
        p.add_argument("--n", type=positive_int, help=f"snap sample count (default {DEFAULT_SAMPLE_COUNT})")
        p.add_argument("--threshold", type=positive_float,
                       help=f"stability threshold (default {DEFAULT_STABILITY_THRESHOLD})")
        p.add_argument("--out", default=".", help="report directory (default %(default)s)")
        p.set_defaults(func=cmd_sweep)
    elif name == "calibrate":
        p.add_argument("--target-error", dest="target_error", type=finite_float, required=True,
                       help="target mean intersection error in meters")
        p.add_argument("--scenario", help="scenario config supplying plane/shoulder/arm")
        p.add_argument("--aim-bias", dest="aim_bias", type=finite_float,
                       help="per-trial aim bias sigma held fixed during calibration")
        p.add_argument("--samples", type=positive_int, default=DEFAULT_CALIBRATION_SAMPLES,
                       help="Monte-Carlo samples per evaluation (default %(default)s)")
        p.add_argument("--seed", type=non_negative_int, default=0, help="RNG seed (default %(default)s)")
        p.set_defaults(func=cmd_calibrate)
    else:
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
