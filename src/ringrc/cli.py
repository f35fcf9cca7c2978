"""Command-line interface.

Subcommands:
    simulate  -- transient run of the three-line oracle for one geometry
    extract   -- parasitic extraction from a measurement file
    report    -- extraction plus comparison against configured targets
    validate  -- cross-check closed forms against the transient oracle
    binning   -- per-die clock scaling from multi-die measurements

Exit codes: 0 success, 2 parse/input errors, 3 validation errors,
4 numeric errors. Warnings go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from . import __version__
from .capacitance import CrosstalkMode
from .errors import NoCrossingError, NumericError, ParseError, ValidationError
from .extraction import compare_to_spec, extract_all
from .files import ConfigFile, read_config, read_measurements, write_text_atomic
from .lumpmodel import DrivePattern
from .oscillator import Measurements
from .reporting import (
    FORMATS,
    _shown,
    emit_binning,
    emit_report,
    format_validation_text,
    monitor_binning,
    run_validation,
    waveform_csv,
    waveform_svg,
)
from .simulator import SAMPLES, build_network, crossing_time, simulate_step

_MODE_NAMES = tuple(sorted(m.value for m in CrosstalkMode))
#: The exit code of each error a command may raise, the first match winning.
_EXIT_CODES = {ParseError: 2, OSError: 2, ValidationError: 3, NumericError: 4}
_REPEATABLE = "restrict to this geometry (repeatable; default: all {})"

#: Every option, declared once by name: its flag and its argparse settings.
_OPTIONS = {
    "config": ("--config", dict(required=True, help="configuration file")),
    "measurements": ("--measurements", dict(required=True, help="measurement file")),
    # --geometry: one required label, or repeatable over all present or configured ones
    "geometry": ("--geometry", dict(required=True, help="geometry label")),
    "present": ("--geometry", dict(action="append", help=_REPEATABLE.format("present"))),
    "configured": ("--geometry", dict(action="append", help=_REPEATABLE.format("configured"))),
    "die": ("--die", dict(help="restrict to this die label")),
    "mode": ("--mode", dict(required=True, choices=_MODE_NAMES)),
    "segments": ("--segments", dict(
        type=int, help="segments per line (default: configured value)")),
    "t_end_ps": ("--t-end-ps", dict(
        type=float, help="simulation span in picoseconds (default: automatic)")),
    "format": ("--format", dict(choices=FORMATS, default="text")),
    "out": ("--out", dict(help="write the report here instead of stdout")),
    "wave_out": ("--out", dict(help="write the waveform CSV here")),
    "svg": ("--svg", dict(help="write a waveform plot here")),
}


def _load_config(path: str) -> ConfigFile:
    config = read_config(path)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return config


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        write_text_atomic(out_path, text)
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _select_die(measurements: Measurements, die: str | None) -> Measurements:
    if die is not None:
        measurements = measurements.where("die", die)
        if not len(measurements):
            raise ValidationError(f"no records for die {die!r}")
    dies = sorted(set(measurements.die))
    if len(dies) > 1:
        raise ValidationError(
            f"measurements span multiple dies ({', '.join(d or '<blank>' for d in dies)}); "
            f"pass --die or use the binning command"
        )
    return measurements


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    line = config.line_for(args.geometry)
    mode = CrosstalkMode(args.mode)
    segments = config.segments if args.segments is None else args.segments
    if segments < 1:
        raise ValidationError(f"segments must be >= 1, got {segments}")
    t_end = None if args.t_end_ps is None else args.t_end_ps * 1e-12
    if t_end is not None and not (math.isfinite(t_end) and t_end > 0.0):
        raise ValidationError(
            f"--t-end-ps must be finite and > 0, got {args.t_end_ps!r}"
        )
    if t_end is not None and not t_end / (SAMPLES - 1) > 0.0:
        raise ValidationError(
            f"--t-end-ps {args.t_end_ps!r} is too short: its grid step "
            f"(the span over {SAMPLES - 1}) rounds to 0 s"
        )
    net = build_network(line, segments)
    drive = DrivePattern.for_mode(mode, config.v_dd)
    result = simulate_step(net, drive, t_end=t_end)

    threshold = config.threshold_fraction * config.v_dd
    volts = _shown(threshold, 0, 3)
    print(
        f"geometry {args.geometry} mode {mode.value} segments {segments}: "
        f"{SAMPLES} samples, dt {_shown(result.dt, 0, 4)} s"
    )
    try:
        t_cross = crossing_time(result, threshold)
        print(f"victim crossing of {volts} V at {_shown(t_cross * 1e12, 0, 4)} ps")
    except NoCrossingError:
        print(f"victim never reaches {volts} V within the simulated span")
    if args.out:
        _emit(waveform_csv(result), args.out)
    if args.svg:
        title = f"{args.geometry} {mode.value} ({segments} segments)"
        _emit(waveform_svg(result, title), args.svg)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    measurements = read_measurements(args.measurements)
    if args.with_comparison:
        # a configured geometry no row names is most likely a mistyped label
        configured = set(config.lines) | set(config.spec.values)
        for geometry in sorted(configured - set(measurements.geometry)):
            print(f"warning: no measurement row names configured geometry {geometry!r}",
                  file=sys.stderr)
    measurements = _select_die(measurements, args.die)
    geometries = args.geometry or sorted(set(measurements.geometry))
    results, comparisons = {}, {}
    for geometry in geometries:
        rows = measurements.where("geometry", geometry)
        if not len(rows):
            raise ValidationError(f"no measurements for geometry {geometry!r}")
        results[geometry] = result = extract_all(rows, config.ro_config(geometry))
        if args.with_comparison:
            targets = config.spec.for_geometry(geometry)
            comparisons[geometry] = compare_to_spec(result.one(), targets)
    _emit(emit_report(results, comparisons, fmt=args.format), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    lines = config.lines
    if args.geometry:
        lines = {g: config.line_for(g) for g in args.geometry}
    outcome = run_validation(lines, config.segments, config.threshold_fraction)
    _emit(format_validation_text(outcome), args.out)
    return 0 if outcome.passed else 3


def _cmd_binning(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    lot = read_measurements(args.measurements).where("geometry", args.geometry)
    if not len(lot):
        raise ValidationError(f"no measurements for geometry {args.geometry!r}")
    if {"", "<blank>"} <= set(lot.die):
        raise ValidationError(
            "die label '<blank>' clashes with the label given to unlabelled rows"
        )
    ro_config = config.ro_config(args.geometry)
    result = extract_all(lot, ro_config)
    die = result.die.copy()
    die[die == ""] = "<blank>"
    labelled = dataclasses.replace(result, die=die)
    _emit(emit_binning(monitor_binning(labelled), fmt=args.format), args.out)
    return 0


#: Every command: its help, its options by name in --help order, and the
#: defaults its handler reads.
_COMMANDS = {
    "simulate": ("run the transient oracle for one geometry and mode",
                 ("config", "geometry", "mode", "segments", "t_end_ps", "wave_out", "svg"),
                 dict(func=_cmd_simulate)),
    "extract": ("extract parasitics from measurements",
                ("config", "measurements", "present", "die", "format", "out"),
                dict(func=_cmd_extract, with_comparison=False)),
    "report": ("extract parasitics and compare against targets",
               ("config", "measurements", "present", "die", "format", "out"),
               dict(func=_cmd_extract, with_comparison=True)),
    "validate": ("cross-check the closed forms against the oracle",
                 ("config", "configured", "out"), dict(func=_cmd_validate)),
    "binning": ("per-die clock scaling from multi-die measurements",
                ("config", "measurements", "geometry", "format", "out"),
                dict(func=_cmd_binning)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one (main calls it once per call); callers must not mutate it."""
    parser = argparse.ArgumentParser(prog="ringrc", description=(
        "Coupled-RC crosstalk modeling and ring-oscillator parasitic extraction."))
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, names, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in names:
            flag, settings = _OPTIONS[name]
            p.add_argument(flag, **settings)
        p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
