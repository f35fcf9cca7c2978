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
import math
import sys

from . import __version__
from .capacitance import CrosstalkMode
from .errors import NumericError, ParseError, ValidationError
from .extraction import compare_to_spec, extract_all
from .files import ConfigFile, read_config, read_measurements, write_text_atomic
from .lumpmodel import DrivePattern
from .oscillator import MeasurementRecord
from .reporting import (
    emit_binning,
    emit_report,
    format_validation_text,
    monitor_binning,
    run_validation,
    waveform_csv,
    waveform_svg,
)
from .simulator import build_network, crossing_time, simulate_step

_MODE_NAMES = tuple(sorted(m.value for m in CrosstalkMode))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringrc",
        description=(
            "Coupled-RC crosstalk modeling and ring-oscillator parasitic "
            "extraction."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", help="run the transient oracle for one geometry and mode"
    )
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--geometry", required=True, help="geometry label")
    p.add_argument("--mode", required=True, choices=_MODE_NAMES)
    p.add_argument(
        "--segments",
        type=int,
        default=None,
        help="segments per line (default: configured value)",
    )
    p.add_argument(
        "--t-end-ps",
        type=float,
        default=None,
        help="simulation span in picoseconds (default: automatic)",
    )
    p.add_argument("--out", help="write the waveform CSV here")
    p.add_argument("--svg", help="write a waveform plot here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extract", help="extract parasitics from measurements")
    _add_measurement_args(p)
    p.set_defaults(func=_cmd_extract, with_comparison=False)

    p = sub.add_parser(
        "report", help="extract parasitics and compare against targets"
    )
    _add_measurement_args(p)
    p.set_defaults(func=_cmd_extract, with_comparison=True)

    p = sub.add_parser(
        "validate", help="cross-check the closed forms against the oracle"
    )
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument(
        "--geometry",
        action="append",
        default=None,
        help="restrict to this geometry (repeatable; default: all configured)",
    )
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "binning", help="per-die clock scaling from multi-die measurements"
    )
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--measurements", required=True, help="measurement file")
    p.add_argument("--geometry", required=True, help="geometry label")
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_binning)

    return parser


def _add_measurement_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--measurements", required=True, help="measurement file")
    p.add_argument(
        "--geometry",
        action="append",
        default=None,
        help="restrict to this geometry (repeatable; default: all present)",
    )
    p.add_argument("--die", default=None, help="restrict to this die label")
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )
    p.add_argument("--out", help="write the report here instead of stdout")


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


def _group(
    records: list[MeasurementRecord], field: str
) -> dict[str, list[MeasurementRecord]]:
    """Split records by one attribute in a single pass.

    Each group keeps its records in file order.
    """
    groups: dict[str, list[MeasurementRecord]] = {}
    for r in records:
        groups.setdefault(getattr(r, field), []).append(r)
    return groups


def _select_die(
    records: list[MeasurementRecord], die: str | None
) -> list[MeasurementRecord]:
    by_die = _group(records, "die")
    if die is not None:
        if die not in by_die:
            raise ValidationError(f"no records for die {die!r}")
        return by_die[die]
    dies = sorted(by_die)
    if len(dies) > 1:
        raise ValidationError(
            f"measurements span multiple dies ({', '.join(d or '<blank>' for d in dies)}); "
            f"pass --die or use the binning command"
        )
    return records


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
    net = build_network(line, segments)
    drive = DrivePattern.for_mode(mode, config.v_dd)
    result = simulate_step(net, drive, t_end=t_end)

    threshold = config.threshold_fraction * config.v_dd
    print(
        f"geometry {args.geometry} mode {mode.value} segments {segments}: "
        f"{len(result.victim.values)} samples, dt {result.victim.dt:.4e} s"
    )
    try:
        t_cross = crossing_time(result, threshold)
        print(
            f"victim crossing of {threshold:.3f} V at {t_cross * 1e12:.4f} ps"
        )
    except NumericError:
        print(f"victim never reaches {threshold:.3f} V within the simulated span")
    if args.out:
        _emit(waveform_csv(result), args.out)
    if args.svg:
        title = f"{args.geometry} {mode.value} ({segments} segments)"
        _emit(waveform_svg(result, title), args.svg)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    records = _select_die(read_measurements(args.measurements), args.die)
    by_geometry = _group(records, "geometry")
    geometries = args.geometry or sorted(by_geometry)
    results = {}
    comparisons = {}
    for geometry in geometries:
        if geometry not in by_geometry:
            raise ValidationError(f"no measurements for geometry {geometry!r}")
        result = extract_all(
            by_geometry[geometry],
            config.ro_config(geometry),
            rsw_mode=config.rsw_mode,
        )
        results[geometry] = result
        if args.with_comparison:
            comparisons[geometry] = compare_to_spec(
                result, config.spec.for_geometry(geometry), geometry=geometry
            )
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
    by_geometry = _group(read_measurements(args.measurements), "geometry")
    if args.geometry not in by_geometry:
        raise ValidationError(f"no measurements for geometry {args.geometry!r}")
    by_die = _group(by_geometry[args.geometry], "die")
    if "" in by_die and "<blank>" in by_die:
        raise ValidationError(
            "die label '<blank>' clashes with the label given to unlabelled rows"
        )
    ro_config = config.ro_config(args.geometry)
    per_die = {}
    for die in sorted(by_die):
        per_die[die or "<blank>"] = extract_all(
            by_die[die], ro_config, rsw_mode=config.rsw_mode
        )
    _emit(emit_binning(monitor_binning(per_die), fmt=args.format), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
