"""Plain-text file formats: measurements, configuration, structured reports.

Measurement files are comma-separated rows preceded by two declaration
lines, one for units and one for column order:

    # comments and blank lines are ignored
    units: tosc=ns current=uA
    columns: geometry fanout mode tosc ieff
    1W1S,FO1,in_phase,81.66,891.50

Recognized columns: die (optional), geometry, fanout, mode, tosc, and
either ieff or the pair idda/iddq (effective current is their
difference). Values are converted to SI at the boundary; everything
downstream works in seconds and amps.

Configuration files are `key = value` lines with dotted keys for the
per-geometry sections:

    n = 100                      # required
    m = 64                       # required
    v_dd = 0.9                   # required, volts
    rsw_mode = in_phase
    threshold_fraction = 0.5
    segments = 50
    line.1W1S.r_ohm = 504        # per-stage line model
    line.1W1S.c_ff = 6.6
    line.1W1S.cc_ff = 8.0
    cap.1W1S.c_ta_ff = 2.0       # alternative: elementary components
    spec.1W1S.c_total_ff = 12.39 # design targets for comparison reports
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

from .capacitance import CapacitanceSet, CrosstalkMode
from .errors import ParseError, ValidationError
from .extraction import ParasiticSet, SpecTable
from .lumpmodel import LineRC
from .oscillator import Fanout, MeasurementRecord, RoConfig

_TOSC_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_CURRENT_UNITS = {"A": 1.0, "mA": 1e-3, "uA": 1e-6, "nA": 1e-9}
_MODES = {m.value: m for m in CrosstalkMode}
_FANOUTS = {f.value: f for f in Fanout}

_MEAS_COLUMNS = ("die", "geometry", "fanout", "mode", "tosc", "ieff", "idda", "iddq")
_SCALAR_KEYS = (
    "n",
    "m",
    "v_dd",
    "rsw_mode",
    "threshold_fraction",
    "segments",
)
_LINE_KEYS = ("r_ohm", "c_ff", "cc_ff")
_CAP_KEYS = ("c_ta_ff", "c_ba_ff", "c_ft_ff", "c_fb_ff", "c_c_ff")
_SPEC_KEYS = ("c_total_ff", "c_gate_ff", "c_int_ff", "c_c_ff", "r_sw_ohm")

REPORT_FORMAT_TAG = "ringrc-report/1"


def _float(token: str, what: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{what}: not a number: {token!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"{what}: not a finite number: {token!r}", lineno)
    return value


def _int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what}: not an integer: {token!r}", lineno) from None


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def parse_measurements(text: str) -> list[MeasurementRecord]:
    """Parse measurement text into records (SI units).

    Raises ParseError, with the offending 1-based line number, for any
    deviation from the documented grammar.
    """
    units: dict[str, float] | None = None
    columns: list[str] | None = None
    records: list[MeasurementRecord] = []
    seen: dict[tuple, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("units:"):
            if units is not None:
                raise ParseError("duplicate units declaration", lineno)
            units = _parse_units(line[len("units:") :], lineno)
            continue
        if line.startswith("columns:"):
            if columns is not None:
                raise ParseError("duplicate columns declaration", lineno)
            columns = _parse_columns(line[len("columns:") :], lineno)
            continue
        if units is None:
            raise ParseError("data row before the units declaration", lineno)
        if columns is None:
            raise ParseError("data row before the columns declaration", lineno)

        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(columns):
            raise ParseError(
                f"expected {len(columns)} fields ({' '.join(columns)}), "
                f"got {len(fields)}",
                lineno,
            )
        row = dict(zip(columns, fields))
        mode_token = row["mode"]
        if mode_token not in _MODES:
            raise ParseError(
                f"unknown mode {mode_token!r}; valid modes: "
                f"{', '.join(sorted(_MODES))}",
                lineno,
            )
        fanout_token = row["fanout"]
        if fanout_token not in _FANOUTS:
            raise ParseError(
                f"unknown fanout {fanout_token!r}; valid fanouts: "
                f"{', '.join(sorted(_FANOUTS))}",
                lineno,
            )
        t_osc = _float(row["tosc"], "tosc", lineno) * units["tosc"]
        kwargs = dict(
            geometry=row["geometry"],
            fanout=_FANOUTS[fanout_token],
            mode=_MODES[mode_token],
            t_osc=t_osc,
            die=row.get("die", ""),
        )
        if "ieff" in row:
            kwargs["i_eff"] = _float(row["ieff"], "ieff", lineno) * units["current"]
        else:
            i_dda = _float(row["idda"], "idda", lineno) * units["current"]
            i_ddq = _float(row["iddq"], "iddq", lineno) * units["current"]
            kwargs.update(i_eff=i_dda - i_ddq, i_dda=i_dda, i_ddq=i_ddq)
        try:
            record = MeasurementRecord(**kwargs)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if record.key in seen:
            raise ParseError(
                f"duplicate record {record.label()!r} "
                f"(first seen on line {seen[record.key]})",
                lineno,
            )
        seen[record.key] = lineno
        records.append(record)
    if not records:
        raise ParseError("no data rows found", None)
    return records


def _parse_units(body: str, lineno: int) -> dict[str, float]:
    units = {}
    for token in body.split():
        if "=" not in token:
            raise ParseError(f"malformed unit token {token!r}", lineno)
        key, _, value = token.partition("=")
        if key == "tosc":
            table = _TOSC_UNITS
        elif key == "current":
            table = _CURRENT_UNITS
        else:
            raise ParseError(
                f"unknown unit key {key!r}; allowed: tosc, current", lineno
            )
        if value not in table:
            raise ParseError(
                f"unsupported {key} unit {value!r}; allowed: "
                f"{', '.join(table)}",
                lineno,
            )
        if key in units:
            raise ParseError(f"duplicate unit key {key!r}", lineno)
        units[key] = table[value]
    for required in ("tosc", "current"):
        if required not in units:
            raise ParseError(f"units declaration lacks {required!r}", lineno)
    return units


def _parse_columns(body: str, lineno: int) -> list[str]:
    columns = body.split()
    for name in columns:
        if name not in _MEAS_COLUMNS:
            raise ParseError(
                f"unknown column {name!r}; allowed: {', '.join(_MEAS_COLUMNS)}",
                lineno,
            )
    if len(set(columns)) != len(columns):
        raise ParseError("repeated column name", lineno)
    for required in ("geometry", "fanout", "mode", "tosc"):
        if required not in columns:
            raise ParseError(f"missing required column {required!r}", lineno)
    has_ieff = "ieff" in columns
    has_pair = "idda" in columns and "iddq" in columns
    if has_ieff == has_pair or ("idda" in columns) != ("iddq" in columns):
        raise ParseError(
            "current columns must be either ieff or the idda/iddq pair", lineno
        )
    return columns


@dataclass(frozen=True)
class ConfigFile:
    """Parsed configuration. Values are SI; warnings are non-fatal notes."""

    n: int
    m: int
    v_dd: float
    rsw_mode: CrosstalkMode
    threshold_fraction: float
    segments: int
    lines: dict[str, LineRC]
    spec: SpecTable
    warnings: tuple[str, ...]

    def ro_config(self, geometry: str = "", fanout: Fanout = Fanout.FO1) -> RoConfig:
        return RoConfig(
            n=self.n, m=self.m, v_dd=self.v_dd, fanout=fanout, geometry=geometry
        )

    def line_for(self, geometry: str) -> LineRC:
        try:
            return self.lines[geometry]
        except KeyError:
            raise ValidationError(
                f"no line model for geometry {geometry!r}; known: "
                f"{sorted(self.lines)}"
            ) from None


def parse_config(text: str) -> ConfigFile:
    """Parse configuration text. n, m and v_dd are required; unknown keys
    produce warnings rather than errors."""
    raw: dict[str, tuple[str, int]] = {}
    warnings: list[str] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _strip(rawline)
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if key in raw:
            raise ParseError(
                f"duplicate key {key!r} (first seen on line {raw[key][1]})", lineno
            )
        raw[key] = (value, lineno)

    def take(key: str) -> tuple[str, int] | None:
        return raw.pop(key, None)

    entry = take("n")
    if entry is None:
        raise ValidationError("required key 'n' is missing")
    n = _int(entry[0], "n", entry[1])
    entry = take("m")
    if entry is None:
        raise ValidationError("required key 'm' is missing")
    m = _int(entry[0], "m", entry[1])
    entry = take("v_dd")
    if entry is None:
        raise ValidationError("required key 'v_dd' is missing")
    v_dd = _float(entry[0], "v_dd", entry[1])

    try:
        RoConfig(n=n, m=m, v_dd=v_dd)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    entry = take("rsw_mode")
    if entry is None:
        rsw_mode = CrosstalkMode.IN_PHASE
    elif entry[0] in _MODES:
        rsw_mode = _MODES[entry[0]]
    else:
        raise ValidationError(
            f"rsw_mode must be one of {', '.join(sorted(_MODES))}, got {entry[0]!r}"
        )

    entry = take("threshold_fraction")
    threshold = 0.5 if entry is None else _float(entry[0], "threshold_fraction", entry[1])
    if not 0.0 < threshold < 1.0:
        raise ValidationError(
            f"threshold_fraction must be in (0, 1), got {threshold!r}"
        )
    entry = take("segments")
    segments = 50 if entry is None else _int(entry[0], "segments", entry[1])
    if segments < 1:
        raise ValidationError(f"segments must be >= 1, got {segments}")

    line_raw: dict[str, dict[str, float]] = {}
    cap_raw: dict[str, dict[str, float]] = {}
    spec_raw: dict[str, dict[str, float]] = {}
    for key, (value, lineno) in list(raw.items()):
        parts = key.split(".")
        if len(parts) == 3 and parts[0] in ("line", "cap", "spec"):
            section, geometry, leaf = parts
            allowed = {"line": _LINE_KEYS, "cap": _CAP_KEYS, "spec": _SPEC_KEYS}[
                section
            ]
            if leaf not in allowed:
                warnings.append(
                    f"line {lineno}: unknown key {key!r} ignored; known "
                    f"{section} keys: {', '.join(allowed)}"
                )
                continue
            bucket = {"line": line_raw, "cap": cap_raw, "spec": spec_raw}[section]
            bucket.setdefault(geometry, {})[leaf] = _float(value, key, lineno)
        else:
            warnings.append(
                f"line {lineno}: unknown key {key!r} ignored; known keys: "
                f"{', '.join(_SCALAR_KEYS)}, line.<geometry>.<field>, "
                f"cap.<geometry>.<field>, spec.<geometry>.<field>"
            )

    lines: dict[str, LineRC] = {}
    for geometry in sorted(set(line_raw) | set(cap_raw)):
        fields = line_raw.get(geometry, {})
        if "r_ohm" not in fields:
            raise ValidationError(
                f"line.{geometry}.r_ohm is required to build a line model"
            )
        r = fields["r_ohm"]
        if geometry in cap_raw:
            if "c_ff" in fields or "cc_ff" in fields:
                raise ValidationError(
                    f"geometry {geometry!r} has both line.c_ff/cc_ff and a "
                    f"cap section; give one or the other"
                )
            cap_fields = cap_raw[geometry]
            missing = [k for k in _CAP_KEYS if k not in cap_fields]
            if missing:
                raise ValidationError(
                    f"cap.{geometry} section is incomplete; missing: "
                    f"{', '.join(missing)}"
                )
            try:
                cap_set = CapacitanceSet(
                    c_ta=cap_fields["c_ta_ff"] * 1e-15,
                    c_ba=cap_fields["c_ba_ff"] * 1e-15,
                    c_ft=cap_fields["c_ft_ff"] * 1e-15,
                    c_fb=cap_fields["c_fb_ff"] * 1e-15,
                    c_c=cap_fields["c_c_ff"] * 1e-15,
                )
            except ValueError as exc:
                raise ValidationError(f"cap.{geometry}: {exc}") from None
            c, c_c = cap_set.c_ground, cap_set.c_c
        else:
            missing = [k for k in ("c_ff", "cc_ff") if k not in fields]
            if missing:
                raise ValidationError(
                    f"line.{geometry} is incomplete; missing: "
                    f"{', '.join(missing)}"
                )
            c = fields["c_ff"] * 1e-15
            c_c = fields["cc_ff"] * 1e-15
        try:
            lines[geometry] = LineRC(r=r, c=c, c_c=c_c, v_dd=v_dd)
        except ValueError as exc:
            raise ValidationError(f"line.{geometry}: {exc}") from None

    spec_values: dict[str, ParasiticSet] = {}
    for geometry, fields in spec_raw.items():
        spec_values[geometry] = ParasiticSet(
            c_total=_maybe_ff(fields, "c_total_ff"),
            c_gate=_maybe_ff(fields, "c_gate_ff"),
            c_int=_maybe_ff(fields, "c_int_ff"),
            c_c=_maybe_ff(fields, "c_c_ff"),
            r_sw=fields.get("r_sw_ohm"),
        )

    return ConfigFile(
        n=n,
        m=m,
        v_dd=v_dd,
        rsw_mode=rsw_mode,
        threshold_fraction=threshold,
        segments=segments,
        lines=lines,
        spec=SpecTable(values=spec_values),
        warnings=tuple(warnings),
    )


def _maybe_ff(fields: dict[str, float], key: str) -> float | None:
    value = fields.get(key)
    return None if value is None else value * 1e-15


def read_measurements(path: str) -> list[MeasurementRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measurements(fh.read())


def read_config(path: str) -> ConfigFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def write_text_atomic(path: str, text: str) -> None:
    """Write text so readers never observe a partially written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def emit_report_json(payload: dict) -> str:
    """Serialize a report payload canonically (stable key order, full
    float precision) so emit -> parse -> emit is byte-identical.

    Raises:
        ValueError: if the payload holds a NaN or infinite value, which
            strict JSON cannot represent.
    """
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_report(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", exc.lineno) from None
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT_TAG:
        raise ParseError(
            f"missing or unsupported format tag; expected {REPORT_FORMAT_TAG!r}",
            None,
        )
    return payload
