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

Configuration files are `key = value` lines: the top-level keys n, m and
v_dd (required), threshold_fraction and segments, and dotted per-geometry
keys <section>.<geometry>.<key>, each declared once in _SECTIONS (the
README's Configuration table lists them).
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import TextIO

import numpy as np

from .capacitance import CapacitanceSet, CrosstalkMode
from .errors import ParseError, ValidationError
from .extraction import COMPARED, ParasiticSet, SpecTable
from .lumpmodel import LineRC
from .oscillator import Fanout, Measurements, RoConfig, record_label

#: units: <key>=<unit> -> that unit's scale to SI, per key
_UNITS = {
    "tosc": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12},
    "current": {"A": 1.0, "mA": 1e-3, "uA": 1e-6, "nA": 1e-9},
}
_MODES = {m.value: m for m in CrosstalkMode}
_FANOUTS = {f.value: f for f in Fanout}

_MEAS_COLUMNS = ("die", "geometry", "fanout", "mode", "tosc", "ieff", "idda", "iddq")
#: <section>.<geometry>.<key> -> the field the key sets and its unit's scale to
#: SI: LineRC's (line), CapacitanceSet's (cap) or ParasiticSet's, in field order (spec)
_SECTIONS = {
    "line": {"r_ohm": ("r", 1.0), "c_ff": ("c", 1e-15), "cc_ff": ("c_c", 1e-15)},
    "cap": {f"{name}_ff": (name, 1e-15) for name in ("c_ta", "c_ba", "c_ft", "c_fb", "c_c")},
    "spec": {f"{value.name}_{value.unit.lower()}": (value.name, 1.0 / value.scale)
             for value in COMPARED},
}

#: Smallest threshold_fraction: the oracle's waveforms carry rounding of up to
#: ~2.4e-15 of v_dd (2.7e-16 at t = 0), which must not decide a crossing.
THRESHOLD_FLOOR = 1e-9

REPORT_FORMAT_TAG = "ringrc-report/2"
#: The tags parse_report reads; a /1 document differs only in c_c's provenance key.
_READABLE_TAGS = ("ringrc-report/1", REPORT_FORMAT_TAG)


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
    return raw.partition("#")[0].strip()


#: Data rows the bulk parser tokenizes at a time: one join and one split per
#: chunk, so only one chunk's token strings are alive at once.
_CHUNK_ROWS = 4096
#: Bodies of fewer lines are parsed row by row. Both paths pay (median time
#: ratios of paired calls): a one-die report read in bulk takes x1.09, a
#: 4 000-die binning read row by row x1.85.
_BULK_MIN_LINES = 48
#: Characters read_measurements decodes from a file at a time.
_BLOCK_CHARS = 1 << 16


def parse_measurements(text: str) -> Measurements:
    """Parse measurement text into a table (SI units) by _parse_rows' rules;
    a ParseError names the first faulty 1-based line. Longer bodies are read
    in bulk: one split per chunk of rows, one conversion and range check per
    number column, labels coded as integers so that one sort of combined keys
    finds duplicates. If a check fails, _parse_rows finds the faulty line."""
    return _parse(lambda: iter(text.splitlines()))


def _parse(read: Callable[[], Iterator[str]]) -> Measurements:
    """parse_measurements of the lines each read() gives from a text's start:
    in bulk as they come, then row by row from a second read() if that fails."""
    lines = read()
    units, columns, start, first = _declarations(lines)
    body = [first, *islice(lines, _BULK_MIN_LINES - 1)]
    if len(body) == _BULK_MIN_LINES:
        table = _parse_bulk(chain(body, lines), units, columns)
        if table is not None:
            return table
        body = islice(read(), start, None)
    return _parse_rows(body, units, columns, start)


def _declarations(lines: Iterator[str]) -> tuple[dict[str, float], list[str], int, str]:
    """The units and columns declared before the first data row, the index
    of that row and the row itself, read from lines up to that row."""
    units: dict[str, float] | None = None
    columns: list[str] | None = None
    for index, raw in enumerate(lines):
        line, lineno = _strip(raw), index + 1
        if not line:
            continue
        if line.startswith("units:"):
            if units is not None:
                raise ParseError("duplicate units declaration", lineno)
            units = _parse_units(line[len("units:") :], lineno)
        elif line.startswith("columns:"):
            if columns is not None:
                raise ParseError("duplicate columns declaration", lineno)
            columns = _parse_columns(line[len("columns:") :], lineno)
        elif units is None:
            raise ParseError("data row before the units declaration", lineno)
        elif columns is None:
            raise ParseError("data row before the columns declaration", lineno)
        else:
            return units, columns, index, raw
    raise ParseError("no data rows found", None)


def _parse_rows(
    body: Iterable[str], units: dict[str, float], columns: list[str], start: int
) -> Measurements:
    """The parser's rules, applied one row at a time to body, line start + 1
    on: field count, mode, fanout, numbers (finite, then t_osc and i_eff > 0),
    then that the row's (die, geometry, fanout, mode) is new. The first
    faulty line raises its ParseError."""
    tosc_scale, current_scale = units["tosc"], units["current"]
    at = {name: index for index, name in enumerate(columns)}.get
    (die_at, geometry_at, fanout_at, mode_at,
     tosc_at, ieff_at, idda_at, iddq_at) = map(at, _MEAS_COLUMNS)
    die, geometry, fanout, mode = [], [], [], []
    t_osc, i_eff = array("d"), array("d")
    # Keyed by interned strings: their hashes are cached, and no row
    # keeps a string of its own alive.
    seen: dict[tuple[str, str, str, str], int] = {}

    for lineno, raw in enumerate(body, start=start + 1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith(("units:", "columns:")):
            raise ParseError(f"duplicate {line.partition(':')[0]} declaration", lineno)
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ParseError(
                f"expected {len(columns)} fields ({' '.join(columns)}), "
                f"got {len(fields)}",
                lineno,
            )
        mode_token, fanout_token = fields[mode_at].strip(), fields[fanout_at].strip()
        row_mode, row_fanout = _MODES.get(mode_token), _FANOUTS.get(fanout_token)
        if row_mode is None or row_fanout is None:  # the first unknown label, in this order
            for name, token, known in (("mode", mode_token, _MODES),
                                       ("fanout", fanout_token, _FANOUTS)):
                if token not in known:
                    raise ParseError(f"unknown {name} {token!r}; valid {name}s: "
                                     f"{', '.join(sorted(known))}", lineno)
        row_t_osc = _float(fields[tosc_at].strip(), "tosc", lineno) * tosc_scale
        if ieff_at is not None:
            row_i_eff = _float(fields[ieff_at].strip(), "ieff", lineno) * current_scale
        else:
            row_i_eff = (
                _float(fields[idda_at].strip(), "idda", lineno) * current_scale
                - _float(fields[iddq_at].strip(), "iddq", lineno) * current_scale
            )
        if not (math.isfinite(row_t_osc) and row_t_osc > 0.0):
            raise ParseError(f"t_osc must be finite and > 0, got {row_t_osc!r}", lineno)
        if not (math.isfinite(row_i_eff) and row_i_eff > 0.0):
            raise ParseError(f"i_eff must be finite and > 0, got {row_i_eff!r}", lineno)
        row_die = "" if die_at is None else sys.intern(fields[die_at].strip())
        row_geometry = sys.intern(fields[geometry_at].strip())
        key = (row_die, row_geometry, sys.intern(fanout_token), sys.intern(mode_token))
        first = seen.setdefault(key, lineno)
        if first != lineno:
            label = record_label(row_die, row_geometry, row_fanout, row_mode)
            raise ParseError(f"duplicate record {label!r} (first seen on line {first})",
                             lineno)
        die.append(row_die)
        geometry.append(row_geometry)
        fanout.append(row_fanout)
        mode.append(row_mode)
        t_osc.append(row_t_osc)
        i_eff.append(row_i_eff)
    return Measurements.from_columns(die, geometry, fanout, mode, t_osc, i_eff)


def _fields(rows: list[str], width: int) -> list[str] | None:
    """The fields of rows, row after row, if no row holds a comment or a
    declaration and each has width fields; else None. Each row after the
    first is joined with a leading newline, so its first field and no
    other holds one: counting those checks every row's field count."""
    body = ",\n".join(rows)
    fields = body.split(",")
    if ("#" in body or "units:" in body or "columns:" in body
            or len(fields) != width * len(rows)
            or "".join(fields[width::width]).count("\n") != len(rows) - 1):
        return None
    return fields


def _parse_bulk(
    lines: Iterator[str], units: dict[str, float], columns: list[str]
) -> Measurements | None:
    """_parse_rows' table from chunked, vectorized checks of the body's
    lines, or None if a check fails."""
    width, lookup = len(columns), {"die": sys.intern, "geometry": sys.intern,
                                   "fanout": _FANOUTS.get, "mode": _MODES.get}
    # per label column: raw token -> code of its stripped label, and label -> code
    codes = {name: ({}, {}) for name in lookup if name in columns}
    chunks: dict[str, list[np.ndarray]] = {name: [] for name in columns}
    for rows in iter(lambda: list(islice(lines, _CHUNK_ROWS)), []):
        fields = _fields(rows, width)
        if fields is None:  # comments or blank lines, or a faulty row
            fields = _fields([row for row in map(_strip, rows) if row], width)
            if fields is None:
                return None
        for name, column in zip(columns, (fields[k::width] for k in range(width))):
            if name not in codes:
                try:
                    chunks[name].append(np.array(column, dtype=np.float64))
                except ValueError:
                    return None
                continue
            known, labels = codes[name]
            for token in set(column).difference(known):
                label = lookup[name](token.strip())
                if label is None:
                    return None
                known[token] = labels.setdefault(label, len(labels))
            chunks[name].append(np.fromiter(map(known.__getitem__, column), np.int32,
                                            len(column)))
        del rows, fields  # before the next chunk is read

    # one column's chunks at a time, each freed once joined
    column = {name: np.concatenate(chunks.pop(name)) for name in columns}
    t_osc, current_scale = column["tosc"], units["current"]
    t_osc *= units["tosc"]
    with np.errstate(over="ignore", invalid="ignore"):
        i_eff = (column["ieff"] * current_scale if "ieff" in column
                 else column["idda"] * current_scale - column["iddq"] * current_scale)
    # no unit scale exceeds 1, so a scaled value is finite where its field is;
    # i_eff is finite only where the fields it is taken from are
    if not ((t_osc > 0.0).all() and (t_osc < np.inf).all()
            and (i_eff > 0.0).all() and (i_eff < np.inf).all()):
        return None
    key, table = np.int64(0), {"die": np.full(len(t_osc), "", dtype=object)}
    for name, (_, labels) in codes.items():
        key = key * len(labels) + column[name]
        table[name] = np.array(list(labels), dtype=object)[column.pop(name)]
    key.sort()
    if (key[1:] == key[:-1]).any():
        return None
    return Measurements(table["die"], table["geometry"], table["fanout"], table["mode"],
                        t_osc, i_eff)


def _parse_units(body: str, lineno: int) -> dict[str, float]:
    units = {}
    for token in body.split():
        key, equals, value = token.partition("=")
        if not equals:
            raise ParseError(f"malformed unit token {token!r}", lineno)
        table = _UNITS.get(key)
        if table is None:
            raise ParseError(f"unknown unit key {key!r}; allowed: {', '.join(_UNITS)}", lineno)
        if value not in table:
            raise ParseError(
                f"unsupported {key} unit {value!r}; allowed: {', '.join(table)}", lineno
            )
        if key in units:
            raise ParseError(f"duplicate unit key {key!r}", lineno)
        units[key] = table[value]
    for required in _UNITS:
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
    threshold_fraction: float
    segments: int
    lines: dict[str, LineRC]
    spec: SpecTable
    warnings: tuple[str, ...]

    def ro_config(self, geometry: str = "") -> RoConfig:
        return RoConfig(n=self.n, m=self.m, v_dd=self.v_dd, geometry=geometry)

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
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _strip(rawline)
        if not line:
            continue
        key, equals, value = line.partition("=")
        key, value = ".".join(part.strip() for part in key.split(".")), value.strip()
        if not (equals and key and value):
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if key in raw:
            raise ParseError(
                f"duplicate key {key!r} (first seen on line {raw[key][1]})", lineno
            )
        raw[key] = (value, lineno)

    # top-level key -> its converter and default; a key without a default is required
    scalars = {"n": (_int, None), "m": (_int, None), "v_dd": (_float, None),
               "threshold_fraction": (_float, 0.5), "segments": (_int, 50)}

    def scalar(key: str):
        convert, default = scalars[key]
        entry = raw.pop(key, None)
        if entry is not None:
            return convert(entry[0], key, entry[1])
        if default is None:
            raise ValidationError(f"required key {key!r} is missing")
        return default

    n, m, v_dd = scalar("n"), scalar("m"), scalar("v_dd")
    try:
        RoConfig(n=n, m=m, v_dd=v_dd)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    threshold = scalar("threshold_fraction")
    if not THRESHOLD_FLOOR <= threshold < 1.0:
        raise ValidationError(
            f"threshold_fraction must be in [{THRESHOLD_FLOOR!r}, 1), got {threshold!r}; "
            f"below {THRESHOLD_FLOOR!r} of v_dd a simulated crossing would be set by "
            f"rounding, which reaches ~1e-15 of v_dd, not by the line"
        )
    segments = scalar("segments")
    if segments < 1:
        raise ValidationError(f"segments must be >= 1, got {segments}")

    warnings: list[str] = []
    # section -> geometry -> field -> value in SI units
    given: dict[str, dict[str, dict[str, float]]] = {section: {} for section in _SECTIONS}
    for key, (value, lineno) in raw.items():
        parts = key.split(".")
        keys = _SECTIONS.get(parts[0]) if len(parts) == 3 else None
        if keys is None or parts[2] not in keys:
            what, known = ((f"{parts[0]} keys", keys) if keys else
                           ("keys", [*scalars, *(f"{s}.<geometry>.<field>" for s in _SECTIONS)]))
            warnings.append(f"line {lineno}: unknown key {key!r} ignored; "
                            f"known {what}: {', '.join(known)}")
            continue
        section, geometry, leaf = parts
        field, scale = keys[leaf]
        number = _float(value, key, lineno) * scale
        if section == "spec" and not number >= sys.float_info.min:
            # relative errors against a target need a positive denominator
            raise ValidationError(
                f"{key} must be > 0 and, scaled to SI units, a normal "
                f"float (>= {sys.float_info.min!r}), got {value}"
            )
        given[section].setdefault(geometry, {})[field] = number

    lines: dict[str, LineRC] = {}
    for geometry in sorted(given["line"].keys() | given["cap"].keys()):
        line = given["line"].get(geometry, {})
        if "r" not in line:
            raise ValidationError(f"line.{geometry}.r_ohm is required to build a line model")
        if geometry in given["cap"]:
            if "c" in line or "c_c" in line:
                raise ValidationError(
                    f"geometry {geometry!r} has both line.c_ff/cc_ff and a "
                    f"cap section; give one or the other"
                )
            section, name = "cap", f"cap.{geometry} section"
        else:
            section, name = "line", f"line.{geometry}"
        fields = given[section][geometry]
        missing = [key for key, (field, _) in _SECTIONS[section].items() if field not in fields]
        if missing:
            raise ValidationError(f"{name} is incomplete; missing: {', '.join(missing)}")
        try:
            if section == "cap":
                cap = CapacitanceSet(**fields)
                # from here on an error is the line model's
                section, fields = "line", {"r": line["r"], "c": cap.c_ground, "c_c": cap.c_c}
            lines[geometry] = LineRC(**fields, v_dd=v_dd)
        except ValueError as exc:
            raise ValidationError(f"{section}.{geometry}: {exc}") from None

    return ConfigFile(
        n=n,
        m=m,
        v_dd=v_dd,
        threshold_fraction=threshold,
        segments=segments,
        lines=lines,
        spec=SpecTable({geometry: ParasiticSet(**fields)
                        for geometry, fields in given["spec"].items()}),
        warnings=tuple(warnings),
    )


def read_measurements(path: str) -> Measurements:
    """parse_measurements of a file's text, read _BLOCK_CHARS at a time so that
    the parser holds one chunk of lines, and read again if a bulk check fails;
    a pipe is read whole. An undecodable byte anywhere is the error reported."""
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" writes
    with open(path, encoding="utf-8-sig") as fh:
        if not fh.seekable():
            return parse_measurements(_decoded(fh.buffer.read()))
        try:
            return _parse(lambda: chain.from_iterable(_blocks(fh)))
        except (ParseError, UnicodeDecodeError):
            fh.buffer.seek(0)
            _decoded(fh.buffer.read())
            raise


def _blocks(fh: TextIO) -> Iterator[list[str]]:
    """fh's lines from its start, a block at a time, cut as by str.splitlines():
    a block's last piece, kept nonempty by an appended NUL, waits for the next."""
    fh.seek(0)
    carry = ""
    while block := fh.read(_BLOCK_CHARS):
        lines = (carry + block + "\0").splitlines()
        carry = lines.pop()[:-1]
        yield lines
    yield [carry] if carry else []


def _decoded(data: bytes) -> str:
    """data as UTF-8 text less a byte-order mark, or a ParseError naming the
    line of its first undecodable byte."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode() + "\0").splitlines())
        raise ParseError(f"cannot decode byte {data[exc.start]:#04x} as UTF-8", line) from None


def read_config(path: str) -> ConfigFile:
    with open(path, "rb") as fh:
        return parse_config(_decoded(fh.read()))


def write_text_atomic(path: str, text: str) -> None:
    """Write text so readers never observe a partially written file.

    The file gets the mode open(path, "w") would leave: an existing file
    keeps its permission bits, and a new one gets 0o666 less the umask,
    which the kernel applies when it creates the temporary. As with open,
    a symbolic link stays a link and its target (created if missing) gets
    the text.
    """
    # only a link as the last component changes where os.replace writes;
    # realpath would lstat every component of every path
    if os.path.islink(path):
        path = os.path.realpath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
    try:
        existing_mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        existing_mode = None
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if existing_mode is not None:
                os.fchmod(fh.fileno(), existing_mode)
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
    """The payload of a JSON report carrying one of the readable tags."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", exc.lineno) from None
    if not isinstance(payload, dict) or payload.get("format") not in _READABLE_TAGS:
        raise ParseError(
            f"missing or unsupported format tag; expected {' or '.join(map(repr, _READABLE_TAGS))}",
            None,
        )
    return payload
