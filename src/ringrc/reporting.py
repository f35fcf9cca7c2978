"""Report generation: extraction tables, clock binning, model validation.

Extraction and binning reports come as text (for design reviews), CSV
(for spreadsheets) or JSON, all read from one value table
(`extraction.VALUES`, or the `BinningReport` columns). JSON is canonical
(SI units, sorted keys, full float precision), so emitting, parsing and
re-emitting a report reproduces the bytes exactly. Text and CSV show the
values in display units. Every number a person reads, in report, binning
and validate text and in the simulate summary, follows `_shown`'s rule:
fixed decimals for 0 and for 0.01 <= |v| < 1e6, six significant digits
otherwise. `_table` renders the text tables.

The waveform CSV ("%.9e" per value) and SVG (points to 0.01 px, "%.2f")
come from two numpy kernels, `_scientific` and `_fixed`, whose bytes equal
Python's `%` formatting of every value. Each writes every field of a
(rows x columns) table as a few whole uint32 words, gathered from digit
tables, into one row buffer; NUL fills what a field does not use, and one
`translate` of the buffer's bytes drops it. Digits come from the integer
mantissa rint(|v| * 10**k) (k = 9 - floor(log10|v|) for "%.9e", 2 for
"%.2f"), exact unless the scaled value, two roundings off at most, lies
that close to a half-integer. Those values, a wrong exponent guess,
subnormals and |v| >= 1e280 for "%.9e", |v| >= 1e13 for "%.2f", and
non-finite values are formatted by `%` itself and written into the row.

The tables are built on first use, not at import, mostly by numpy
arithmetic on "%04d" of 0..9999 (four ASCII bytes), and indexed per field:
- "%.9e": the sign and the first two digits around the point ("\0d.d" or
  "-d.d", from 200 entries), two lookups in the "%04d" table for the next
  eight, and "e%+03d" of the exponent, 8 bytes with the separator in byte 5.
- "%.2f": a sign word, the digits above the tens four to a word, then
  "TU.dd" (tens, units, point, two decimals) with the separator in 8
  bytes. Each of these has a zero-padded and a blanked variant, used where
  no digit is above it, so that leading zeros are NUL from the lookup.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .capacitance import AGGRESSOR_STEP, CrosstalkMode
from .errors import NumericError, ValidationError
from .extraction import COMPARED, VALUES, ErrorReport, ExtractionResult
from .files import REPORT_FORMAT_TAG, emit_report_json
from .lumpmodel import DrivePattern, LineRC, step_response_victim
from .simulator import SAMPLES, SimulationResult, build_network, victim_delay

#: The output formats of extraction and binning reports.
FORMATS = ("text", "csv", "json")
#: Largest tolerated oracle-vs-closed-form deviation, as a fraction of the rail.
WAVEFORM_TOLERANCE = 1e-4
#: Acceptable window for the distributed-over-lump quiet delay ratio.
RATIO_WINDOW = (0.35, 0.65)


# ---------------------------------------------------------------------------
# extraction reports


def _shown(value: float, width: int = 10, decimals: int = 2) -> str:
    """A number in display units, right-aligned to width: fixed decimals for
    0 and from 0.01 up to 1e6, six significant digits outside that range."""
    return (f"{value:>{width}.{decimals}f}" if value == 0 or 0.01 <= abs(value) < 1e6
            else f"{value:>{width}.6g}")


def _table(columns: tuple, labels, values) -> str:
    """A label column and rows of numbers as a text table under its header;
    columns are (heading, width) for the labels, then (heading, width,
    decimals) per number. One "%" template fills every row (4 000 binning
    rows in 5.0 ms, 23.6 ms by _shown per cell); a row holding a value
    outside _shown's fixed-decimal range is written again by _shown."""
    (heading, width), *numbers = columns
    head = f"  {heading:<{width}}" + "".join(f" {h:>{w}}" for h, w, _ in numbers) + "\n"
    row = f"  %-{width}s" + "".join(f" %{w}.{d}f" for _, w, d in numbers) + "\n"
    values = np.asarray(values, dtype=float).reshape(len(labels), len(numbers))
    cells = np.column_stack([np.asarray(labels, dtype=object), values])
    body = (row * len(cells)) % tuple(cells.ravel().tolist())
    magnitude = np.abs(values)
    fixed = (magnitude == 0) | (magnitude >= 0.01) & (magnitude < 1e6)
    extreme = np.flatnonzero(~fixed.all(axis=1))
    if len(extreme):
        lines = body.split("\n")
        for k in extreme:
            lines[k] = f"  {labels[k]:<{width}}" + "".join(
                f" {_shown(v, w, d)}" for v, (_, w, d) in zip(values[k].tolist(), numbers))
        body = "\n".join(lines)
    return head + body


#: The text comparison block: parameter (unit), then extracted, target, error %.
_COMPARISON = (("comparison", 12), ("extracted", 10, 2), ("target", 10, 2), ("error %", 8, 2))


def emit_report(
    results: Mapping[str, ExtractionResult],
    comparisons: Mapping[str, ErrorReport] | None = None,
    fmt: str = "text",
) -> str:
    """Render one-die extraction results, by geometry, as text, CSV or
    canonical JSON.

    JSON stores SI values; a comparison block appears for each geometry
    with an error report, holding the errors and the report's targets.
    Text and CSV show geometries in sorted order. Text lists a
    comparison row for each parameter with an error; CSV fills the
    target and error fields of those rows and leaves the others empty.
    """
    comparisons = comparisons or {}
    if fmt == "json":
        geometries = {}
        for geometry, result in results.items():
            extraction = result.one()
            extraction["provenance"] = {
                name: list(labels) for name, labels in result.provenance.items()
            }
            geometries[geometry] = {"extraction": extraction}
            report = comparisons.get(geometry)
            if report is not None:
                geometries[geometry]["comparison"] = {
                    "errors": dict(report.param_errors),
                    "delay_product_error": report.delay_product_error,
                    "targets": {name: value for name, value in report.targets.as_dict().items()
                                if value is not None},
                }
        return emit_report_json({"format": REPORT_FORMAT_TAG, "geometries": geometries})
    if fmt == "text":
        out = ["extraction report\n"]
        for geometry in sorted(results):
            result, report = results[geometry].one(), comparisons.get(geometry)
            out.append(f"\ngeometry {geometry}\n")
            out += [f"  {name:<9} {_shown(result[name] * scale)} {unit}\n"
                    for name, unit, scale, _ in VALUES]
            if report is None:
                continue
            compared = [value for value in COMPARED if value.name in report.param_errors]
            out.append(_table(_COMPARISON, [f"{name} ({unit})" for name, unit, _, _ in compared], [
                (result[name] * scale, getattr(report.targets, name) * scale,
                 report.param_errors[name] * 100.0) for name, _, scale, _ in compared]))
            if report.delay_product_error is not None:
                error_pct = _shown(report.delay_product_error * 100.0, 0)
                out.append(f"  delay product (r_sw x c_total) error: {error_pct} %\n")
        return "".join(out)
    if fmt == "csv":
        out = ["geometry,parameter,unit,extracted,target,error_pct\n"]
        for geometry in sorted(results):
            result, report = results[geometry].one(), comparisons.get(geometry)
            errors = {} if report is None else report.param_errors
            for name, unit, scale, _ in VALUES:
                target_field = error_field = ""
                if name in errors:
                    error_field = _shown(errors[name] * 100.0, 0, 4)
                    target_field = f"{getattr(report.targets, name) * scale:.6g}"
                out.append(
                    f"{geometry},{name},{unit},{result[name] * scale:.6g},"
                    f"{target_field},{error_field}\n"
                )
            if report is not None and report.delay_product_error is not None:
                error_pct = _shown(report.delay_product_error * 100.0, 0, 4)
                out.append(f"{geometry},delay_product,,,,{error_pct}\n")
        return "".join(out)
    raise ValueError(f"unknown report format {fmt!r}; use one of {', '.join(FORMATS)}")


# ---------------------------------------------------------------------------
# multi-die clock binning


@dataclass(frozen=True, eq=False)
class BinningReport:
    """Clock binning of one geometry's dies, one array per field, dies
    slowest first.

    delay_proxy is the r_sw * c_total product; scale is the slowest
    die's proxy over each die's, so the slowest die sits at 1.0 and a
    die that could run 25 % faster shows scale 1.25. normalized_runtime
    is the reciprocal (workload runtime relative to the slowest die at
    its matched clock) and improvement is scale - 1.
    """

    geometry: str
    die: np.ndarray
    r_sw: np.ndarray
    c_total: np.ndarray
    delay_proxy: np.ndarray
    scale: np.ndarray
    normalized_runtime: np.ndarray
    improvement: np.ndarray


def monitor_binning(lot: ExtractionResult) -> BinningReport:
    """Derive per-die clock scaling from one geometry's extracted lot,
    read column by column.

    Returns:
        BinningReport with dies ordered slowest first, ties by label.

    Raises:
        ValidationError: if the lot has no dies.
        NumericError: if a column the reports show is not finite in its
            display unit: the slowest die's proxy in ps, or a die's gain
            against the slowest in percent.
    """
    if not len(lot.die):
        raise ValidationError("no dies to bin")
    die, r_sw, c_total = lot.die, lot.r_sw, lot.c_total
    with np.errstate(over="ignore"):  # an infinite proxy fails the checks below
        proxy = r_sw * c_total
    fastest, slowest_die = int(np.argmin(proxy)), int(np.argmax(proxy))
    slowest, low = float(proxy[slowest_die]), float(proxy[fastest])
    if not slowest * 1e12 < np.inf:
        raise NumericError(
            f"die {die[slowest_die]}: delay proxy r_sw * c_total = {slowest!r} s "
            f"is not finite in ps"
        )
    if not (low > 0.0 and slowest / low * 100.0 < np.inf):
        raise NumericError(
            f"die {die[fastest]}: delay proxy r_sw * c_total = {low!r} s "
            f"has no finite clock gain (%) against the slowest die's {slowest!r} s"
        )
    order = np.lexsort((die, -proxy))
    proxy = proxy[order]
    scale = slowest / proxy
    return BinningReport(lot.geometry, die[order], r_sw[order], c_total[order], proxy,
                         scale, 1.0 / scale, scale - 1.0)


#: The binning text table: die, then one column per BinningReport number.
_BINNING = (("die", 10), ("r_sw (ohm)", 11, 2), ("c_total (fF)", 13, 2), ("proxy (ps)", 11, 4),
            ("scale", 7, 3), ("runtime", 8, 3), ("gain %", 7, 2))


def emit_binning(report: BinningReport, fmt: str = "text") -> str:
    """Render a binning report as text, CSV or canonical JSON.

    JSON holds one entry per die with each of its columns, in SI units.
    Text and CSV show them in display units, one row per die.
    """
    if fmt == "json":
        columns = {name: column.tolist() for name, column in vars(report).items()
                   if name != "geometry"}
        bins = [dict(zip(columns, entry)) for entry in zip(*columns.values())]
        return emit_report_json(
            {
                "format": REPORT_FORMAT_TAG,
                "binning": {"geometry": report.geometry, "bins": bins},
            }
        )
    values = [report.r_sw, report.c_total * 1e15, report.delay_proxy * 1e12,
              report.scale, report.normalized_runtime, report.improvement * 100.0]
    if fmt == "text":
        return (f"clock binning for geometry {report.geometry}"
                f" ({len(report.die)} dies, slowest first)\n"
                + _table(_BINNING, report.die, np.column_stack(values)))
    if fmt == "csv":
        geometry = np.full(len(report.die), report.geometry, dtype=object)
        table = np.column_stack([report.die, geometry, *values])
        return ("die,geometry,r_sw_ohm,c_total_ff,delay_proxy_ps,"
                "scale,normalized_runtime,improvement_pct\n"
                + ("%s,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n" * len(table))
                % tuple(table.ravel().tolist()))
    raise ValueError(f"unknown report format {fmt!r}; use one of {', '.join(FORMATS)}")


# ---------------------------------------------------------------------------
# model validation


@dataclass(frozen=True)
class GeometryValidation:
    """Cross-check summary for one geometry's line model.

    max_dev and delays map each crosstalk mode, in AGGRESSOR_STEP order,
    to the single-lump oracle's largest deviation from the closed form (a
    fraction of v_dd) and to its simulated threshold delay (seconds).
    """

    geometry: str
    max_dev: Mapping[CrosstalkMode, float]
    delays: Mapping[CrosstalkMode, float]
    segments: int
    distributed_ratio: float

    @property
    def waveforms_ok(self) -> bool:
        return all(dev <= WAVEFORM_TOLERANCE for dev in self.max_dev.values())

    @property
    def ordering_ok(self) -> bool:
        """in-phase <= quiet <= out-of-phase."""
        delays = [self.delays[mode] for mode in AGGRESSOR_STEP]
        return delays == sorted(delays)

    @property
    def ratio_ok(self) -> bool:
        low, high = RATIO_WINDOW
        return low <= self.distributed_ratio <= high

    @property
    def passed(self) -> bool:
        return self.waveforms_ok and self.ordering_ok and self.ratio_ok


def validate_geometry(
    geometry: str,
    line: LineRC,
    segments: int,
    threshold_fraction: float = 0.5,
) -> GeometryValidation:
    """Run the oracle cross-checks for one line model.

    Compares the single-lump oracle against the exact closed-form victim
    response of every crosstalk mode, checks that the simulated threshold
    delays order as in-phase <= quiet <= out-of-phase, and measures the
    distributed over lump quiet delay ratio at the configured segment
    count. A threshold the lump victim starts at leaves that ratio
    undefined: NumericError.
    """
    net = build_network(line, 1)
    modes = net.modes()
    max_dev, delays = {}, {}
    for mode in AGGRESSOR_STEP:
        result = SimulationResult.of(net, DrivePattern.for_mode(mode, line.v_dd), modes=modes)
        analytic = step_response_victim(mode, line, np.arange(SAMPLES) * result.dt)
        max_dev[mode] = float(np.max(np.abs(result.sample() - analytic))) / line.v_dd
        delays[mode] = result.crossing(threshold_fraction * line.v_dd)
    t_lump = delays[CrosstalkMode.QUIET]
    if not t_lump > 0.0:
        raise NumericError(
            f"threshold_fraction = {threshold_fraction!r}: the lump victim starts at or "
            f"above the threshold (quiet delay {t_lump!r} s), so the distributed/lump "
            f"delay ratio is undefined"
        )
    # the lump quiet delay is already in hand: simulate only the segmented line
    t_dist = victim_delay(line, CrosstalkMode.QUIET, segments, threshold_fraction)
    return GeometryValidation(geometry, max_dev, delays, segments, t_dist / t_lump)


def run_validation(
    lines: Mapping[str, LineRC],
    segments: int,
    threshold_fraction: float = 0.5,
) -> tuple[GeometryValidation, ...]:
    """validate_geometry of every line model, in sorted geometry order."""
    if not lines:
        raise ValidationError("no line models configured; nothing to validate")
    return tuple(validate_geometry(geometry, lines[geometry], segments, threshold_fraction)
                 for geometry in sorted(lines))


def format_validation_text(entries: tuple[GeometryValidation, ...]) -> str:
    out = ["model validation report\n"]
    for entry in entries:
        out.append(f"\ngeometry {entry.geometry}\n")
        for mode, dev in entry.max_dev.items():
            label = f"{mode.value.replace('_', '-')}:"
            out.append(
                f"  oracle vs closed form, {label:<13} max deviation {dev:.2e}"
                f" of v_dd [{'pass' if dev <= WAVEFORM_TOLERANCE else 'FAIL'}]\n"
            )
        delays = " <= ".join(
            f"{mode.value.replace('_', '-')} {_shown(delay * 1e12, 0, 4)} ps"
            for mode, delay in entry.delays.items()
        )
        out.append(
            f"  simulated threshold delays: {delays}"
            f" [{'pass' if entry.ordering_ok else 'FAIL'}]\n"
        )
        low, high = RATIO_WINDOW
        out.append(
            f"  distributed({entry.segments}) / lump quiet delay:"
            f" {_shown(entry.distributed_ratio, 0, 4)}"
            f" [expected {low:.2f}..{high:.2f};"
            f" {'pass' if entry.ratio_ok else 'FAIL'}]\n"
        )
    out.append(f"\noverall: {'pass' if all(e.passed for e in entries) else 'FAIL'}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# waveform output


#: Decimal exponents the "%.9e" tables cover.
_EXP_SPAN = 300


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The word tables of the module docstring, built as bytes so that byte
    order does not matter, and the correctly rounded 10.0**e, |e| <= _EXP_SPAN."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1).reshape(-1, 4)
    blanks = quads * np.logical_or.accumulate(quads > ord("0"), axis=1)  # "%4d", NUL blanks
    low = np.zeros((2, 10_000, 8), np.uint8)  # "TU.dd", then blanked down to the units
    low[..., [0, 1, 3, 4]], low[..., 2] = quads, ord(".")
    low[1, :, 0] = blanks[:, 0]
    head = [b"%s%d.%d" % (sign, d // 10, d % 10) for sign in (b"", b"-") for d in range(100)]
    exponents = range(-_EXP_SPAN, _EXP_SPAN + 1)
    return (np.concatenate([quads, blanks]).view(np.uint32).ravel(),
            np.array(head, "S4").view(np.uint32),
            np.array([b"e%+03d" % e for e in exponents], "S8").view(np.uint64),
            low.view(np.uint64).ravel(), np.array([float(f"1e{e}") for e in exponents]))


def _finish(rows: np.ndarray, tail: np.ndarray, values: np.ndarray, fast: np.ndarray,
            fmt: bytes, separators: bytes) -> np.ndarray:
    """rows, the tail words and then separators (byte 5) in each field's last
    two words, and `fmt % v` over each field not fast, widened if need be."""
    *fields, width = rows.shape
    np.ndarray(fields, np.uint64, rows, 4 * width - 8, rows.strides[:-1])[...] = tail
    rows.view(np.uint8)[..., -3] = np.frombuffer(separators, np.uint8)
    if fast.all():
        return rows
    slow = np.nonzero(~fast)
    texts = np.array([fmt % v + separators[column:column + 1]
                      for v, column in zip(values[slow].tolist(), slow[1].tolist())])
    if texts.itemsize > 4 * width:  # a "%.2f" of 1e13 or more
        rows = np.pad(rows, ((0, 0), (0, 0), (-(-texts.itemsize // 4) - width, 0)))
    width = rows.shape[-1]
    rows[slow] = texts.astype(f"S{4 * width}").view(np.uint32).reshape(-1, width)
    return rows


def _scientific(values: np.ndarray, separators: bytes) -> np.ndarray:
    """"%.9e" of each value (rows x columns) and its column's separator, as
    five uint32 words per field: sign and d.d, two quads, exponent."""
    quads, head, suffix, _, powers = _tables()
    a = np.abs(values)
    fast = (a >= 1e-280) & (a < 1e280)
    e = np.floor(np.log10(np.where(fast, a, 1.0))).astype(np.intp)
    scaled = np.where(fast, a, 0.0) * powers[_EXP_SPAN + 9 - e]
    # out of range: log10 guessed wrong, or rint carries into the next decade;
    # ±0.0 is mantissa 0 with exponent 0, the log10 of the 1.0 put in its place
    fast = fast & (scaled >= 1e9) & (scaled < 1e10 - 0.5) | (a == 0.0)
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-50
    mantissa = np.rint(scaled).astype(np.int64)
    high = mantissa // 10**8  # numpy's // by a scalar needs no hardware division; % does
    low = (mantissa - high * 10**8).astype(np.int32)
    middle = low // 10_000
    rows = np.empty((*values.shape, 5), np.uint32)
    # a field the fallback rewrites may have three leading digits: clip them
    rows[..., 0] = head.take(high + 100 * np.signbit(values), mode="clip")
    rows[..., 1], rows[..., 2] = quads[middle], quads[low - middle * 10_000]
    return _finish(rows, suffix[_EXP_SPAN + e], values, fast, b"%.9e", separators)


def _fixed(values: np.ndarray, separators: bytes) -> np.ndarray:
    """"%.2f" of each value (rows x columns) and its column's separator, as
    uint32 words: the sign, the digits above the tens by fours, "TU.dd"."""
    lead, _, _, low, _ = _tables()
    a = np.abs(values)
    fast = a < 1e13
    scaled = np.where(fast, a, 0.0) * 100.0
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-50
    mantissa = np.rint(scaled).astype(np.int64)
    groups = (len(str(mantissa.max(initial=0))) - 1) // 4
    rows = np.empty((*values.shape, groups + 3), np.uint32)
    rows[..., 0] = np.signbit(values) * np.uint32(ord("-"))
    above = 0  # the digits above each word: none above the first
    for j in range(groups + 1):  # each word above the tens, then "TU.dd"
        digits = mantissa // 10 ** (4 * (groups - j))
        index = digits - 10_000 * above + 10_000 * (above == 0)  # blanked if none above
        if j < groups:
            rows[..., 1 + j], above = lead[index], digits
    return _finish(rows, low[index], values, fast, b"%.2f", separators)


def _text(rows: np.ndarray) -> str:
    """The bytes of rows, NUL padding dropped."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def waveform_csv(result: SimulationResult) -> str:
    """Render a simulation result as a four-column CSV (time plus the
    far-end voltage of each line), every value as "%.9e"."""
    table = np.column_stack([result.times, result.values])
    return "time_s,line_a_v,line_b_v,line_c_v\n" + _text(_scientific(table, b",,,\n"))


def waveform_svg(result: SimulationResult, title: str = "") -> str:
    """Render a simulation result as a self-contained SVG line plot."""
    width, height = 800.0, 420.0
    left, right, top, bottom = 70.0, 20.0, 30.0, 40.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    times, values = result.times, result.values
    t_max = float(times[-1])
    v_min = min(0.0, float(np.min(values)))
    v_max = float(np.max(values))
    if v_max <= v_min:  # a flat trace: the axis spans the drive, the largest final voltage
        v_max = v_min + float(np.abs(result.response.final).max())
    span = v_max - v_min

    def y(v):
        return top + plot_h * (1.0 - (v - v_min) / span)

    # x, then each line's y: the x words are rendered once for all three
    points = _fixed(
        np.column_stack([left + plot_w * (times / t_max), y(values)]),
        b",   ",
    )
    # one item per field; row by row, columns 0 and idx + 1 are a polyline's points
    fields = points.view(f"V{points.itemsize * points.shape[-1]}")[..., 0]
    # by hand: xml.sax.saxutils.escape would import urllib.request at startup
    escaped_title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
        f' height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left:.1f}" y="18" font-size="13" font-family="monospace">'
        f"{escaped_title}</text>",
        f'<line x1="{left:.1f}" y1="{top + plot_h:.1f}" x2="{left + plot_w:.1f}"'
        f' y2="{top + plot_h:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}"'
        f' y2="{top + plot_h:.1f}" stroke="black"/>',
        f'<text x="{left:.1f}" y="{height - 8:.1f}" font-size="11"'
        f' font-family="monospace">0</text>',
        f'<text x="{left + plot_w - 80:.1f}" y="{height - 8:.1f}" font-size="11"'
        f' font-family="monospace">{_shown(t_max * 1e12, 0, 3)} ps</text>',
        f'<text x="4" y="{y(v_max) + 4:.1f}" font-size="11"'
        f' font-family="monospace">{_shown(v_max, 0, 2)} V</text>',
        f'<text x="4" y="{y(v_min):.1f}" font-size="11"'
        f' font-family="monospace">{_shown(v_min, 0, 2)} V</text>',
    ]
    lines = (("line_a", "#6a6a6a"), ("line_b", "#c03030"), ("line_c", "#3060b0"))
    for idx, (label, color) in enumerate(lines):
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f' points="{_text(fields[:, 0:idx + 2:idx + 1])[:-1]}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 120:.1f}" y="{top + 14 + 14 * idx:.1f}"'
            f' font-size="11" font-family="monospace" fill="{color}">'
            f"{label}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
