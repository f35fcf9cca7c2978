"""Report generation: extraction tables, clock binning, model validation.

Three output styles are supported for the tabular reports, and all three
read one value table (`_VALUES` for extractions, the `DieBin` fields for
binning). JSON is canonical (SI units, sorted keys, full float
precision) so that emitting, parsing and re-emitting a report
reproduces the bytes exactly. Text (the two-decimal femtofarad/ohm
tables used in design reviews) and CSV (for spreadsheets) show the same
values scaled to display units.
"""

from __future__ import annotations

import io
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .capacitance import AGGRESSOR_STEP, CrosstalkMode
from .errors import ValidationError
from .extraction import ErrorReport, ExtractionResult
from .files import REPORT_FORMAT_TAG, emit_report_json
from .lumpmodel import DrivePattern, LineRC, step_response_victim
from .simulator import (
    SimulationResult,
    build_network,
    crossing_time,
    simulate_step,
    victim_delay,
)

#: Largest tolerated oracle-vs-closed-form deviation, as a fraction of the rail.
WAVEFORM_TOLERANCE = 1e-4
#: Acceptable window for the distributed-over-lump quiet delay ratio.
RATIO_WINDOW = (0.35, 0.65)

#: Every extraction value a report shows, in text and CSV row order:
#: report name -> (ExtractionResult attribute, display unit, SI-to-unit scale).
#: Comparisons cover the ParasiticSet subset, in its as_dict order.
_VALUES = {
    "r_sw": ("r_sw", "ohm", 1.0),
    "c_s": ("c_s", "fF", 1e15),
    "c_gate": ("c_gate", "fF", 1e15),
    "c_int": ("c_int", "fF", 1e15),
    "c_total": ("c_total", "fF", 1e15),
    "c_ground": ("c_ground", "fF", 1e15),
    "c_c": ("c_coupling", "fF", 1e15),
}


# ---------------------------------------------------------------------------
# extraction reports


def emit_report(
    results: Mapping[str, ExtractionResult],
    comparisons: Mapping[str, ErrorReport] | None = None,
    fmt: str = "text",
) -> str:
    """Render extraction results as text, CSV or canonical JSON.

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
            extraction = {
                name: getattr(result, attr) for name, (attr, _, _) in _VALUES.items()
            }
            extraction["provenance"] = {
                name: list(labels) for name, labels in result.provenance.items()
            }
            geometries[geometry] = {"extraction": extraction}
            report = comparisons.get(geometry)
            if report is not None:
                geometries[geometry]["comparison"] = {
                    "errors": dict(report.param_errors),
                    "delay_product_error": report.delay_product_error,
                    "targets": {
                        name: value
                        for name, value in report.targets.as_dict().items()
                        if value is not None
                    },
                }
        return emit_report_json({"format": REPORT_FORMAT_TAG, "geometries": geometries})
    if fmt == "text":
        out = ["extraction report\n"]
    elif fmt == "csv":
        out = ["geometry,parameter,unit,extracted,target,error_pct\n"]
    else:
        raise ValueError(f"unknown report format {fmt!r}; use text, csv or json")
    for geometry in sorted(results):
        result = results[geometry]
        report = comparisons.get(geometry)
        errors = {} if report is None else report.param_errors
        if fmt == "text":
            out.append(f"\ngeometry {geometry}\n")
            out += [
                f"  {name:<9} {getattr(result, attr) * scale:>10.2f} {unit}\n"
                for name, (attr, unit, scale) in _VALUES.items()
            ]
        else:
            for name, (attr, unit, scale) in _VALUES.items():
                target_field = error_field = ""
                if name in errors:
                    error_field = f"{errors[name] * 100.0:.4f}"
                    target_field = f"{getattr(report.targets, name) * scale:.6g}"
                out.append(
                    f"{geometry},{name},{unit},{getattr(result, attr) * scale:.6g},"
                    f"{target_field},{error_field}\n"
                )
        if report is None:
            continue
        if fmt == "text":
            out.append(
                f"  {'comparison':<12} {'extracted':>10} {'target':>10}"
                f" {'error %':>8}\n"
            )
            for name, extracted in result.parasitics.as_dict().items():
                if name not in errors:
                    continue
                _, unit, scale = _VALUES[name]
                out.append(
                    f"  {name + ' (' + unit + ')':<12} {extracted * scale:>10.2f}"
                    f" {getattr(report.targets, name) * scale:>10.2f}"
                    f" {errors[name] * 100.0:>8.2f}\n"
                )
        if report.delay_product_error is not None:
            error_pct = report.delay_product_error * 100.0
            out.append(
                f"  delay product (r_sw x c_total) error: {error_pct:.2f} %\n"
                if fmt == "text"
                else f"{geometry},delay_product,,,,{error_pct:.4f}\n"
            )
    return "".join(out)


# ---------------------------------------------------------------------------
# multi-die clock binning


@dataclass(frozen=True)
class DieBin:
    """Binning entry for one die.

    delay_proxy is the r_sw * c_total product; scale is the slowest
    die's proxy over this die's, so the slowest die sits at 1.0 and a
    die that could run 25 % faster shows scale 1.25. normalized_runtime
    is the reciprocal (workload runtime relative to the slowest die at
    its matched clock) and improvement is scale - 1.
    """

    die: str
    r_sw: float
    c_total: float
    delay_proxy: float
    scale: float
    normalized_runtime: float
    improvement: float


@dataclass(frozen=True)
class BinningReport:
    geometry: str
    bins: tuple[DieBin, ...]


def monitor_binning(results: Mapping[str, ExtractionResult]) -> BinningReport:
    """Derive per-die clock scaling from extracted parasitics.

    Args:
        results: extraction result per die label; all entries must be
            for the same geometry.

    Returns:
        BinningReport with dies ordered slowest first.

    Raises:
        ValidationError: if the mapping is empty or mixes geometries.
    """
    if not results:
        raise ValidationError("no dies to bin")
    geometries = {result.geometry for result in results.values()}
    if len(geometries) != 1:
        raise ValidationError(
            f"binning requires a single geometry, got {sorted(geometries)}"
        )
    proxies = {die: res.r_sw * res.c_total for die, res in results.items()}
    slowest = max(proxies.values())
    bins = []
    for die in sorted(results, key=lambda d: (-proxies[d], d)):
        result = results[die]
        scale = slowest / proxies[die]
        bins.append(
            DieBin(
                die=die,
                r_sw=result.r_sw,
                c_total=result.c_total,
                delay_proxy=proxies[die],
                scale=scale,
                normalized_runtime=1.0 / scale,
                improvement=scale - 1.0,
            )
        )
    return BinningReport(geometry=geometries.pop(), bins=tuple(bins))


def emit_binning(report: BinningReport, fmt: str = "text") -> str:
    """Render a binning report as text, CSV or canonical JSON.

    JSON holds each DieBin's fields in SI units. Text and CSV format one
    shared row per die: die, geometry, r_sw (ohm), c_total (fF), delay
    proxy (ps), scale, runtime and gain (%).
    """
    if fmt == "json":
        bins = [vars(entry) for entry in report.bins]
        return emit_report_json(
            {
                "format": REPORT_FORMAT_TAG,
                "binning": {"geometry": report.geometry, "bins": bins},
            }
        )
    if fmt == "text":
        head = (
            f"clock binning for geometry {report.geometry}"
            f" ({len(report.bins)} dies, slowest first)\n"
            f"  {'die':<10} {'r_sw (ohm)':>11} {'c_total (fF)':>13}"
            f" {'proxy (ps)':>11} {'scale':>7} {'runtime':>8} {'gain %':>7}\n"
        )
        row = (
            "  {0:<10} {2:>11.2f} {3:>13.2f} {4:>11.4f} {5:>7.3f} {6:>8.3f}"
            " {7:>7.2f}\n"
        )
    elif fmt == "csv":
        head = (
            "die,geometry,r_sw_ohm,c_total_ff,delay_proxy_ps,"
            "scale,normalized_runtime,improvement_pct\n"
        )
        row = "{0},{1},{2:.6g},{3:.6g},{4:.6g},{5:.6g},{6:.6g},{7:.6g}\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}; use text, csv or json")
    return head + "".join(
        row.format(
            entry.die, report.geometry, entry.r_sw, entry.c_total * 1e15,
            entry.delay_proxy * 1e12, entry.scale, entry.normalized_runtime,
            entry.improvement * 100.0,
        )
        for entry in report.bins
    )


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


@dataclass(frozen=True)
class ValidationOutcome:
    geometries: tuple[GeometryValidation, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.geometries)


def _max_waveform_deviation(
    line: LineRC, mode: CrosstalkMode, result: SimulationResult
) -> float:
    waveform = result.victim
    analytic = step_response_victim(mode, line, waveform.times)
    return float(np.max(np.abs(waveform.values - analytic))) / line.v_dd


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
    count.
    """
    net = build_network(line, 1)
    max_dev, delays = {}, {}
    for mode in AGGRESSOR_STEP:
        result = simulate_step(net, DrivePattern.for_mode(mode, line.v_dd))
        max_dev[mode] = _max_waveform_deviation(line, mode, result)
        delays[mode] = crossing_time(result, threshold_fraction * line.v_dd)
    # the lump quiet delay is already in hand: simulate only the segmented line
    t_dist = victim_delay(line, CrosstalkMode.QUIET, segments, threshold_fraction)
    ratio = t_dist / delays[CrosstalkMode.QUIET]
    return GeometryValidation(geometry, max_dev, delays, segments, ratio)


def run_validation(
    lines: Mapping[str, LineRC],
    segments: int,
    threshold_fraction: float = 0.5,
) -> ValidationOutcome:
    if not lines:
        raise ValidationError("no line models configured; nothing to validate")
    return ValidationOutcome(
        geometries=tuple(
            validate_geometry(geometry, lines[geometry], segments, threshold_fraction)
            for geometry in sorted(lines)
        )
    )


def format_validation_text(outcome: ValidationOutcome) -> str:
    out = io.StringIO()
    out.write("model validation report\n")
    for entry in outcome.geometries:
        out.write(f"\ngeometry {entry.geometry}\n")
        for mode, dev in entry.max_dev.items():
            label = f"{mode.value.replace('_', '-')}:"
            out.write(
                f"  oracle vs closed form, {label:<13} max deviation {dev:.2e}"
                f" of v_dd [{'pass' if dev <= WAVEFORM_TOLERANCE else 'FAIL'}]\n"
            )
        delays = " <= ".join(
            f"{mode.value.replace('_', '-')} {delay * 1e12:.4f} ps"
            for mode, delay in entry.delays.items()
        )
        out.write(
            f"  simulated threshold delays: {delays}"
            f" [{'pass' if entry.ordering_ok else 'FAIL'}]\n"
        )
        low, high = RATIO_WINDOW
        out.write(
            f"  distributed({entry.segments}) / lump quiet delay:"
            f" {entry.distributed_ratio:.4f}"
            f" [expected {low:.2f}..{high:.2f};"
            f" {'pass' if entry.ratio_ok else 'FAIL'}]\n"
        )
    out.write(f"\noverall: {'pass' if outcome.passed else 'FAIL'}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# waveform output


def waveform_csv(result: SimulationResult) -> str:
    """Render a simulation result as a four-column CSV (time plus the
    far-end voltage of each line)."""
    waveforms = (result.line_a, result.line_b, result.line_c)
    rows = np.column_stack([result.line_a.times] + [w.values for w in waveforms])
    body = ("%.9e,%.9e,%.9e,%.9e\n" * len(rows)) % tuple(rows.ravel().tolist())
    return "time_s,line_a_v,line_b_v,line_c_v\n" + body


def waveform_svg(result: SimulationResult, title: str = "") -> str:
    """Render a simulation result as a self-contained SVG line plot."""
    width, height = 800.0, 420.0
    left, right, top, bottom = 70.0, 20.0, 30.0, 40.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    times = result.line_a.times
    t_max = float(times[-1]) if len(times) > 1 else 1.0
    all_values = np.concatenate(
        [result.line_a.values, result.line_b.values, result.line_c.values]
    )
    v_min = min(0.0, float(np.min(all_values)))
    v_max = float(np.max(all_values))
    if v_max <= v_min:
        v_max = v_min + 1.0
    span = v_max - v_min

    def y(v):
        return top + plot_h * (1.0 - (v - v_min) / span)

    xs = left + plot_w * (times / t_max)
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
        f' font-family="monospace">{t_max * 1e12:.3f} ps</text>',
        f'<text x="4" y="{y(v_max) + 4:.1f}" font-size="11"'
        f' font-family="monospace">{v_max:.2f} V</text>',
        f'<text x="4" y="{y(v_min):.1f}" font-size="11"'
        f' font-family="monospace">{v_min:.2f} V</text>',
    ]
    colors = {"line_a": "#6a6a6a", "line_b": "#c03030", "line_c": "#3060b0"}
    for idx, waveform in enumerate(
        (result.line_a, result.line_b, result.line_c)
    ):
        xy = np.column_stack([xs, y(waveform.values)]).ravel().tolist()
        points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)
        color = colors[waveform.label]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f' points="{points}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 120:.1f}" y="{top + 14 + 14 * idx:.1f}"'
            f' font-size="11" font-family="monospace" fill="{color}">'
            f"{waveform.label}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
