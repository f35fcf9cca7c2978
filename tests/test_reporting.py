"""Tests for report rendering, clock binning and model validation."""

import importlib.resources
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ringrc import (
    CrosstalkMode,
    DrivePattern,
    ExtractionResult,
    LineRC,
    NumericError,
    ParasiticSet,
    ValidationError,
    build_network,
    compare_to_spec,
    monitor_binning,
    parse_report,
    run_validation,
    simulator,
    step_response_victim,
    validate_geometry,
)
from ringrc.extraction import VALUES
from ringrc.files import parse_config
from ringrc.reporting import (
    FORMATS,
    GeometryValidation,
    ValidationOutcome,
    emit_binning,
    emit_report,
    format_validation_text,
    waveform_csv,
    waveform_svg,
)
from ringrc.simulator import crossing_time, quiet_delay_ratio, simulate_step

W1S = LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)
#: The error for an unknown report format, which lists every format.
UNKNOWN_FORMAT = "^unknown report format '{}'; use one of " + ", ".join(FORMATS) + "$"
BUNDLED_LINES = parse_config(
    importlib.resources.files("ringrc").joinpath("data", "config_28nm.cfg").read_text()
).lines


def one_die(geometry="1W1S", **values):
    """The ExtractionResult of one unlabelled die with these values (SI)."""
    return ExtractionResult(geometry, np.array([""], dtype=object),
                            *[np.array([values[value.name]]) for value in VALUES])


def make_result(geometry="1W1S", die_r=504.0, c_total=12.6e-15):
    c_gate = c_total / 4.0
    return one_die(geometry, r_sw=die_r, c_s=c_total / 2.0, c_gate=c_gate,
                   c_int=c_total - c_gate, c_total=c_total, c_ground=c_total / 2.0,
                   c_c=8.0e-15)


def make_lot(dies, geometry="1W1S"):
    """An ExtractionResult of die label -> (r_sw, c_total), in the given order."""
    r_sw, c_total = np.array(list(dies.values()), dtype=np.float64).reshape(-1, 2).T
    return ExtractionResult(
        geometry, np.array(list(dies), dtype=object), r_sw, c_total / 2.0, c_total / 4.0,
        0.75 * c_total, c_total, c_total / 2.0, np.full(len(dies), 8.0e-15),
    )


class TestBinning:
    def test_two_die_scaling_is_exact(self):
        """A die whose delay proxy is 20 % lower can run 25 % faster; the
        arithmetic must be exact for these representable inputs."""
        report = monitor_binning(make_lot({"slow": (1.0, 1.0), "fast": (1.0, 0.8)}))
        assert report.die.tolist() == ["slow", "fast"]
        assert report.scale.tolist() == [1.0, 1.25]
        assert report.improvement.tolist() == [0.0, 0.25]
        assert report.normalized_runtime.tolist() == [1.0, 0.8]

    def test_single_die(self):
        report = monitor_binning(make_lot({"only": (504.0, 12.6e-15)}, geometry="1W2S"))
        assert report.scale.tolist() == [1.0]
        assert report.geometry == "1W2S"

    def test_proxy_combines_resistance_and_load(self):
        # same product, different split: identical bins
        report = monitor_binning(make_lot({"b": (1.0, 1.0), "a": (2.0, 0.5)}))
        assert report.scale.tolist() == [1.0, 1.0]
        # ties order by die label
        assert report.die.tolist() == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no dies"):
            monitor_binning(make_lot({}))

    def test_unscalable_proxy_rejected(self):
        """A proxy that underflows to zero has no finite clock scale."""
        with pytest.raises(NumericError, match="^die fast: delay proxy"):
            monitor_binning(make_lot({"slow": (1.0, 1.0), "fast": (1e-200, 1e-200)}))

    def test_text_format(self):
        report = monitor_binning(make_lot({"D1": (1.0, 1.0), "D2": (1.0, 0.8)}))
        text = emit_binning(report, "text")
        assert "slowest first" in text
        assert "D1" in text and "D2" in text
        assert "1.250" in text
        assert "25.00" in text

    def test_csv_format(self):
        report = monitor_binning(make_lot({"D1": (504.0, 12.6e-15)}))
        csv = emit_binning(report, "csv")
        header, row = csv.strip().splitlines()
        assert header == (
            "die,geometry,r_sw_ohm,c_total_ff,delay_proxy_ps,"
            "scale,normalized_runtime,improvement_pct"
        )
        assert row.startswith("D1,1W1S,")

    def test_json_format_round_trips(self):
        report = monitor_binning(make_lot({"D1": (504.0, 12.6e-15)}))
        payload = parse_report(emit_binning(report, "json"))
        entry = payload["binning"]["bins"][0]
        assert entry["die"] == "D1"
        assert entry["scale"] == 1.0

    def test_unknown_format(self):
        report = monitor_binning(make_lot({"D1": (504.0, 12.6e-15)}))
        with pytest.raises(ValueError, match=UNKNOWN_FORMAT.format("xml")):
            emit_binning(report, "xml")


class TestExtractionReport:
    def setup_method(self):
        self.results = {"1W1S": make_result()}
        self.targets = {
            "1W1S": ParasiticSet(
                c_total=12.39e-15, c_gate=2.54e-15, c_int=9.85e-15,
                c_c=7.91e-15, r_sw=450.0,
            )
        }
        self.comparisons = {
            "1W1S": compare_to_spec(self.results["1W1S"].one(), self.targets["1W1S"])
        }

    def test_text_contains_rows_and_comparison(self):
        text = emit_report(self.results, self.comparisons, "text")
        assert "geometry 1W1S" in text
        assert "r_sw" in text and "c_c" in text
        assert "delay product (r_sw x c_total) error:" in text

    def test_text_without_comparison(self):
        text = emit_report(self.results)
        assert "geometry 1W1S" in text
        assert "delay product" not in text

    def test_csv_shape(self):
        csv = emit_report(self.results, self.comparisons, "csv")
        lines = csv.strip().splitlines()
        assert lines[0] == "geometry,parameter,unit,extracted,target,error_pct"
        # seven parameter rows plus the delay-product row
        assert len(lines) == 1 + 7 + 1
        rsw_row = next(l for l in lines if l.startswith("1W1S,r_sw,"))
        assert rsw_row == "1W1S,r_sw,ohm,504,450,12.0000"

    def test_json_round_trip(self):
        text = emit_report(self.results, self.comparisons, "json")
        payload = parse_report(text)
        block = payload["geometries"]["1W1S"]
        assert block["extraction"]["r_sw"] == 504.0
        assert block["comparison"]["errors"]["r_sw"] == pytest.approx(
            0.12, rel=1e-12
        )
        # the targets come from the comparison itself
        assert block["comparison"]["targets"]["r_sw"] == 450.0
        assert block["extraction"]["provenance"]["r_sw"] == [
            "1W1S/FO1/in_phase"
        ]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match=UNKNOWN_FORMAT.format("pdf")):
            emit_report(self.results, fmt="pdf")

    def test_text_shows_extremes_in_significant_digits(self):
        """Values from 0.01 up to 1e6 display units keep two decimals; the
        rest print six significant digits, not 0.00 or hundreds of digits."""
        result = one_die(
            "1W1S", r_sw=4.5e-286, c_s=7.08854e273, c_gate=-3.4e-12,
            c_int=0.01e-15, c_total=999999.994e-15, c_ground=1e6 * 1e-15,
            c_c=0.009e-15,
        )
        spec = ParasiticSet(c_total=12.5e-15, r_sw=450.0)
        text = emit_report({"1W1S": result}, {"1W1S": compare_to_spec(result.one(), spec)})
        shown = {cells[0]: cells[1:] for cells in map(str.split, text.splitlines())
                 if cells and cells[-1] in ("ohm", "fF")}
        assert shown == {
            "r_sw": ["4.5e-286", "ohm"],
            "c_s": ["7.08854e+288", "fF"],
            "c_gate": ["-3400.00", "fF"],
            "c_int": ["0.01", "fF"],
            "c_total": ["999999.99", "fF"],
            "c_ground": ["1e+06", "fF"],
            "c_c": ["0.009", "fF"],
        }
        compared = [line for line in text.splitlines() if line.startswith("  r_sw (ohm)")]
        assert compared[0].split()[2:4] == ["4.5e-286", "450.00"]
        assert "\n  r_sw        4.5e-286 ohm\n" in text  # still ten columns wide

    def test_text_errors_follow_the_value_rule(self):
        """The comparison's error column and the delay-product error keep two
        decimals for 0 and from 0.01 up to 1e6 percent and print six
        significant digits outside that range, so a small error does not
        read 0.00 and a huge one does not run to dozens of digits."""
        result = make_result(die_r=4.5e11, c_total=12.5e-15)
        spec = ParasiticSet(c_total=12.5e-15, c_gate=3.125e-15 * 1.00001, r_sw=450.0)
        text = emit_report({"1W1S": result}, {"1W1S": compare_to_spec(result.one(), spec)})
        assert text.endswith(
            "  c_total (fF)      12.50      12.50     0.00\n"
            "  c_gate (fF)        3.12       3.13 0.00099999\n"
            "  r_sw (ohm)      4.5e+11     450.00    1e+11\n"
            "  delay product (r_sw x c_total) error: 1e+11 %\n"
        )
        # inside the range: two decimals, as before
        assert "  delay product (r_sw x c_total) error: 12.90 %\n" in emit_report(
            {"1W1S": make_result()}, {"1W1S": compare_to_spec(make_result().one(), spec)})


class TestValidation:
    def test_reference_geometry_passes(self):
        # modest segment count keeps the distributed run quick; the ratio
        # window is wide enough to hold from ~16 segments upward
        outcome = validate_geometry("1W1S", W1S, segments=20)
        assert outcome.passed
        assert outcome.waveforms_ok
        assert outcome.ordering_ok
        assert set(outcome.max_dev) == set(CrosstalkMode)
        assert all(dev < 1e-6 for dev in outcome.max_dev.values())
        assert 0.35 <= outcome.distributed_ratio <= 0.65
        assert outcome.distributed_ratio == pytest.approx(0.6233, abs=0.002)
        # the lump quiet delay comes from the mode loop, with the same bits
        assert outcome.distributed_ratio == quiet_delay_ratio(W1S, 20)
        delays = outcome.delays
        assert (
            delays[CrosstalkMode.IN_PHASE]
            <= delays[CrosstalkMode.QUIET]
            <= delays[CrosstalkMode.OUT_OF_PHASE]
        )

    @pytest.mark.parametrize("geometry", ["1W1S", "1W2S"])
    def test_equals_full_waveform_reference(self, geometry):
        """The victim-only checks give exactly what full three-line
        simulations, their crossings and their sampled deviations give, so
        the validate text is unchanged to the byte."""
        line = BUNDLED_LINES[geometry]
        net = build_network(line, 1)
        max_dev, delays = {}, {}
        for mode in (
            CrosstalkMode.IN_PHASE,
            CrosstalkMode.QUIET,
            CrosstalkMode.OUT_OF_PHASE,
        ):
            result = simulate_step(net, DrivePattern.for_mode(mode, line.v_dd))
            victim = result.victim
            analytic = step_response_victim(mode, line, victim.times)
            max_dev[mode] = float(np.max(np.abs(victim.values - analytic))) / line.v_dd
            delays[mode] = crossing_time(result, 0.5 * line.v_dd)
        distributed = simulate_step(
            build_network(line, 20),
            DrivePattern.for_mode(CrosstalkMode.QUIET, line.v_dd),
        )
        ratio = crossing_time(distributed, 0.5 * line.v_dd) / delays[CrosstalkMode.QUIET]
        want = GeometryValidation(geometry, max_dev, delays, 20, ratio)
        got = validate_geometry(geometry, line, segments=20)
        assert got == want
        assert list(got.max_dev) == list(want.max_dev)

    def test_samples_only_the_victim_row(self, monkeypatch):
        """Validation reads neither a three-line waveform nor the traced
        simulate_step: it samples the victim's row alone."""
        def refuse(*args, **kwargs):
            raise AssertionError("three-line sampling")

        monkeypatch.setattr(simulator.SimulationResult, "_waveforms", property(refuse))
        monkeypatch.setattr(simulator, "simulate_step", refuse)
        assert validate_geometry("1W1S", W1S, segments=3).waveforms_ok

    def test_threshold_the_lump_starts_at_is_a_numeric_error(self):
        """parse_config keeps such thresholds out; called directly with a
        threshold below the victim's 0 V start, the 1W2S lump's quiet delay
        is 0.0 and the ratio is refused rather than divided by it."""
        with pytest.raises(NumericError, match=r"^threshold_fraction = -0\.5: the lump "
                           r"victim starts at or above the threshold \(quiet delay 0\.0 s\)"):
            validate_geometry("1W2S", BUNDLED_LINES["1W2S"], 3, threshold_fraction=-0.5)

    def test_run_validation_orders_geometries(self):
        lines = {
            "1W2S": LineRC(r=417.0, c=6.2e-15, c_c=8.2e-15, v_dd=0.9),
            "1W1S": W1S,
        }
        outcome = run_validation(lines, segments=20)
        assert [g.geometry for g in outcome.geometries] == ["1W1S", "1W2S"]
        assert outcome.passed

    def test_run_validation_empty(self):
        with pytest.raises(ValidationError, match="nothing to validate"):
            run_validation({}, segments=20)

    def test_text_report(self):
        entry = validate_geometry("1W1S", W1S, segments=20)
        text = format_validation_text(ValidationOutcome(geometries=(entry,)))
        assert "geometry 1W1S" in text
        for label in ("in-phase:    ", "quiet:       ", "out-of-phase:"):
            assert f"  oracle vs closed form, {label} max deviation" in text
        assert "distributed(20) / lump quiet delay" in text
        assert "overall: pass" in text


class TestWaveformOutputs:
    def setup_method(self):
        net = build_network(W1S, 1)
        self.result = simulate_step(
            net, DrivePattern.for_mode(CrosstalkMode.QUIET, W1S.v_dd)
        )

    def test_csv(self):
        csv = waveform_csv(self.result)
        lines = csv.strip().splitlines()
        assert lines[0] == "time_s,line_a_v,line_b_v,line_c_v"
        assert len(lines) == 1 + len(self.result.victim.values)
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.0

    def test_svg_is_well_formed(self):
        svg = waveform_svg(self.result, title="quiet step")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [
            el for el in root.iter() if el.tag.endswith("polyline")
        ]
        assert len(polylines) == 3
        assert "quiet step" in svg

    # ids name the span, after the segment count when it is not 7; spans of
    # 1e-100 and 1e-310 s (subnormal times) give three-digit exponents
    @pytest.mark.parametrize(
        "segments, t_end",
        [(7, None), (7, 2e-12), (7, 1e-100), (7, 1e-310), (50, None), (50, 1e-310)],
        ids=["None", "2e-12", "1e-100", "1e-310", "50-None", "50-1e-310"],
    )
    @pytest.mark.parametrize("mode", list(CrosstalkMode))
    def test_matches_per_row_renderers(self, mode, segments, t_end):
        """The vectorised emitters are byte-identical to rendering one row
        and one point at a time."""
        result = simulate_step(
            build_network(W1S, segments),
            DrivePattern.for_mode(mode, W1S.v_dd),
            t_end=t_end,
        )
        # compared line by line: a failing diff of the whole text is slow
        csv, want_csv = waveform_csv(result), reference_csv(result)
        assert csv.split("\n") == want_csv.split("\n")
        title = f"1W1S {mode.value}"
        svg, want_svg = waveform_svg(result, title), reference_svg(result, title)
        assert svg.split("\n") == want_svg.split("\n")


# The per-row renderers the emitters replaced, kept as the byte-level reference.
def reference_csv(result):
    out = io.StringIO()
    out.write("time_s,line_a_v,line_b_v,line_c_v\n")
    times = result.line_a.times
    for i in range(len(times)):
        out.write(
            f"{times[i]:.9e},{result.line_a.values[i]:.9e},"
            f"{result.line_b.values[i]:.9e},{result.line_c.values[i]:.9e}\n"
        )
    return out.getvalue()


def reference_svg(result, title=""):
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
    if v_max <= v_min:  # a flat trace: span the largest final far-end voltage
        v_max = v_min + float(np.abs(result.residues.sum(axis=1)).max())
    span = v_max - v_min

    def x(t):
        return left + plot_w * (t / t_max if t_max > 0 else 0.0)

    def y(v):
        return top + plot_h * (1.0 - (v - v_min) / span)

    def label(v, decimals):  # the display rule: fixed decimals for 0 and 0.01 to 1e6
        return f"{v:.{decimals}f}" if v == 0 or 0.01 <= abs(v) < 1e6 else f"{v:.6g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
        f' height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left:.1f}" y="18" font-size="13" font-family="monospace">'
        f"{title}</text>",
        f'<line x1="{left:.1f}" y1="{top + plot_h:.1f}" x2="{left + plot_w:.1f}"'
        f' y2="{top + plot_h:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}"'
        f' y2="{top + plot_h:.1f}" stroke="black"/>',
        f'<text x="{left:.1f}" y="{height - 8:.1f}" font-size="11"'
        f' font-family="monospace">0</text>',
        f'<text x="{left + plot_w - 80:.1f}" y="{height - 8:.1f}" font-size="11"'
        f' font-family="monospace">{label(t_max * 1e12, 3)} ps</text>',
        f'<text x="4" y="{y(v_max) + 4:.1f}" font-size="11"'
        f' font-family="monospace">{label(v_max, 2)} V</text>',
        f'<text x="4" y="{y(v_min):.1f}" font-size="11"'
        f' font-family="monospace">{label(v_min, 2)} V</text>',
    ]
    colors = {"line_a": "#6a6a6a", "line_b": "#c03030", "line_c": "#3060b0"}
    for idx, waveform in enumerate(
        (result.line_a, result.line_b, result.line_c)
    ):
        points = " ".join(
            f"{x(t):.2f},{y(v):.2f}"
            for t, v in zip(waveform.times, waveform.values)
        )
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
