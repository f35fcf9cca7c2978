"""Tests for report rendering, clock binning and model validation."""

import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ringrc import (
    CrosstalkMode,
    DrivePattern,
    ExtractionResult,
    LineRC,
    ParasiticSet,
    ValidationError,
    ValidationOutcome,
    build_network,
    compare_to_spec,
    emit_binning,
    emit_report,
    format_validation_text,
    monitor_binning,
    parse_report,
    quiet_delay_ratio,
    run_validation,
    simulate_step,
    validate_geometry,
    waveform_csv,
    waveform_svg,
)

W1S = LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)


def make_result(geometry="1W1S", die_r=504.0, c_total=12.6e-15):
    c_gate = c_total / 4.0
    return ExtractionResult(
        geometry=geometry,
        r_sw=die_r,
        c_s=c_total / 2.0,
        c_gate=c_gate,
        c_int=c_total - c_gate,
        c_total=c_total,
        c_ground=c_total / 2.0,
        c_coupling=8.0e-15,
        provenance={"r_sw": (f"{geometry}/FO1/in_phase",)},
    )


class TestBinning:
    def test_two_die_scaling_is_exact(self):
        """A die whose delay proxy is 20 % lower can run 25 % faster; the
        arithmetic must be exact for these representable inputs."""
        results = {
            "slow": make_result(die_r=1.0, c_total=1.0),
            "fast": make_result(die_r=1.0, c_total=0.8),
        }
        report = monitor_binning(results)
        assert [entry.die for entry in report.bins] == ["slow", "fast"]
        slow, fast = report.bins
        assert slow.scale == 1.0
        assert slow.improvement == 0.0
        assert slow.normalized_runtime == 1.0
        assert fast.scale == 1.25
        assert fast.improvement == 0.25
        assert fast.normalized_runtime == 0.8

    def test_single_die(self):
        report = monitor_binning({"only": make_result()})
        assert report.bins[0].scale == 1.0
        assert report.geometry == "1W1S"

    def test_proxy_combines_resistance_and_load(self):
        results = {
            # same product, different split: identical bins
            "a": make_result(die_r=2.0, c_total=0.5),
            "b": make_result(die_r=1.0, c_total=1.0),
        }
        report = monitor_binning(results)
        assert report.bins[0].scale == report.bins[1].scale == 1.0
        # ties order by die label
        assert [entry.die for entry in report.bins] == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no dies"):
            monitor_binning({})

    def test_mixed_geometry_rejected(self):
        results = {
            "a": make_result(geometry="1W1S"),
            "b": make_result(geometry="1W2S"),
        }
        with pytest.raises(ValidationError, match="single geometry"):
            monitor_binning(results)

    def test_text_format(self):
        report = monitor_binning(
            {
                "D1": make_result(die_r=1.0, c_total=1.0),
                "D2": make_result(die_r=1.0, c_total=0.8),
            }
        )
        text = emit_binning(report, "text")
        assert "slowest first" in text
        assert "D1" in text and "D2" in text
        assert "1.250" in text
        assert "25.00" in text

    def test_csv_format(self):
        report = monitor_binning({"D1": make_result()})
        csv = emit_binning(report, "csv")
        header, row = csv.strip().splitlines()
        assert header == (
            "die,geometry,r_sw_ohm,c_total_ff,delay_proxy_ps,"
            "scale,normalized_runtime,improvement_pct"
        )
        assert row.startswith("D1,1W1S,")

    def test_json_format_round_trips(self):
        report = monitor_binning({"D1": make_result()})
        payload = parse_report(emit_binning(report, "json"))
        entry = payload["binning"]["bins"][0]
        assert entry["die"] == "D1"
        assert entry["scale"] == 1.0

    def test_unknown_format(self):
        report = monitor_binning({"D1": make_result()})
        with pytest.raises(ValueError, match="unknown report format"):
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
            "1W1S": compare_to_spec(self.results["1W1S"], self.targets["1W1S"])
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
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(self.results, fmt="pdf")


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

    @pytest.mark.parametrize("t_end", [None, 2e-12])
    @pytest.mark.parametrize("mode", list(CrosstalkMode))
    def test_matches_per_row_renderers(self, mode, t_end):
        """The vectorised emitters are byte-identical to rendering one row
        and one point at a time."""
        result = simulate_step(
            build_network(W1S, 7),
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
    if v_max <= v_min:
        v_max = v_min + 1.0
    span = v_max - v_min

    def x(t):
        return left + plot_w * (t / t_max if t_max > 0 else 0.0)

    def y(v):
        return top + plot_h * (1.0 - (v - v_min) / span)

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
