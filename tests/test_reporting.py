"""Tests for report rendering, clock binning and model validation."""

import xml.etree.ElementTree as ET

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
        text = emit_report(self.results, self.comparisons, self.targets, "text")
        assert "geometry 1W1S" in text
        assert "r_sw" in text and "c_c" in text
        assert "delay product (r_sw x c_total) error:" in text

    def test_text_without_comparison(self):
        text = emit_report(self.results)
        assert "geometry 1W1S" in text
        assert "delay product" not in text

    def test_csv_shape(self):
        csv = emit_report(self.results, self.comparisons, self.targets, "csv")
        lines = csv.strip().splitlines()
        assert lines[0] == "geometry,parameter,unit,extracted,target,error_pct"
        # seven parameter rows plus the delay-product row
        assert len(lines) == 1 + 7 + 1
        rsw_row = next(l for l in lines if l.startswith("1W1S,r_sw,"))
        assert rsw_row == "1W1S,r_sw,ohm,504,450,12.0000"

    def test_json_round_trip(self):
        text = emit_report(self.results, self.comparisons, self.targets, "json")
        payload = parse_report(text)
        block = payload["geometries"]["1W1S"]
        assert block["extraction"]["r_sw"] == 504.0
        assert block["comparison"]["errors"]["r_sw"] == pytest.approx(
            0.12, rel=1e-12
        )
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
        assert outcome.max_dev_in_phase < 1e-6
        assert outcome.max_dev_quiet < 1e-6
        assert 0.35 <= outcome.distributed_ratio <= 0.65
        assert outcome.distributed_ratio == pytest.approx(0.6233, abs=0.002)
        assert (
            outcome.delay_in_phase
            <= outcome.delay_quiet
            <= outcome.delay_out_of_phase
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
