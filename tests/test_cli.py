"""End-to-end tests of the command line interface.

Each test drives main() directly with an argv list and inspects the
return code plus captured stdout/stderr.
"""

import importlib.resources
import json
import xml.etree.ElementTree as ET

import pytest

from ringrc import parse_report
from ringrc.cli import main


def bundled_text(name):
    return (
        importlib.resources.files("ringrc").joinpath("data", name).read_text()
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Bundled data copied to disk, with a faster segment count."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.cfg"
    config.write_text(
        bundled_text("config_28nm.cfg").replace("segments = 50", "segments = 20")
    )
    measurements = root / "measurements.csv"
    measurements.write_text(bundled_text("measurements_28nm.csv"))

    two_die = root / "two_die.csv"
    lines = [
        "units: tosc=ns current=uA",
        "columns: die geometry fanout mode tosc ieff",
    ]
    base = [
        ("FO1", "in_phase", 81.66, 891.50),
        ("FO1", "out_of_phase", 88.39, 990.63),
        ("FO1", "quiet", 82.31, 503.47),
        ("FO2", "in_phase", 101.35, 1388.00),
    ]
    for die, period_scale in (("D1", 1.0), ("D2", 0.8)):
        for fanout, mode, tosc, ieff in base:
            lines.append(
                f"{die},1W1S,{fanout},{mode},{tosc * period_scale:.6f},{ieff}"
            )
    two_die.write_text("\n".join(lines) + "\n")
    return {
        "config": str(config),
        "measurements": str(measurements),
        "two_die": str(two_die),
        "root": root,
    }


class TestExtract:
    def test_text_output(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", workspace["measurements"],
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "geometry 1W1S" in out
        assert "geometry 1W2S" in out
        assert "504.77" in out  # switching resistance, ohms
        assert "7.95" in out  # coupling capacitance, fF

    def test_json_output(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", workspace["measurements"],
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = parse_report(out)
        extraction = payload["geometries"]["1W1S"]["extraction"]
        assert extraction["r_sw"] == pytest.approx(504.7672462142457, rel=1e-12)
        assert extraction["c_c"] == pytest.approx(7.9463817539935295e-15, rel=1e-12)

    def test_geometry_filter(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", workspace["measurements"],
                "--geometry", "1W2S",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "geometry 1W2S" in out
        assert "geometry 1W1S" not in out

    def test_unknown_geometry(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", workspace["measurements"],
                "--geometry", "9W9S",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "error:" in err
        assert "9W9S" in err

    def test_multi_die_needs_selection(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", workspace["two_die"],
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "pass --die" in err

    def test_die_selection(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", workspace["two_die"],
                "--die", "D2",
            ]
        )
        assert code == 0
        assert "geometry 1W1S" in capsys.readouterr().out

    def test_unknown_die(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", workspace["two_die"],
                "--die", "D9",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "no records for die" in err

    def test_missing_file(self, workspace, capsys):
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", str(workspace["root"] / "nope.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_measurements(self, workspace, capsys):
        bad = workspace["root"] / "bad.csv"
        bad.write_text(
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO1,sideways,81.66,891.50\n"
        )
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", str(bad),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err

    def test_domain_error_exit_code(self, workspace, capsys):
        """A double-loaded oscillator that runs faster than the single-
        loaded one has no valid gate capacitance."""
        bad = workspace["root"] / "domain.csv"
        bad.write_text(
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "G,FO1,in_phase,100.0,900.0\n"
            "G,FO1,out_of_phase,110.0,900.0\n"
            "G,FO1,quiet,105.0,900.0\n"
            "G,FO2,in_phase,90.0,900.0\n"
        )
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", str(bad),
            ]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "FO2 period must exceed" in err

    def test_non_finite_input_rejected(self, workspace, capsys, tmp_path):
        """An infinite period is a parse error and writes no report."""
        bad = tmp_path / "inf.csv"
        bad.write_text(
            bundled_text("measurements_28nm.csv").replace(
                "1W1S,FO1,out_of_phase,88.39,", "1W1S,FO1,out_of_phase,inf,"
            )
        )
        out_path = tmp_path / "report.json"
        code = main(
            [
                "extract",
                "--config", workspace["config"],
                "--measurements", str(bad),
                "--format", "json",
                "--out", str(out_path),
            ]
        )
        assert code == 2
        assert "not a finite number" in capsys.readouterr().err
        assert not out_path.exists()


class TestReport:
    def test_text_with_targets(self, workspace, capsys):
        code = main(
            [
                "report",
                "--config", workspace["config"],
                "--measurements", workspace["measurements"],
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delay product (r_sw x c_total) error:" in out
        assert "comparison" in out

    def test_csv_to_file(self, workspace, capsys):
        out_path = workspace["root"] / "report.csv"
        code = main(
            [
                "report",
                "--config", workspace["config"],
                "--measurements", workspace["measurements"],
                "--format", "csv",
                "--out", str(out_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"wrote {out_path}" in captured.err
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "geometry,parameter,unit,extracted,target,error_pct"
        assert any(line.startswith("1W1S,r_sw,") for line in lines)

    def test_report_requires_targets(self, workspace, capsys):
        bare = workspace["root"] / "bare.cfg"
        bare.write_text(
            "n = 100\nm = 64\nv_dd = 0.9\n"
            "line.1W1S.r_ohm = 504\n"
            "line.1W1S.c_ff = 6.6\n"
            "line.1W1S.cc_ff = 8.0\n"
        )
        code = main(
            [
                "report",
                "--config", str(bare),
                "--measurements", workspace["measurements"],
                "--geometry", "1W1S",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "no design targets" in err


class TestSimulate:
    def test_lump_quiet_crossing(self, workspace, capsys, tmp_path):
        csv_path = tmp_path / "wave.csv"
        svg_path = tmp_path / "wave.svg"
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
                "--mode", "quiet",
                "--segments", "1",
                "--out", str(csv_path),
                "--svg", str(svg_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "segments 1" in out
        # single-lump quiet crossing of the half-rail threshold
        assert "victim crossing of 0.450 V at 6.147" in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "time_s,line_a_v,line_b_v,line_c_v"
        ET.fromstring(svg_path.read_text())  # well-formed SVG

    def test_distributed_run(self, workspace, capsys):
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
                "--mode", "quiet",
                "--segments", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "segments 4" in out
        assert "victim crossing" in out

    def test_short_span_never_crosses(self, workspace, capsys):
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
                "--mode", "quiet",
                "--segments", "1",
                "--t-end-ps", "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "never reaches" in out

    def test_unknown_geometry(self, workspace, capsys):
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "9W9S",
                "--mode", "quiet",
            ]
        )
        assert code == 3
        assert "no line model" in capsys.readouterr().err

    def test_bad_mode_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "simulate",
                    "--config", workspace["config"],
                    "--geometry", "1W1S",
                    "--mode", "loud",
                ]
            )
        assert info.value.code == 2


class TestValidate:
    def test_passes_on_bundled_models(self, workspace, capsys):
        code = main(
            [
                "validate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: pass" in out
        assert "distributed(20) / lump quiet delay" in out

    def test_fails_when_ratio_leaves_window(self, workspace, capsys):
        """With only a few segments the distributed delay has not dropped
        into the expected band yet, so validation must report failure."""
        coarse = workspace["root"] / "coarse.cfg"
        coarse.write_text(
            bundled_text("config_28nm.cfg").replace(
                "segments = 50", "segments = 8"
            )
        )
        code = main(
            [
                "validate",
                "--config", str(coarse),
                "--geometry", "1W1S",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "overall: FAIL" in out


class TestBinning:
    def test_two_dies(self, workspace, capsys):
        code = main(
            [
                "binning",
                "--config", workspace["config"],
                "--measurements", workspace["two_die"],
                "--geometry", "1W1S",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slowest first" in out
        # D2's periods are 20 % shorter at equal current: 25 % faster clock
        lines = out.strip().splitlines()
        assert lines[2].lstrip().startswith("D1")
        assert lines[3].lstrip().startswith("D2")
        assert "1.250" in lines[3]

    def test_json(self, workspace, capsys):
        code = main(
            [
                "binning",
                "--config", workspace["config"],
                "--measurements", workspace["two_die"],
                "--geometry", "1W1S",
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        bins = payload["binning"]["bins"]
        assert [b["die"] for b in bins] == ["D1", "D2"]
        assert bins[1]["improvement"] == pytest.approx(0.25, rel=1e-9)

    def test_missing_geometry(self, workspace, capsys):
        code = main(
            [
                "binning",
                "--config", workspace["config"],
                "--measurements", workspace["two_die"],
                "--geometry", "1W2S",
            ]
        )
        assert code == 3
        assert "no measurements" in capsys.readouterr().err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "ringrc" in capsys.readouterr().out

    def test_command_required(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_config_warnings_surface(self, workspace, capsys):
        noisy = workspace["root"] / "noisy.cfg"
        noisy.write_text(
            "n = 100\nm = 64\nv_dd = 0.9\ncolour = blue\n"
            "line.1W1S.r_ohm = 504\n"
            "line.1W1S.c_ff = 6.6\n"
            "line.1W1S.cc_ff = 8.0\n"
        )
        code = main(
            [
                "extract",
                "--config", str(noisy),
                "--measurements", workspace["measurements"],
                "--geometry", "1W1S",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning:" in captured.err
        assert "colour" in captured.err
