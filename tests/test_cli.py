"""End-to-end tests of the command line interface.

Each test drives main() directly with an argv list and inspects the
return code plus captured stdout/stderr.
"""

import argparse
import importlib.resources
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

from ringrc import cli, extraction, files, parse_report, reporting
from ringrc.cli import main
from ringrc.files import read_measurements


def bundled_text(name):
    return (
        importlib.resources.files("ringrc").joinpath("data", name).read_text()
    )


# The four 1W1S records extraction needs (fanout, mode, tosc ns, ieff uA).
BASE_1W1S = (
    ("FO1", "in_phase", 81.66, 891.50),
    ("FO1", "out_of_phase", 88.39, 990.63),
    ("FO1", "quiet", 82.31, 503.47),
    ("FO2", "in_phase", 101.35, 1388.00),
)


def lot_rows(dies, geometry="1W1S"):
    """(die, geometry, fanout, mode, tosc, ieff) rows, die by die, with each
    die's periods scaled by its factor."""
    return [
        (die, geometry, fanout, mode, f"{tosc * scale:.6f}", f"{ieff}")
        for die, scale in dies
        for fanout, mode, tosc, ieff in BASE_1W1S
    ]


def write_lot(path, rows):
    path.write_text(
        "units: tosc=ns current=uA\n"
        "columns: die geometry fanout mode tosc ieff\n"
        + "".join(",".join(row) + "\n" for row in rows)
    )
    return str(path)


GOLDEN = pathlib.Path(__file__).with_name("golden")

# Golden file name -> argv; {placeholders} name the inputs from write_golden_inputs.
GOLDEN_CASES = {
    f"{name}.{ext}": [command, "--config", f"{{{config}}}", "--measurements",
                      f"{{{measurements}}}", *extra, "--format", fmt]
    for fmt, ext in (("text", "txt"), ("csv", "csv"), ("json", "json"))
    for name, command, config, measurements, extra in (
        ("report", "report", "config", "measurements", ()),
        ("extract", "extract", "config", "measurements", ()),
        ("report_partial_spec", "report", "partial", "measurements", ()),
        ("binning_blank_die", "binning", "config", "lot", ("--geometry", "1W1S")),
        ("binning_lot40", "binning", "config", "lot40", ("--geometry", "1W2S")),
    )
}


def write_golden_inputs(root):
    """Write the golden cases' inputs under root and return their paths:
    the bundled config and data, the config with only c_total_ff as a 1W1S
    target, a lot of an unlabelled die plus D2, and a committed seeded lot
    of 40 dies in two geometries, rows shuffled (units s and A)."""
    config = bundled_text("config_28nm.cfg")
    partial = "".join(
        line for line in config.splitlines(keepends=True)
        if not line.startswith("spec.1W1S.") or line.startswith("spec.1W1S.c_total_ff")
    )
    paths = {}
    for key, name, text in (
        ("config", "golden.cfg", config),
        ("partial", "partial.cfg", partial),
        ("measurements", "golden.csv", bundled_text("measurements_28nm.csv")),
    ):
        (root / name).write_text(text)
        paths[key] = str(root / name)
    paths["lot"] = write_lot(root / "lot.csv", lot_rows([("", 1.0), ("D2", 0.8)]))
    paths["lot40"] = str(GOLDEN / "lot40_input.csv")
    return paths


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

    two_die = write_lot(root / "two_die.csv", lot_rows([("D1", 1.0), ("D2", 0.8)]))
    return {
        "config": str(config),
        "measurements": str(measurements),
        "two_die": two_die,
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


    def test_overflowing_supply_currents_rejected(self, workspace, capsys, tmp_path):
        """Finite idda/iddq whose difference overflows to an infinite
        effective current are a parse error, not a crash in extraction."""
        bad = tmp_path / "overflow.csv"
        bad.write_text(
            "units: tosc=ns current=A\n"
            "columns: geometry fanout mode tosc idda iddq\n"
            "1W1S,FO1,in_phase,81.66,1.7e308,-1.7e308\n"
            "1W1S,FO1,out_of_phase,88.39,1.1e-3,1.0e-4\n"
            "1W1S,FO1,quiet,82.31,6.0e-4,1.0e-4\n"
            "1W1S,FO2,in_phase,101.35,1.5e-3,1.0e-4\n"
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
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3: i_eff must be finite" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ieff", 1e308, "r_sw = 0.0"),  # 2 * i_eff overflows
            ("ieff", 1e-310, "r_sw = inf"),  # v_dd / (2 * i_eff) overflows
            # the out-of-phase and quiet stage delays underflow to 0
            ("tosc", 1e-320, "stage delay t_o = 0.0"),
        ],
    )
    def test_degenerate_extraction_exits_4(self, workspace, capsys, tmp_path, field,
                                           value, message, fmt):
        """Finite measurements that over- or underflow a formula are a
        numeric error: exit 4, the value named, no report written."""
        rows = [
            (fanout, mode,
             value if field == "tosc" and mode != "in_phase" else tosc * 1e-9,
             value if field == "ieff" else ieff * 1e-6)
            for fanout, mode, tosc, ieff in BASE_1W1S
        ]
        bad = tmp_path / "degenerate.csv"
        bad.write_text(
            "units: tosc=s current=A\ncolumns: geometry fanout mode tosc ieff\n"
            + "".join(f"1W1S,{f},{m},{t!r},{i!r}\n" for f, m, t, i in rows)
        )
        out_path = tmp_path / "report.out"
        code = main(
            [
                "report",
                "--config", workspace["config"],
                "--measurements", str(bad),
                "--format", fmt,
                "--out", str(out_path),
            ]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert f"error: {message}: " in err
        assert "Traceback" not in err
        assert not out_path.exists()


    def test_extreme_values_stay_readable(self, workspace, capsys, tmp_path):
        """A die with i_eff ~1e285 A extracts r_sw ~4.5e-286 ohm and
        capacitances ~1e289 fF; the text report shows each with six
        significant digits, the JSON value rounded."""
        path = tmp_path / "extreme.csv"
        path.write_text(
            "units: tosc=s current=A\n"
            "columns: geometry fanout mode tosc ieff\n"
            + "".join(f"1W1S,{fanout},{mode},{tosc}e-9,1e285\n"
                      for fanout, mode, tosc, _ in BASE_1W1S)
        )
        argv = ["extract", "--config", workspace["config"], "--measurements", str(path)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        values = parse_report(capsys.readouterr().out)["geometries"]["1W1S"]["extraction"]
        rows = [line.split() for line in text.splitlines() if line.endswith(("ohm", "fF"))]
        assert len(rows) == 7
        for name, shown, unit in rows:
            scale = 1.0 if unit == "ohm" else 1e15
            assert shown == f"{values[name] * scale:.6g}"
        assert rows[0] == ["r_sw", "4.5e-286", "ohm"]

    def test_extreme_errors_stay_readable_in_csv(self, workspace, capsys, tmp_path):
        """A die with tosc ~1e140 s and i_eff 5.76e140 A extracts c_gate
        ~2.4e291 fF against a 2.54 fF target: the CSV error fields take six
        significant digits outside 0.01 to 1e6 percent, as the text does."""
        path = tmp_path / "extreme_error.csv"
        path.write_text(
            "units: tosc=s current=A\n"
            "columns: geometry fanout mode tosc ieff\n"
            + "".join(f"1W1S,{fanout},{mode},{tosc}e131,5.76e140\n"
                      for fanout, mode, tosc, _ in BASE_1W1S)
        )
        argv = ["report", "--config", workspace["config"], "--measurements", str(path)]
        assert main(argv + ["--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert main(argv + ["--format", "json"]) == 0
        comparison = parse_report(capsys.readouterr().out)["geometries"]["1W1S"]["comparison"]
        errors = {**comparison["errors"], "delay_product": comparison["delay_product_error"]}
        shown = {row[1]: row[5] for row in rows if row[5]}
        assert shown.keys() == errors.keys()
        for name, error in errors.items():
            pct = error * 100.0
            assert shown[name] == (f"{pct:.4f}" if 0.01 <= abs(pct) < 1e6 else f"{pct:.6g}")
        assert abs(errors["c_gate"] * 100.0) > 1e280
        assert max(len(field) for row in rows for field in row) <= len("-1.23457e+308")


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

    @pytest.mark.parametrize("value", ["0", "-12.39"])
    def test_non_positive_target_rejected(self, workspace, capsys, value):
        """A target of zero or below is a config error: exit 3, no report."""
        config = workspace["root"] / f"spec{value}.cfg"
        config.write_text(
            bundled_text("config_28nm.cfg").replace(
                "spec.1W1S.c_total_ff = 12.39", f"spec.1W1S.c_total_ff = {value}"
            )
        )
        out_path = workspace["root"] / f"spec{value}.txt"
        code = main(
            [
                "report",
                "--config", str(config),
                "--measurements", workspace["measurements"],
                "--out", str(out_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "spec.1W1S.c_total_ff must be > 0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_underflowing_delay_product_target(self, workspace, capsys, tmp_path, fmt):
        """Targets that are each a normal float but whose product r_sw *
        c_total underflows to 0.0 give no finite error in percent: exit 4
        with one error line, not a ZeroDivisionError traceback."""
        config = tmp_path / "underflow.cfg"
        config.write_text(
            bundled_text("config_28nm.cfg")
            .replace("spec.1W1S.r_sw_ohm = 450", "spec.1W1S.r_sw_ohm = 1e-200")
            .replace("spec.1W1S.c_total_ff = 12.39", "spec.1W1S.c_total_ff = 1e-200")
        )
        out_path = tmp_path / "report.out"
        code = main(["report", "--config", str(config), "--measurements",
                     workspace["measurements"], "--format", fmt, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert re.fullmatch(r"error: r_sw \* c_total = \S+ is too far from its target 0\.0 "
                            r"for a finite error in percent\n", captured.err)
        assert captured.out == ""
        assert not out_path.exists()


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    return write_golden_inputs(tmp_path_factory.mktemp("golden"))


def render_golden(inputs, capsys, name):
    """Run one golden case and return what it printed."""
    assert main([arg.format(**inputs) for arg in GOLDEN_CASES[name]]) == 0
    return capsys.readouterr().out


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_report_bytes_unchanged(self, golden_inputs, capsys, name):
        """report, extract and binning print exactly the committed bytes."""
        out = render_golden(golden_inputs, capsys, name)
        want = (GOLDEN / name).read_bytes().decode()
        assert out.split("\n") == want.split("\n")

    def test_partial_targets_leave_gaps(self, golden_inputs, capsys):
        """With only c_total as a 1W1S target, the text table compares one
        value, the CSV leaves the other target and error fields empty and
        no delay-product row appears."""
        text = render_golden(golden_inputs, capsys, "report_partial_spec.txt")
        block = text.split("geometry 1W2S")[0]
        assert "c_total (fF)" in block and "c_gate (fF)" not in block
        assert "delay product" not in block
        csv = render_golden(golden_inputs, capsys, "report_partial_spec.csv")
        rows = [row.split(",") for row in csv.splitlines() if row.startswith("1W1S,")]
        names = ["r_sw", "c_s", "c_gate", "c_int", "c_total", "c_ground", "c_c"]
        assert [row[1] for row in rows] == names
        assert [(row[4] != "", row[5] != "") for row in rows] == [
            (name == "c_total",) * 2 for name in names
        ]

    @pytest.mark.parametrize("name", [n for n in sorted(GOLDEN_CASES)
                                      if n.startswith(("report.", "extract.", "binning_lot40."))])
    def test_byte_order_mark_changes_nothing(self, golden_inputs, capsys, tmp_path, name):
        """Copies of the inputs that start with a UTF-8 byte-order mark, as
        spreadsheet "CSV UTF-8" writes them, give the same bytes."""
        inputs = dict(golden_inputs)
        for key in ("config", "measurements", "lot40"):
            path = tmp_path / f"bom-{key}"
            path.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(inputs[key]).read_bytes())
            inputs[key] = str(path)
        out = render_golden(inputs, capsys, name)
        assert out == render_golden(golden_inputs, capsys, name)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["txt", "csv", "json"])
    def test_leftover_rsw_mode_key_only_warns(self, golden_inputs, capsys, tmp_path, fmt):
        """R_sw always comes from the FO1 in-phase record: a config that
        still sets rsw_mode gets one unknown-key warning and the same bytes."""
        config = tmp_path / "rsw.cfg"
        config.write_text(pathlib.Path(golden_inputs["config"]).read_text()
                          + "rsw_mode = quiet\n")
        inputs = {**golden_inputs, "config": str(config)}
        assert main([arg.format(**inputs) for arg in GOLDEN_CASES[f"report.{fmt}"]]) == 0
        captured = capsys.readouterr()
        assert captured.out == (GOLDEN / f"report.{fmt}").read_bytes().decode()
        lineno = config.read_text().count("\n")
        assert captured.err.startswith(
            f"warning: line {lineno}: unknown key 'rsw_mode' ignored; known keys: ")
        assert captured.err.count("\n") == 1


#: Bundled-config edits whose lump delays leave the fixed-decimal range:
#: a huge 1W1S and a tiny 1W2S line resistance.
EXTREME_RESISTANCE = {
    "1W1S": ("line.1W1S.r_ohm = 504", "line.1W1S.r_ohm = 1e100"),
    "1W2S": ("line.1W2S.r_ohm = 417", "line.1W2S.r_ohm = 1e-12"),
}


def extreme_resistance_config(tmp_path, geometry):
    text = bundled_text("config_28nm.cfg")
    edit = EXTREME_RESISTANCE[geometry]
    assert edit[0] in text
    path = tmp_path / f"r_{geometry}.cfg"
    path.write_text(text.replace(*edit))
    return str(path)


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

    @pytest.mark.parametrize("geometry, crossing", [("1W1S", 7.39061e97),
                                                    ("1W2S", 7.32958e-15)])
    def test_extreme_crossing_stays_readable(self, capsys, tmp_path, geometry, crossing):
        """A crossing far outside 0.01 to 1e6 ps prints six significant
        digits: not 98 digits, not 0.0000 ps."""
        config = extreme_resistance_config(tmp_path, geometry)
        argv = ["simulate", "--config", config, "--geometry", geometry, "--mode", "quiet"]
        assert main(argv) == 0
        summary = capsys.readouterr().out.splitlines()
        threshold, shown = re.fullmatch(r"victim crossing of (\S+) V at (\S+) ps",
                                        summary[1]).groups()
        assert threshold == "0.450"
        assert len(shown) <= 13 and float(shown) == pytest.approx(crossing, rel=1e-4)
        assert shown == f"{float(shown):.6g}"

    @pytest.mark.parametrize("resistance, extra, time_label", [
        ("1W1S", [], "3.7956e+99 ps"),
        (None, ["--segments", "1", "--t-end-ps", "1e-88"], "1e-88 ps"),
    ], ids=["r_ohm-1e100", "t_end-1e-88"])
    def test_svg_axis_labels_follow_the_display_rule(self, workspace, capsys, tmp_path,
                                                     resistance, extra, time_label):
        """A plot spanning far outside 0.01 to 1e6 ps labels its time axis in
        six significant digits, not in 100 digits or as 0.000 ps; the voltage
        labels follow the same rule."""
        config = (workspace["config"] if resistance is None
                  else extreme_resistance_config(tmp_path, resistance))
        svg = tmp_path / "wave.svg"
        argv = ["simulate", "--config", config, "--geometry", "1W1S", "--mode", "quiet",
                "--svg", str(svg), *extra]
        assert main(argv) == 0
        capsys.readouterr()
        labels = [el.text for el in ET.parse(svg).iter()
                  if el.tag.endswith("text") and el.text.endswith((" ps", " V"))]
        assert labels[0] == time_label
        for label in labels:
            number = label.split()[0]
            assert len(number) <= 13 and math.isfinite(float(number)), label
            assert number in (f"{float(number):.2f}", f"{float(number):.6g}"), label

    def test_svg_title_is_escaped(self, capsys, tmp_path):
        """Markup characters in a geometry label stay text in the plot."""
        config = tmp_path / "amp.cfg"
        config.write_text(bundled_text("config_28nm.cfg").replace("1W1S", "A&B"))
        svg_path = tmp_path / "amp.svg"
        code = main(
            [
                "simulate",
                "--config", str(config),
                "--geometry", "A&B",
                "--mode", "quiet",
                "--segments", "1",
                "--svg", str(svg_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        title = next(el for el in root.iter() if el.tag.endswith("text"))
        assert title.text == "A&B quiet (1 segments)"

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

    def test_no_output_samples_only_the_victim(self, workspace, capsys, tmp_path, monkeypatch):
        """Without --out or --svg the summary reads SAMPLES and the grid step
        from the result and the crossing samples the victim alone: the three
        far-end waveforms are never sampled, and stdout is the same as with
        a waveform file."""
        results, simulate_step = [], cli.simulate_step

        def recorded(*args, **kwargs):
            results.append(simulate_step(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "simulate_step", recorded)
        argv = ["simulate", "--config", workspace["config"], "--geometry", "1W1S",
                "--mode", "out_of_phase", "--segments", "7"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert "_waveforms" not in vars(results[0])
        assert main([*argv, "--out", str(tmp_path / "w.csv")]) == 0
        assert capsys.readouterr().out == bare
        assert "_waveforms" in vars(results[1])
        assert "8192 samples" in bare

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

    @pytest.mark.parametrize("t_end_ps", ["0", "-1", "inf", "nan"])
    def test_bad_span_rejected(self, workspace, capsys, t_end_ps):
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
                "--mode", "quiet",
                "--segments", "1",
                "--t-end-ps", t_end_ps,
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "--t-end-ps must be finite and > 0" in captured.err
        assert "samples" not in captured.out

    def test_span_without_grid_step_rejected(self, workspace, capsys, tmp_path):
        """A span whose grid step rounds to 0 s is a validation error: one
        error line, no traceback, no warning and no output file."""
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                [
                    "simulate",
                    "--config", workspace["config"],
                    "--geometry", "1W1S",
                    "--mode", "quiet",
                    "--t-end-ps", "1e-308",
                    "--out", str(out),
                ]
            )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "error: --t-end-ps 1e-308 is too short: its grid step "
            "(the span over 8191) rounds to 0 s\n"
        )
        assert captured.out == ""
        assert caught == []
        assert not out.exists()

    @pytest.mark.parametrize("segments", [10**7, 10**10, 10**20])
    def test_unallocatable_segment_count_rejected(self, workspace, capsys, segments):
        """numpy refuses the matrices up front, so no memory is touched:
        3e7 nodes need 6.4 PiB (MemoryError), 3e10 nodes more bytes than it
        can address and 3e20 a dimension past its limit (ValueError). The
        request is a validation error, not a traceback."""
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
                "--mode", "quiet",
                "--segments", str(segments),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert f"a {3 * segments}-node network is too large to allocate" in captured.err
        assert captured.out == ""

    def test_segment_count_past_the_float_range_rejected(self, workspace, capsys, tmp_path):
        """A count whose float conversion overflows is refused like any
        other unallocatable count, its node count shown by leading digits."""
        out = tmp_path / "w.csv"
        code = main([*SIMULATE_1W1S, "--config", workspace["config"],
                     "--segments", HUGE_SEGMENTS, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: a 3.00e+310-node network is too large to allocate\n"
        assert captured.out == ""
        assert not out.exists()

    def test_zero_segments_rejected(self, workspace, capsys):
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
                "--mode", "quiet",
                "--segments", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: segments must be >= 1, got 0\n"
        assert captured.out == ""

    def test_all_zero_waveform(self, workspace, capsys, tmp_path):
        """A span so short that every voltage is still 0.0 writes zeros
        and an SVG whose voltage axis runs from 0.00 V to the drive's 0.90 V."""
        csv_path, svg_path = tmp_path / "zero.csv", tmp_path / "zero.svg"
        code = main(
            [
                "simulate",
                "--config", workspace["config"],
                "--geometry", "1W1S",
                "--mode", "quiet",
                "--segments", "1",
                "--t-end-ps", "1e-298",
                "--out", str(csv_path),
                "--svg", str(svg_path),
            ]
        )
        assert code == 0
        assert "never reaches" in capsys.readouterr().out
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 8192
        assert {row.partition(",")[2] for row in rows} == {",".join(["0.000000000e+00"] * 3)}
        labels = [el.text for el in ET.fromstring(svg_path.read_text()).iter()
                  if el.tag.endswith("text") and el.text.endswith(" V")]
        assert labels == ["0.90 V", "0.00 V"]

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


    @pytest.mark.parametrize("geometry, delays", [
        ("1W1S", (4.57477e97, 1.21981e98, 2.97907e98)),
        ("1W2S", (4.29751e-15, 1.19851e-14, 3.00487e-14)),
    ])
    def test_extreme_delays_stay_readable(self, capsys, tmp_path, geometry, delays):
        """Threshold delays far outside 0.01 to 1e6 ps print six significant
        digits: not 98 digits, not 0.0000 ps."""
        config = extreme_resistance_config(tmp_path, geometry)
        assert main(["validate", "--config", config, "--geometry", geometry]) == 0
        out = capsys.readouterr().out
        shown = re.findall(r"(\S+) ps\b", out)
        assert [float(field) for field in shown] == pytest.approx(delays, rel=1e-4)
        assert all(len(field) <= 13 and field == f"{float(field):.6g}" for field in shown)
        assert "overall: pass" in out

    @pytest.mark.parametrize("segments", [10**7, 10**10, 10**20])
    def test_unallocatable_segment_count_rejected(self, workspace, capsys, tmp_path,
                                                  segments):
        huge = tmp_path / "huge.cfg"
        huge.write_text(
            bundled_text("config_28nm.cfg").replace(
                "segments = 50", f"segments = {segments}"
            )
        )
        out = tmp_path / "validation.txt"
        code = main(["validate", "--config", str(huge), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert f"a {3 * segments}-node network is too large to allocate" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("line.1W1S.c_ff = 6.6\nline.1W1S.cc_ff = 8.0\n",
              "cap.1W1S.c_ta_ff = -1\ncap.1W1S.c_ba_ff = 3.0\ncap.1W1S.c_ft_ff = 0.8\n"
              "cap.1W1S.c_fb_ff = 0.5\ncap.1W1S.c_c_ff = 4.0\n"),
             "cap.1W1S: c_ta must be finite and >= 0, got -1e-15"),
            # valid components whose line model is not: the error is the line's
            (("line.1W1S.c_ff = 6.6\nline.1W1S.cc_ff = 8.0\n",
              "cap.1W1S.c_ta_ff = 0\ncap.1W1S.c_ba_ff = 0\ncap.1W1S.c_ft_ff = 0\n"
              "cap.1W1S.c_fb_ff = 0\ncap.1W1S.c_c_ff = 4.0\n"),
             "line.1W1S: c must be finite and > 0, got 0.0"),
            (("line.1W1S.r_ohm = 504", "line.1W1S.r_ohm = -504"),
             "line.1W1S: r must be finite and > 0, got -504.0"),
        ],
        ids=["negative-cap-component", "zero-ground-capacitance", "negative-line-resistance"],
    )
    def test_invalid_line_model_rejected(self, workspace, capsys, tmp_path, edit, message):
        bad = tmp_path / "bad.cfg"
        text = bundled_text("config_28nm.cfg")
        assert edit[0] in text
        bad.write_text(text.replace(*edit))
        code = main(["validate", "--config", str(bad)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


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

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_interleaved_lot_matches_sorted(self, workspace, capsys, tmp_path, fmt):
        """Row order in the file does not change the report."""
        rows = lot_rows([("D1", 1.0), ("D2", 0.8), ("D3", 1.1), ("D4", 0.9)])
        rows += lot_rows([("D1", 1.0), ("D5", 0.7)], geometry="1W2S")
        interleaved = sorted(rows, key=lambda r: (r[2], r[3], r[0]), reverse=True)
        assert interleaved[0][0] == "D5" and interleaved[1][0] == "D4"
        outputs = []
        for name, lot in (("sorted", rows), ("interleaved", interleaved)):
            code = main(
                [
                    "binning",
                    "--config", workspace["config"],
                    "--measurements", write_lot(tmp_path / f"{name}.csv", lot),
                    "--geometry", "1W1S",
                    "--format", fmt,
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert all(die in outputs[0] for die in ("D1", "D2", "D3", "D4"))
        assert "D5" not in outputs[0]

    def test_blank_die_label(self, workspace, capsys, tmp_path):
        lot = write_lot(
            tmp_path / "blank.csv", lot_rows([("", 1.0), ("D2", 0.8)])
        )
        code = main(
            [
                "binning",
                "--config", workspace["config"],
                "--measurements", lot,
                "--geometry", "1W1S",
                "--format", "json",
            ]
        )
        assert code == 0
        bins = json.loads(capsys.readouterr().out)["binning"]["bins"]
        assert [b["die"] for b in bins] == ["<blank>", "D2"]
        assert bins[1]["improvement"] == pytest.approx(0.25, rel=1e-9)

    def test_blank_die_label_clash(self, workspace, capsys, tmp_path):
        """Unlabelled rows and a die labelled '<blank>' would share one bin,
        silently dropping a die, so the lot is rejected instead."""
        lot = write_lot(
            tmp_path / "clash.csv", lot_rows([("", 1.0), ("<blank>", 0.8)])
        )
        out = tmp_path / "clash.json"
        code = main(
            [
                "binning",
                "--config", workspace["config"],
                "--measurements", lot,
                "--geometry", "1W1S",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "'<blank>'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_one_extraction_per_die(self, workspace, capsys, tmp_path, monkeypatch):
        """One extract_all call gets exactly the geometry's records, in
        file order, and returns every die's values in sorted die order."""
        rows = lot_rows([("D2", 0.8), ("D1", 1.0), ("D3", 1.1)])
        rows += lot_rows([("D1", 1.0)], geometry="1W2S")
        rows = rows[1::2] + rows[::2]
        lot = write_lot(tmp_path / "lot.csv", rows)
        calls = []
        real = cli.extract_all

        def spy(records, config, **kwargs):
            results = real(records, config, **kwargs)
            calls.append((list(records), results.die.tolist()))
            return results

        monkeypatch.setattr(cli, "extract_all", spy)
        code = main(
            [
                "binning",
                "--config", workspace["config"],
                "--measurements", lot,
                "--geometry", "1W1S",
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = read_measurements(lot)
        assert calls == [
            ([r for r in records if r.geometry == "1W1S"], ["D1", "D2", "D3"])
        ]

    @pytest.mark.parametrize(
        "drop, swap, code, message",
        [
            ("D3", "D4", 3, "die D3: required record (FO1, quiet) is missing"),
            ("D4", "D2", 4, "die D2: FO2 period must exceed FO1 period"),
            ("D9", "", 4, "die <blank>: FO2 period must exceed FO1 period"),
            ("", "", 3, "die <blank>: required record (FO1, quiet) is missing"),
        ],
    )
    def test_lot_errors_name_the_die(
        self, workspace, capsys, tmp_path, drop, swap, code, message
    ):
        """A failing lot names the first failing die in sorted order, keeps
        its exit code and writes no report."""
        rows = lot_rows([("D4", 1.0), ("D3", 0.9), ("D2", 1.1), ("", 1.0)])
        rows = [r for r in rows if not (r[0] == drop and r[3] == "quiet")]
        # a die whose FO2 period is shorter than its FO1 period
        rows = [
            r[:4] + (f"{float(r[4]) / 2:.6f}",) + r[5:]
            if r[0] == swap and r[2] == "FO2" else r
            for r in rows
        ]
        out = tmp_path / "bins.txt"
        argv = [
            "binning",
            "--config", workspace["config"],
            "--measurements", write_lot(tmp_path / "lot.csv", rows),
            "--geometry", "1W1S",
            "--out", str(out),
        ]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "die_b, message",
        [
            # 2 * i_eff overflows, so r_sw = 0
            ([(f, m, f"{t}e-9", "1e308") for f, m, t, _ in BASE_1W1S], "r_sw = 0.0: "),
            # every value finite, but the delay proxy r_sw * c_total underflows
            ([("FO1", "in_phase", "1e-318", "4.5e299"),
              ("FO1", "out_of_phase", "88.39e-9", "4.5e299"),
              ("FO1", "quiet", "82.31e-9", "4.5e299"),
              ("FO2", "in_phase", "1.2e-318", "4.5e299")],
             "delay proxy r_sw * c_total = "),
        ],
    )
    def test_degenerate_die_exits_4(self, workspace, capsys, tmp_path, die_b, message):
        """A lot with a die that over- or underflows exits 4, naming the die
        and the value, and writes no report."""
        die_a = [(f, m, f"{t}e-9", f"{i}e-6") for f, m, t, i in BASE_1W1S]
        lot = tmp_path / "lot.csv"
        lot.write_text(
            "units: tosc=s current=A\n"
            "columns: die geometry fanout mode tosc ieff\n"
            + "".join(f"{die},1W1S,{','.join(row)}\n"
                      for die, rows in (("A", die_a), ("B", die_b)) for row in rows)
        )
        out = tmp_path / "bins.json"
        code = main(
            [
                "binning",
                "--config", workspace["config"],
                "--measurements", str(lot),
                "--geometry", "1W1S",
                "--format", "json",
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert f"error: die B: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_fault_in_another_geometry_fails_the_call(self, workspace, capsys, tmp_path):
        """Every row of the file is checked before one geometry is picked: a
        lot whose only fault is a 1W1S row fails a 1W2S binning with exit
        2, naming that row's line."""
        dies = [(f"D{k}", 1.0 + 0.01 * k) for k in range(8)]
        rows = lot_rows(dies) + lot_rows(dies, geometry="1W2S")
        assert len(rows) >= files._BULK_MIN_LINES  # read in bulk
        rows[5] = rows[5][:4] + ("-81.66",) + rows[5][5:]
        out = tmp_path / "bins.txt"
        argv = [
            "binning",
            "--config", workspace["config"],
            "--measurements", write_lot(tmp_path / "lot.csv", rows),
            "--geometry", "1W2S",
            "--out", str(out),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 8: t_osc must be finite and > 0, got -8.166e-08\n"
        assert not out.exists()

    def test_extreme_values_stay_readable(self, workspace, capsys, tmp_path):
        """A text row with a value the fixed decimals cannot show takes six
        significant digits for it: the die of TestExtract's extreme file
        (tosc ~1e140 s, i_eff 5.76e140 A), a die whose gain reaches 1e10 %
        (and its runtime 1e-8), and a die whose gain is under 0.01 %.
        Every other value keeps its decimals, and a gain of 0 reads 0.00."""
        lots = {
            "extreme": [("", "1W1S", fanout, mode, f"{tosc}e140", "5.76e146")
                        for fanout, mode, tosc, _ in BASE_1W1S],
            "fast": lot_rows([("A", 1.0), ("B", 1e8), ("C", 0.99995e8)]),
        }
        want = {
            "extreme": ["  <blank>    7.8125e-142    8.166e+284 6.37969e+140   1.000    1.000"
                        "    0.00"],
            "fast": ["  B               504.77   1.26389e+09 6.37969e+08   1.000    1.000"
                     "    0.00",
                     "  C               504.77   1.26382e+09 6.37937e+08   1.000    1.000"
                     " 0.00500025",
                     "  A               504.77         12.64      6.3797   1e+08    1e-08"
                     "   1e+10"],
        }
        for name, rows in lots.items():
            argv = ["binning", "--config", workspace["config"], "--geometry", "1W1S",
                    "--measurements", write_lot(tmp_path / f"{name}.csv", rows)]
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines()[2:] == want[name]

    def test_lot_is_one_result(self, workspace, capsys, tmp_path, monkeypatch):
        """binning extracts the whole lot into one ExtractionResult of
        columns, whatever the die count, and reports from it."""
        dies = [(f"D{k}", 1.0 + 0.01 * k) for k in range(20)] + [("", 0.9)]
        lot = write_lot(tmp_path / "lot.csv", lot_rows(dies))
        argv = ["binning", "--config", workspace["config"], "--measurements", lot,
                "--geometry", "1W1S", "--format", "csv"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        built = []
        real = extraction.ExtractionResult

        def counted(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(extraction, "ExtractionResult", counted)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == want
        assert [len(result.die) for result in built] == [len(dies)]
        assert out.count("\n") == 1 + len(dies)
        assert "\n<blank>,1W1S," in out

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

    @pytest.mark.parametrize("which", ["config", "measurements"])
    def test_undecodable_byte_exits_2(self, workspace, capsys, tmp_path, which):
        """A file that is not UTF-8 fails with exit 2 and one error line
        naming the line of the byte, as any other malformed input does."""
        lines = pathlib.Path(workspace[which]).read_bytes().splitlines(keepends=True)
        lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
        paths = {"config": workspace["config"], "measurements": workspace["measurements"],
                 which: str(tmp_path / which)}
        pathlib.Path(paths[which]).write_bytes(b"".join(lines))
        argv = ["report", "--config", paths["config"], "--measurements", paths["measurements"]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 4: cannot decode byte 0xff as UTF-8\n"
        assert captured.out == ""

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


class TestCommandLineSurface:
    @pytest.mark.parametrize("command", ["ringrc", "simulate", "extract", "report",
                                         "validate", "binning"])
    def test_help_unchanged(self, capsys, monkeypatch, command):
        """`--help` of the root and of each command prints the committed page
        at 80 columns."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(["--help"] if command == "ringrc" else [command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == (GOLDEN / f"help_{command}.txt").read_text()

    def test_format_choices_are_the_report_formats(self):
        """Every --format offers exactly the formats the emitters render."""
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        choices = {command: tuple(action.choices)
                   for command, parser in sub.choices.items()
                   for action in parser._actions if action.dest == "format"}
        assert choices == dict.fromkeys(["extract", "report", "binning"], reporting.FORMATS)

    def test_unmeasured_configured_geometry_warns(self, golden_inputs, capsys, tmp_path):
        """A spec geometry that no measurement row names (here a mistyped
        1W1S) gets one warning from `report`, which prints the same bytes;
        `extract` reads no targets and stays silent."""
        config = tmp_path / "typo.cfg"
        config.write_text(pathlib.Path(golden_inputs["config"]).read_text()
                          + "spec.1W1s.c_gate_ff = 2.5\n")
        inputs = {**golden_inputs, "config": str(config)}
        for name, warned in (("report.json", True), ("extract.json", False)):
            assert main([arg.format(**inputs) for arg in GOLDEN_CASES[name]]) == 0
            captured = capsys.readouterr()
            assert captured.out == (GOLDEN / name).read_text()
            assert captured.err == warned * (
                "warning: no measurement row names configured geometry '1W1s'\n")


SIMULATE_1W1S = ("simulate", "--geometry", "1W1S", "--mode", "quiet")
UNSOLVABLE = "network cannot be solved in double precision: "
BELOW_ROUNDING = "the fastest time constant is below the rounding of the slowest"
RESPONSE_OVERFLOWS = "network's response to a 1e+307 V step overflows double precision"
TARGET_UNDERFLOWS = ("must be > 0 and, scaled to SI units, a normal float "
                     "(>= 2.2250738585072014e-308), got 1e-310")
#: Integer literals whose float conversion overflows: 2 n m = 1.28e309 for
#: n = 1e307 with the bundled m, and 1e310 segments.
HUGE_N, HUGE_SEGMENTS = "1" + "0" * 307, "1" + "0" * 310
PERIOD_SCALE_OVERFLOWS = ("2 * n * m must not exceed the largest float, "
                          "1.7976931348623157e+308: the period algebra divides by it")
#: One finite config value the oracle or the comparison cannot use, the
#: command that meets it, its exit code and the start of its error line.
EXTREME_VALUES = {
    "c_ff-validate": ("line.1W1S.c_ff", "1e-20", ("validate",), 4,
                      f"the 3-node {UNSOLVABLE}{BELOW_ROUNDING}"),
    "c_ff-simulate": ("line.1W1S.c_ff", "1e-20", (*SIMULATE_1W1S, "--segments", "2"), 4,
                      f"the 6-node {UNSOLVABLE}{BELOW_ROUNDING}"),
    "cc_ff-validate": ("line.1W1S.cc_ff", "1e20", ("validate",), 4,
                       f"the 3-node {UNSOLVABLE}{BELOW_ROUNDING}"),
    "r_ohm-validate": ("line.1W1S.r_ohm", "1e-300", ("validate",), 4,
                       f"the 3-node {UNSOLVABLE}a decay rate is not finite"),
    "r_ohm-simulate": ("line.1W1S.r_ohm", "1e-300", (*SIMULATE_1W1S, "--segments", "1"), 4,
                       f"the 3-node {UNSOLVABLE}a decay rate is not finite"),
    "r_ohm-conductance": ("line.1W2S.r_ohm", "2.2250738585072014e-308",
                          ("simulate", "--geometry", "1W2S", "--mode", "quiet", "--segments", "3"),
                          4, f"the 9-node {UNSOLVABLE}a decay rate is not finite"),
    "r_ohm-sections": ("line.1W1S.r_ohm", "5e-324", (*SIMULATE_1W1S, "--segments", "2"), 4,
                       f"the 6-node {UNSOLVABLE}its section resistance 5e-324 / 2 rounds to 0 ohm"),
    "c_total_ff-report": ("spec.1W1S.c_total_ff", "1e-310", ("report",), 3,
                          f"spec.1W1S.c_total_ff {TARGET_UNDERFLOWS}"),
    "r_sw_ohm-report": ("spec.1W1S.r_sw_ohm", "1e-310", ("report",), 3,
                        f"spec.1W1S.r_sw_ohm {TARGET_UNDERFLOWS}"),
    "v_dd-simulate": ("v_dd", "1e307", (*SIMULATE_1W1S, "--segments", "2"), 4,
                      f"the 6-node {RESPONSE_OVERFLOWS}"),
    "v_dd-validate": ("v_dd", "1e307", ("validate",), 4, f"the 3-node {RESPONSE_OVERFLOWS}"),
    "threshold-validate": ("threshold_fraction", "1e-300", ("validate",), 3,
                           "threshold_fraction must be in [1e-09, 1), got 1e-300; below 1e-09 "
                           "of v_dd a simulated crossing would be set by rounding"),
    "n-report": ("n", HUGE_N, ("report",), 3, PERIOD_SCALE_OVERFLOWS),
    "n-extract": ("n", HUGE_N, ("extract",), 3, PERIOD_SCALE_OVERFLOWS),
    "n-binning": ("n", HUGE_N, ("binning", "--geometry", "1W1S"), 3, PERIOD_SCALE_OVERFLOWS),
    "segments-validate": ("segments", HUGE_SEGMENTS, ("validate",), 3,
                          "a 3.00e+310-node network is too large to allocate"),
}


class TestExtremeConfigValues:
    @pytest.mark.parametrize("case", sorted(EXTREME_VALUES))
    def test_documented_exit_code(self, workspace, capsys, tmp_path, case):
        """Each value gives its exit code and one error line: no traceback,
        no warning and no output file."""
        key, value, command, code, message = EXTREME_VALUES[case]
        text = bundled_text("config_28nm.cfg")
        lines = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
        assert len(lines) == text.count("\n") - 1
        config = tmp_path / "extreme.cfg"
        config.write_text("\n".join(lines) + f"\n{key} = {value}\n")
        out = tmp_path / "out.txt"
        argv = [*command, "--config", str(config), "--out", str(out)]
        if command[0] in ("report", "extract", "binning"):
            argv += ["--measurements", workspace["measurements"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert caught == []
        assert not out.exists()


def call(argv, capsys):
    """What one main() call returns, or the code it exits with, and what it
    printed."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXTRACT = ["--config", "{config}", "--measurements", "{measurements}"]
#: Two calls in one process and what the second must show of its own
#: arguments; {placeholders} name workspace paths.
SEQUENCES = {
    "geometry, then every geometry": (
        ["report", *EXTRACT, "--geometry", "1W1S"], ["report", *EXTRACT],
        lambda code, out, err: code == 0 and "geometry 1W2S" in out,
    ),
    "every geometry, then one": (
        ["report", *EXTRACT], ["report", *EXTRACT, "--geometry", "1W1S"],
        lambda code, out, err: code == 0 and out.count("geometry") == 1,
    ),
    "report, then extract": (
        ["report", *EXTRACT], ["extract", *EXTRACT],
        lambda code, out, err: out == (GOLDEN / "extract.txt").read_text(),
    ),
    "one die, then no die": (
        ["extract", "--config", "{config}", "--measurements", "{two_die}", "--die", "D1"],
        ["extract", "--config", "{config}", "--measurements", "{two_die}"],
        lambda code, out, err: code == 3 and "pass --die" in err,
    ),
    "usage error, then a good call": (
        ["report", "--config"], ["report", *EXTRACT],
        lambda code, out, err: code == 0 and out == (GOLDEN / "report.txt").read_text(),
    ),
    "version, then help": (
        ["--version"], ["--help"],
        lambda code, out, err: code == "SystemExit(0)" and out.startswith("usage:"),
    ),
}


class TestSharedParser:
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_calls_stay_independent(self, workspace, capsys, monkeypatch, name):
        """Calls through the one shared parser return and print what each
        gets from a parser of its own."""
        *argvs, second_is_own = SEQUENCES[name]
        argvs = [[arg.format(**workspace) for arg in argv] for argv in argvs]
        shared = [call(argv, capsys) for argv in argvs]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [call(argv, capsys) for argv in argvs]
        assert shared == fresh
        assert second_is_own(*shared[1])

    def test_parser_built_once(self, workspace, capsys, monkeypatch):
        """Repeated main() calls build the argument parser at most once."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        argv = [arg.format(**workspace) for arg in ["extract", *EXTRACT]]
        for _ in range(3):
            assert main(argv) == 0
        assert built.count("ringrc") <= 1
        assert cli.build_parser() is cli.build_parser()

    def test_parser_not_built_at_import(self):
        """Importing the CLI builds no parser; the first main() call does."""
        src = pathlib.Path(cli.__file__).parents[1]
        probe = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import ringrc.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True)
        assert done.stdout == "0\n"
