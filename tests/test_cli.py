"""End-to-end tests of the command line interface.

Each test drives main() directly with an argv list and inspects the
return code plus captured stdout/stderr.
"""

import importlib.resources
import json
import pathlib
import xml.etree.ElementTree as ET

import pytest

from ringrc import cli, parse_report
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
    )
}


def write_golden_inputs(root):
    """Write the golden cases' inputs under root and return their paths:
    the bundled config and data, the config with only c_total_ff as a 1W1S
    target, and a lot of an unlabelled die plus D2."""
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
        """Each die is extracted once, in sorted die order, from exactly
        its own records in file order."""
        rows = lot_rows([("D2", 0.8), ("D1", 1.0), ("D3", 1.1)])
        rows += lot_rows([("D1", 1.0)], geometry="1W2S")
        rows = rows[1::2] + rows[::2]
        lot = write_lot(tmp_path / "lot.csv", rows)
        calls = []
        real = cli.extract_all

        def spy(records, config, **kwargs):
            calls.append(list(records))
            return real(records, config, **kwargs)

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
        assert [call[0].die for call in calls] == ["D1", "D2", "D3"]
        for call in calls:
            die = call[0].die
            assert call == [
                r for r in records if r.die == die and r.geometry == "1W1S"
            ]

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
