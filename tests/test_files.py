"""Tests for the measurement, configuration and report file formats."""

import importlib.resources
import json
import os
import re

import pytest

from ringrc import (
    CrosstalkMode,
    Fanout,
    ParseError,
    ValidationError,
    emit_report_json,
    extract_all,
    parse_config,
    parse_measurements,
    parse_report,
    read_config,
    read_measurements,
    write_text_atomic,
)
from ringrc.files import REPORT_FORMAT_TAG

GOOD_TEXT = """\
# narrow-pitch pair, first die
units: tosc=ns current=uA
columns: geometry fanout mode tosc ieff
1W1S,FO1,in_phase,81.66,891.50
1W1S,FO1,quiet,82.31,503.47   # trailing comment
"""


def bundled(name):
    return importlib.resources.files("ringrc").joinpath("data", name)


class TestParseMeasurements:
    def test_happy_path_si_conversion(self):
        records = parse_measurements(GOOD_TEXT)
        assert len(records) == 2
        rec = records[0]
        assert rec.geometry == "1W1S"
        assert rec.fanout is Fanout.FO1
        assert rec.mode is CrosstalkMode.IN_PHASE
        assert rec.t_osc == pytest.approx(81.66e-9, rel=1e-12, abs=0.0)
        assert rec.i_eff == pytest.approx(891.50e-6, rel=1e-12, abs=0.0)
        assert rec.die == ""

    def test_die_column_and_supply_pair(self):
        text = (
            "units: tosc=ps current=mA\n"
            "columns: die geometry fanout mode tosc idda iddq\n"
            "D1,1W1S,FO2,out_of_phase,113220,1.38487,0.1\n"
        )
        (rec,) = parse_measurements(text)
        assert rec.die == "D1"
        assert rec.t_osc == pytest.approx(113.22e-9, rel=1e-12, abs=0.0)
        # i_eff is idda - iddq, each converted to amps first
        assert rec.i_eff == 1.38487 * 1e-3 - 0.1 * 1e-3
        assert rec.i_eff == pytest.approx(1.28487e-3, rel=1e-12, abs=0.0)

    def test_seconds_and_amps(self):
        text = (
            "units: tosc=s current=A\n"
            "columns: geometry fanout mode tosc ieff\n"
            "g,FO1,quiet,1.5e-8,2e-4\n"
        )
        (rec,) = parse_measurements(text)
        assert rec.t_osc == 1.5e-8
        assert rec.i_eff == 2e-4

    def test_bundled_data_set(self):
        records = parse_measurements(bundled("measurements_28nm.csv").read_text())
        assert len(records) == 12
        keys = {(r.geometry, r.fanout, r.mode) for r in records}
        assert len(keys) == 12
        by_key = {(r.geometry, r.fanout.value, r.mode.value): r for r in records}
        rec = by_key[("1W2S", "FO2", "quiet")]
        assert rec.t_osc == pytest.approx(85.32e-9, rel=1e-12, abs=0.0)
        assert rec.i_eff == pytest.approx(817.23e-6, rel=1e-12, abs=0.0)

    def test_bundled_data_extracts(self):
        """End to end: bundled measurements + bundled config reproduce the
        frozen switching resistance."""
        records = parse_measurements(bundled("measurements_28nm.csv").read_text())
        config = parse_config(bundled("config_28nm.cfg").read_text())
        subset = [r for r in records if r.geometry == "1W1S"]
        result = extract_all(subset, config.ro_config("1W1S"))
        assert result.r_sw == pytest.approx(504.7672462142457, rel=1e-12)

    def test_unknown_mode_reports_line(self):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO1,sideways,81.66,891.50\n"
        )
        with pytest.raises(ParseError, match="line 3: unknown mode") as info:
            parse_measurements(text)
        assert info.value.line == 3

    def test_unknown_fanout(self):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO3,quiet,81.66,891.50\n"
        )
        with pytest.raises(ParseError, match="unknown fanout"):
            parse_measurements(text)

    def test_field_count_mismatch(self):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO1,quiet,81.66\n"
        )
        with pytest.raises(ParseError, match="expected 5 fields"):
            parse_measurements(text)

    def test_duplicate_record_names_first_line(self):
        text = GOOD_TEXT + "1W1S,FO1,in_phase,99.0,900.0\n"
        with pytest.raises(ParseError, match="first seen on line 4"):
            parse_measurements(text)

    def test_duplicate_declarations(self):
        with pytest.raises(ParseError, match="duplicate units"):
            parse_measurements(
                "units: tosc=ns current=uA\nunits: tosc=ns current=uA\n"
            )
        with pytest.raises(ParseError, match="duplicate columns"):
            parse_measurements(
                "units: tosc=ns current=uA\n"
                "columns: geometry fanout mode tosc ieff\n"
                "columns: geometry fanout mode tosc ieff\n"
            )

    def test_data_before_declarations(self):
        with pytest.raises(ParseError, match="before the units"):
            parse_measurements("1W1S,FO1,quiet,81.66,891.50\n")
        with pytest.raises(ParseError, match="before the columns"):
            parse_measurements(
                "units: tosc=ns current=uA\n1W1S,FO1,quiet,81.66,891.50\n"
            )

    def test_unknown_column(self):
        with pytest.raises(ParseError, match="unknown column 'speed'"):
            parse_measurements("units: tosc=ns current=uA\ncolumns: speed\n")

    @pytest.mark.parametrize(
        "columns",
        [
            "geometry fanout mode tosc ieff idda iddq",  # both current forms
            "geometry fanout mode tosc",  # no current at all
            "geometry fanout mode tosc idda",  # half a pair
        ],
    )
    def test_current_column_rules(self, columns):
        with pytest.raises(ParseError, match="current columns"):
            parse_measurements(f"units: tosc=ns current=uA\ncolumns: {columns}\n")

    def test_missing_required_column(self):
        with pytest.raises(ParseError, match="missing required column 'mode'"):
            parse_measurements(
                "units: tosc=ns current=uA\ncolumns: geometry fanout tosc ieff\n"
            )

    def test_repeated_column(self):
        with pytest.raises(ParseError, match="repeated column"):
            parse_measurements(
                "units: tosc=ns current=uA\n"
                "columns: geometry geometry fanout mode tosc ieff\n"
            )

    def test_unit_errors(self):
        with pytest.raises(ParseError, match="unknown unit key 'volts'"):
            parse_measurements("units: volts=V\n")
        with pytest.raises(ParseError, match="unsupported tosc unit"):
            parse_measurements("units: tosc=minutes current=uA\n")
        with pytest.raises(ParseError, match="malformed unit token"):
            parse_measurements("units: tosc\n")
        with pytest.raises(ParseError, match="lacks 'current'"):
            parse_measurements("units: tosc=ns\n")
        with pytest.raises(ParseError, match="duplicate unit key"):
            parse_measurements("units: tosc=ns tosc=ps current=uA\n")

    def test_non_numeric_field(self):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO1,quiet,fast,891.50\n"
        )
        with pytest.raises(ParseError, match="tosc: not a number"):
            parse_measurements(text)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_field(self, token):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            f"1W1S,FO1,quiet,81.66,{token}\n"
        )
        with pytest.raises(ParseError, match="ieff: not a finite number"):
            parse_measurements(text)

    def test_nonpositive_value_reports_line(self):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO1,quiet,-81.66,891.50\n"
        )
        with pytest.raises(ParseError, match="line 3") as info:
            parse_measurements(text)
        assert info.value.line == 3

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no data rows") as info:
            parse_measurements("# only comments\n\n")
        assert info.value.line is None


MINIMAL_CONFIG = "n = 100\nm = 64\nv_dd = 0.9\n"


class TestParseConfig:
    def test_bundled_config(self):
        config = parse_config(bundled("config_28nm.cfg").read_text())
        assert (config.n, config.m, config.v_dd) == (100, 64, 0.9)
        assert config.rsw_mode is CrosstalkMode.IN_PHASE
        assert config.segments == 50
        assert sorted(config.lines) == ["1W1S", "1W2S"]
        line = config.line_for("1W1S")
        assert line.r == 504.0
        assert line.c == pytest.approx(6.6e-15, rel=1e-12, abs=0.0)
        assert line.c_c == pytest.approx(8.0e-15, rel=1e-12, abs=0.0)
        assert line.v_dd == 0.9
        spec = config.spec.for_geometry("1W2S")
        assert spec.c_total == pytest.approx(10.68e-15, rel=1e-12, abs=0.0)
        assert spec.r_sw == 276.0
        assert config.warnings == ()

    def test_defaults(self):
        config = parse_config(MINIMAL_CONFIG)
        assert config.rsw_mode is CrosstalkMode.IN_PHASE
        assert config.threshold_fraction == 0.5
        assert config.segments == 50
        assert config.lines == {}
        assert config.spec.values == {}

    def test_ro_config_view(self):
        config = parse_config(MINIMAL_CONFIG)
        ro = config.ro_config("1W1S")
        assert (ro.n, ro.m, ro.v_dd) == (100, 64, 0.9)
        assert ro.geometry == "1W1S"

    @pytest.mark.parametrize("missing", ["n", "m", "v_dd"])
    def test_required_keys(self, missing):
        text = "\n".join(
            line
            for line in MINIMAL_CONFIG.splitlines()
            if not line.startswith(missing)
        )
        with pytest.raises(ValidationError, match=f"'{missing}' is missing"):
            parse_config(text)

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key 'n'"):
            parse_config(MINIMAL_CONFIG + "n = 101\n")

    def test_unknown_key_warns(self):
        config = parse_config(MINIMAL_CONFIG + "colour = blue\n")
        assert len(config.warnings) == 1
        assert "unknown key 'colour'" in config.warnings[0]
        assert "v_dd" in config.warnings[0]

    def test_unknown_section_leaf_warns(self):
        config = parse_config(MINIMAL_CONFIG + "line.1W1S.q_ohm = 5\n")
        assert len(config.warnings) == 1
        assert "r_ohm" in config.warnings[0]

    def test_component_capacitance_section(self):
        text = MINIMAL_CONFIG + (
            "line.G.r_ohm = 500\n"
            "cap.G.c_ta_ff = 2.0\n"
            "cap.G.c_ba_ff = 3.0\n"
            "cap.G.c_ft_ff = 0.8\n"
            "cap.G.c_fb_ff = 0.5\n"
            "cap.G.c_c_ff = 4.0\n"
        )
        line = parse_config(text).line_for("G")
        # ground load: top + bottom plates plus both fringe pairs
        assert line.c == pytest.approx(7.6e-15, rel=1e-12, abs=0.0)
        assert line.c_c == pytest.approx(4.0e-15, rel=1e-12, abs=0.0)

    def test_cap_and_line_conflict(self):
        text = MINIMAL_CONFIG + (
            "line.G.r_ohm = 500\n"
            "line.G.c_ff = 6.6\n"
            "cap.G.c_ta_ff = 2.0\n"
            "cap.G.c_ba_ff = 3.0\n"
            "cap.G.c_ft_ff = 0.8\n"
            "cap.G.c_fb_ff = 0.5\n"
            "cap.G.c_c_ff = 4.0\n"
        )
        with pytest.raises(ValidationError, match="one or the other"):
            parse_config(text)

    def test_incomplete_cap_section(self):
        text = MINIMAL_CONFIG + (
            "line.G.r_ohm = 500\ncap.G.c_ta_ff = 2.0\n"
        )
        with pytest.raises(ValidationError, match="missing: .*c_ba_ff"):
            parse_config(text)

    def test_line_requires_resistance(self):
        text = MINIMAL_CONFIG + "line.G.c_ff = 6.6\nline.G.cc_ff = 8.0\n"
        with pytest.raises(ValidationError, match="r_ohm is required"):
            parse_config(text)

    def test_incomplete_line(self):
        text = MINIMAL_CONFIG + "line.G.r_ohm = 500\nline.G.c_ff = 6.6\n"
        with pytest.raises(ValidationError, match="missing: cc_ff"):
            parse_config(text)

    def test_bad_rsw_mode(self):
        with pytest.raises(ValidationError, match="rsw_mode"):
            parse_config(MINIMAL_CONFIG + "rsw_mode = loud\n")

    @pytest.mark.parametrize(
        "extra",
        [
            "threshold_fraction = 0.0",
            "threshold_fraction = 1.0",
            "segments = 0",
            "spec.1W1S.c_total_ff = 0",
            "spec.1W1S.c_total_ff = -12.39",
            "spec.1W2S.r_sw_ohm = -0.0",
        ],
    )
    def test_scalar_range_checks(self, extra):
        key = extra.split(" = ")[0]
        with pytest.raises(ValidationError, match=re.escape(key)):
            parse_config(MINIMAL_CONFIG + extra + "\n")

    def test_small_stage_count_rejected(self):
        with pytest.raises(ValidationError, match="n must be"):
            parse_config("n = 2\nm = 64\nv_dd = 0.9\n")

    def test_non_integer_n(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_config("n = ten\nm = 64\nv_dd = 0.9\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_config("n 100\n")

    def test_inline_comments(self):
        config = parse_config("n = 100 # stages\nm = 64\nv_dd = 0.9\n")
        assert config.n == 100

    def test_line_for_unknown_geometry(self):
        config = parse_config(MINIMAL_CONFIG)
        with pytest.raises(ValidationError, match="no line model"):
            config.line_for("1W1S")


class TestFileIo:
    def test_read_helpers(self, tmp_path):
        meas = tmp_path / "m.csv"
        meas.write_text(GOOD_TEXT)
        assert len(read_measurements(str(meas))) == 2
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL_CONFIG)
        assert read_config(str(cfg)).n == 100

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_atomic_write_honours_umask(self, tmp_path, umask, mode):
        """The file gets the mode open(path, "w") would give a new file."""
        path = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            write_text_atomic(str(path), "text\n")
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode

    def test_atomic_write(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(str(path), "first\n")
        assert path.read_text() == "first\n"
        write_text_atomic(str(path), "second\n")
        assert path.read_text() == "second\n"
        # no temporary droppings left behind
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_atomic_write_failure_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write_text_atomic(str(target), "text\n")
        assert os.listdir(tmp_path) == ["taken"]


class TestReportJson:
    def test_round_trip_is_byte_identical(self):
        payload = {
            "format": REPORT_FORMAT_TAG,
            "geometries": {
                "1W1S": {"extraction": {"r_sw": 504.7672462142457}},
            },
        }
        text = emit_report_json(payload)
        assert parse_report(text) == payload
        assert emit_report_json(parse_report(text)) == text
        assert text.endswith("\n")

    def test_non_finite_value_rejected(self):
        payload = {"format": REPORT_FORMAT_TAG, "geometries": {"c_c": float("nan")}}
        with pytest.raises(ValueError):
            emit_report_json(payload)

    def test_bad_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_report("{nope")

    def test_wrong_tag(self):
        text = json.dumps({"format": "something-else/9"})
        with pytest.raises(ParseError, match=REPORT_FORMAT_TAG):
            parse_report(text)

    def test_non_object(self):
        with pytest.raises(ParseError, match="format tag"):
            parse_report("[1, 2, 3]")
