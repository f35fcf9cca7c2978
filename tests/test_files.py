"""Tests for the measurement, configuration and report file formats."""

import dataclasses
import importlib.resources
import json
import os
import pathlib
import re
import threading
import tracemalloc

import pytest

from ringrc import (
    CrosstalkMode,
    Fanout,
    ParasiticSet,
    ParseError,
    ValidationError,
    extract_all,
    parse_config,
    parse_measurements,
    parse_report,
    read_config,
    read_measurements,
)
from ringrc import files
from ringrc.files import REPORT_FORMAT_TAG, emit_report_json, write_text_atomic

BOM = b"\xef\xbb\xbf"

GOOD_TEXT = """\
# narrow-pitch pair, first die
units: tosc=ns current=uA
columns: geometry fanout mode tosc ieff
1W1S,FO1,in_phase,81.66,891.50
1W1S,FO1,quiet,82.31,503.47   # trailing comment
"""


def raises_exactly(kind, message):
    """pytest.raises for an error of kind whose whole text is message."""
    return pytest.raises(kind, match=f"^{re.escape(message)}$")


def bundled(name):
    return importlib.resources.files("ringrc").joinpath("data", name)


def lot_text(dies):
    """A lot of dies x 2 geometries x 6 records, numbers written as repr
    writes them."""
    return "units: tosc=s current=A\ncolumns: die geometry fanout mode tosc ieff\n" + "".join(
        f"d{k:05d},{geometry},{fanout.value},{mode.value},{7.3e-8 + k * 1e-13!r},"
        f"{1.002e-3 + k * 1e-9!r}\n"
        for k in range(dies) for geometry in ("1W1S", "1W2S")
        for fanout in Fanout for mode in CrosstalkMode)


class TestParseMeasurements:
    def test_happy_path_si_conversion(self):
        records = parse_measurements(GOOD_TEXT)
        assert len(records) == 2
        rec = list(records)[0]
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
        subset = records.where("geometry", "1W1S")
        result = extract_all(subset, config.ro_config("1W1S")).one()
        assert result["r_sw"] == pytest.approx(504.7672462142457, rel=1e-12)

    def test_unknown_mode_reports_line(self):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO1,sideways,81.66,891.50\n"
        )
        with raises_exactly(ParseError, "line 3: unknown mode 'sideways'; "
                            "valid modes: in_phase, out_of_phase, quiet") as info:
            parse_measurements(text)
        assert info.value.line == 3

    def test_unknown_fanout(self):
        text = (
            "units: tosc=ns current=uA\n"
            "columns: geometry fanout mode tosc ieff\n"
            "1W1S,FO3,quiet,81.66,891.50\n"
        )
        with raises_exactly(ParseError, "line 3: unknown fanout 'FO3'; valid fanouts: FO1, FO2"):
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
        for units, message in [
            ("volts=V", "unknown unit key 'volts'; allowed: tosc, current"),
            ("tosc=minutes current=uA", "unsupported tosc unit 'minutes'; allowed: s, ms, us, ns, ps"),
            ("tosc=ns current=kA", "unsupported current unit 'kA'; allowed: A, mA, uA, nA"),
            ("tosc", "malformed unit token 'tosc'"),
            ("tosc=ns", "units declaration lacks 'current'"),
            ("current=uA", "units declaration lacks 'tosc'"),
            ("tosc=ns tosc=ps current=uA", "duplicate unit key 'tosc'"),
        ]:
            with raises_exactly(ParseError, f"line 2: {message}"):
                parse_measurements(f"# units first\nunits: {units}\n")

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
THRESHOLD_MESSAGE = ("threshold_fraction must be in [1e-09, 1), got {}; below 1e-09 of v_dd a "
                     "simulated crossing would be set by rounding, which reaches ~1e-15 of v_dd, "
                     "not by the line")


class TestParseConfig:
    def test_bundled_config(self):
        config = parse_config(bundled("config_28nm.cfg").read_text())
        assert (config.n, config.m, config.v_dd) == (100, 64, 0.9)
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
        with raises_exactly(ValidationError, f"required key '{missing}' is missing"):
            parse_config(text)

    def test_duplicate_key(self):
        with raises_exactly(ParseError, "line 4: duplicate key 'n' (first seen on line 1)"):
            parse_config(MINIMAL_CONFIG + "n = 101\n")

    def test_dotted_parts_are_stripped(self):
        # as measurement labels are: a padded part names the same geometry and field
        text = bundled("config_28nm.cfg").read_text()
        padded = parse_config(text + "line. 1W9S .r_ohm = 100\nline.1W9S. c_ff = 2\n"
                                     "line.1W9S.cc_ff\t= 3\n")
        plain = parse_config(text + "line.1W9S.r_ohm = 100\nline.1W9S.c_ff = 2\n"
                                    "line.1W9S.cc_ff = 3\n")
        assert padded == plain
        assert sorted(padded.lines) == ["1W1S", "1W2S", "1W9S"]
        assert padded.warnings == ()
        lineno = len(text.splitlines()) + 1
        first = text.splitlines().index("spec.1W1S.c_total_ff = 12.39") + 1
        with raises_exactly(ParseError, f"line {lineno}: duplicate key 'spec.1W1S.c_total_ff' "
                                        f"(first seen on line {first})"):
            parse_config(text + "spec.1W1S .c_total_ff = 5\n")

    def test_unknown_key_warns(self):
        # a dotted key with other than three parts, or another first part, is no section's
        for key in ("colour", "line.1W1S", "line.1W1S.r_ohm.x", "misc.G.r_ohm"):
            config = parse_config(MINIMAL_CONFIG + f"{key} = 5\n")
            assert config.warnings == (
                f"line 4: unknown key {key!r} ignored; known keys: n, m, v_dd, "
                "threshold_fraction, segments, line.<geometry>.<field>, "
                "cap.<geometry>.<field>, spec.<geometry>.<field>",)
            assert dataclasses.replace(config, warnings=()) == parse_config(MINIMAL_CONFIG)

    def test_unknown_section_leaf_warns(self):
        for key, known in [("line.1W1S.q_ohm", "line keys: r_ohm, c_ff, cc_ff"),
                           ("cap.G.c_x_ff", "cap keys: c_ta_ff, c_ba_ff, c_ft_ff, c_fb_ff, c_c_ff")]:
            config = parse_config(MINIMAL_CONFIG + f"{key} = 5\n")
            assert config.warnings == (f"line 4: unknown key {key!r} ignored; known {known}",)

    def test_unknown_spec_key_warns_with_targets_in_order(self):
        config = parse_config(MINIMAL_CONFIG + "spec.1W1S.c_foo_ff = 1\n")
        assert config.warnings == (
            "line 4: unknown key 'spec.1W1S.c_foo_ff' ignored; known spec keys: "
            "c_total_ff, c_gate_ff, c_int_ff, c_c_ff, r_sw_ohm",)

    def test_spec_keys_set_si_targets(self):
        """fF targets scale by 1e-15 exactly as written; ohms pass as given."""
        keys = "c_total_ff = 12.39", "c_gate_ff = 2.54", "c_int_ff = 9.85", "c_c_ff = 7.91"
        text = MINIMAL_CONFIG + "".join(f"spec.G.{key}\n" for key in keys)
        spec = parse_config(text + "spec.G.r_sw_ohm = 450\n").spec.for_geometry("G")
        assert spec == ParasiticSet(c_total=12.39 * 1e-15, c_gate=2.54 * 1e-15,
                                    c_int=9.85 * 1e-15, c_c=7.91 * 1e-15, r_sw=450.0)

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
        with raises_exactly(ValidationError, "geometry 'G' has both line.c_ff/cc_ff and a "
                            "cap section; give one or the other"):
            parse_config(text)

    def test_incomplete_cap_section(self):
        text = MINIMAL_CONFIG + (
            "line.G.r_ohm = 500\ncap.G.c_ta_ff = 2.0\n"
        )
        with raises_exactly(ValidationError, "cap.G section is incomplete; "
                            "missing: c_ba_ff, c_ft_ff, c_fb_ff, c_c_ff"):
            parse_config(text)

    def test_line_requires_resistance(self):
        text = MINIMAL_CONFIG + "line.G.c_ff = 6.6\nline.G.cc_ff = 8.0\n"
        with raises_exactly(ValidationError, "line.G.r_ohm is required to build a line model"):
            parse_config(text)

    def test_incomplete_line(self):
        for given, missing in [("line.G.c_ff = 6.6\n", "cc_ff"), ("", "c_ff, cc_ff")]:
            text = MINIMAL_CONFIG + "line.G.r_ohm = 500\n" + given
            with raises_exactly(ValidationError, f"line.G is incomplete; missing: {missing}"):
                parse_config(text)

    @pytest.mark.parametrize("value", ["in_phase", "quiet", "loud"])
    def test_retired_rsw_mode_key_warns(self, value):
        """r_sw always comes from the FO1 in-phase record, so a leftover
        rsw_mode key is an unknown key like any other, whatever its value."""
        config = parse_config(MINIMAL_CONFIG + f"rsw_mode = {value}\n")
        (warning,) = config.warnings
        assert warning.startswith("line 4: unknown key 'rsw_mode' ignored")
        assert dataclasses.replace(config, warnings=()) == parse_config(MINIMAL_CONFIG)

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
        key, value = extra.split(" = ")
        message = {"threshold_fraction": THRESHOLD_MESSAGE.format(value),
                   "segments": f"segments must be >= 1, got {value}"}.get(
                       key, f"{key} must be > 0 and, scaled to SI units, a normal float "
                            f"(>= 2.2250738585072014e-308), got {value}")
        with raises_exactly(ValidationError, message):
            parse_config(MINIMAL_CONFIG + extra + "\n")

    def test_threshold_floor(self):
        """A threshold below 1e-9 of v_dd would put the crossing where the
        oracle's rounding decides it; the message says so."""
        config = parse_config(MINIMAL_CONFIG + "threshold_fraction = 1e-9\n")
        assert config.threshold_fraction == 1e-9
        for value in ("9.99e-10", "1e-300", "5e-324"):
            with raises_exactly(ValidationError, THRESHOLD_MESSAGE.format(repr(float(value)))):
                parse_config(MINIMAL_CONFIG + f"threshold_fraction = {value}\n")

    def test_small_stage_count_rejected(self):
        """And the other checks of n, m and v_dd together."""
        for n, m, v_dd, message in [
            ("2", "64", "0.9", "n must be >= 3, got 2"),
            ("100", "0", "0.9", "m must be >= 1, got 0"),
            ("100", "64", "-0.9", "v_dd must be finite and > 0, got -0.9"),
            ("1" + "0" * 307, "64", "0.9", "2 * n * m must not exceed the largest float, "
             "1.7976931348623157e+308: the period algebra divides by it"),
        ]:
            with raises_exactly(ValidationError, message):
                parse_config(f"n = {n}\nm = {m}\nv_dd = {v_dd}\n")

    def test_non_integer_n(self):
        """And the other values that are not numbers."""
        for text, message in [
            ("n = ten\nm = 64\nv_dd = 0.9\n", "line 1: n: not an integer: 'ten'"),
            ("n = 100\nm = 64\nv_dd = high\n", "line 3: v_dd: not a number: 'high'"),
            ("n = 100\nm = 64\nv_dd = inf\n", "line 3: v_dd: not a finite number: 'inf'"),
            (MINIMAL_CONFIG + "line.G.r_ohm = 1e400\n",
             "line 4: line.G.r_ohm: not a finite number: '1e400'"),
        ]:
            with raises_exactly(ParseError, message):
                parse_config(text)

    def test_missing_equals(self):
        """And the other lines that are not key = value."""
        for line in ("n 100", "= 100", "n ="):
            with raises_exactly(ParseError, f"line 1: expected 'key = value', got {line!r}"):
                parse_config(line + "\n")

    def test_inline_comments(self):
        config = parse_config("n = 100 # stages\nm = 64\nv_dd = 0.9\n")
        assert config.n == 100

    def test_readme_table_lists_every_section_key(self):
        """The README's Configuration table is _SECTIONS: every key, in order,
        the field it sets (of the section's class) and its scale to SI."""
        readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(\w+)\.(\w+)` \| (\S+) \|$",
                          readme, re.MULTILINE)
        classes = {"line": "LineRC", "cap": "CapacitanceSet", "spec": "ParasiticSet"}
        assert [(section, key, classes[section], field, scale)
                for section, keys in files._SECTIONS.items()
                for key, (field, scale) in keys.items()] == [
            (section, key, cls, field, float(scale)) for section, key, cls, field, scale in rows]

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

    def test_read_helpers_skip_a_byte_order_mark(self, tmp_path):
        """Files saved as spreadsheet "CSV UTF-8" start with U+FEFF; the
        readers drop it, so they read as the same files without it."""
        meas, cfg = tmp_path / "m.csv", tmp_path / "c.cfg"
        meas.write_text("\ufeff" + bundled("measurements_28nm.csv").read_text(), "utf-8")
        cfg.write_text("\ufeff" + bundled("config_28nm.cfg").read_text(), "utf-8")
        got, want = read_measurements(str(meas)), parse_measurements(
            bundled("measurements_28nm.csv").read_text())
        assert list(got) == list(want)
        assert read_config(str(cfg)) == parse_config(bundled("config_28nm.cfg").read_text())

    def test_reading_a_lot_holds_one_chunk_not_the_file(self, tmp_path):
        """read_measurements holds one chunk of lines at a time: reading a
        48 000-row lot peaks at under twice the file's size, table included
        (reading the whole text and all its lines at once took 5.4 times)."""
        path = tmp_path / "lot.csv"
        path.write_text(lot_text(4000))
        read_measurements(str(path))  # numpy's first-use set-up is not the reader's
        tracemalloc.start()
        try:
            table = read_measurements(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 48000
        assert peak <= 2 * path.stat().st_size

    @pytest.mark.parametrize("fault", [None, "row", "byte"])
    def test_a_pipe_is_read_whole(self, tmp_path, fault):
        """A pipe cannot be read twice: its whole text is parsed, with the
        table or the error parse_measurements gives for that text."""
        lines = lot_text(5).split("\n")
        if fault == "row":
            lines[7] = "d99999,1W1S,FO1,quiet,fast,1e-3"
        text = "\r\n".join(lines)
        data = BOM + text.encode()
        if fault == "byte":
            data = data.replace(b"d00003", b"d\xff0003")
        fifo = tmp_path / "lot.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            got = read_measurements(str(fifo))
        except ParseError as exc:
            got = str(exc)
        writer.join(timeout=10)
        assert not writer.is_alive()
        if fault is None:
            assert list(got) == list(parse_measurements(text))
        elif fault == "row":
            with pytest.raises(ParseError) as want:
                parse_measurements(text)
            assert got == str(want.value) and got.startswith("line 8: tosc: not a number")
        else:
            assert got == "line 39: cannot decode byte 0xff as UTF-8"

    @pytest.mark.parametrize("dies, newline", [(1, "\n"), (400, "\n"), (400, "\r")])
    def test_undecodable_byte_names_its_line(self, tmp_path, dies, newline):
        """An undecodable byte is a ParseError naming its line, whether it
        lies in a short file or far into a lot read block by block, and it
        is the error reported even after a faulty row, as for a pipe."""
        lines = [line.encode() for line in lot_text(dies).split("\n")]
        bad = len(lines) - 3
        lines[bad] = lines[bad][:3] + b"\xff" + lines[bad][3:]
        lines[2] = lines[2].replace(b"FO1", b"FO9")
        path = tmp_path / "lot.csv"
        path.write_bytes(BOM + newline.encode().join(lines))
        assert len(lines) < 48 or path.stat().st_size > 4 * files._BLOCK_CHARS
        message = rf"^line {bad + 1}: cannot decode byte 0xff as UTF-8$"
        with pytest.raises(ParseError, match=message):
            read_measurements(str(path))
        (tmp_path / "c.cfg").write_bytes(MINIMAL_CONFIG.encode() + b"# \xff\n")
        with pytest.raises(ParseError, match="^line 4: cannot decode byte 0xff as UTF-8$"):
            read_config(str(tmp_path / "c.cfg"))

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

    @pytest.mark.parametrize("mode", [0o640, 0o600, 0o664])
    def test_atomic_write_keeps_existing_mode(self, tmp_path, mode):
        """Replacing a file keeps its permission bits, whatever the umask."""
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        path.chmod(mode)
        previous = os.umask(0o022)
        try:
            write_text_atomic(str(path), "new\n")
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode
        assert path.read_text() == "new\n"

    def test_atomic_write(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(str(path), "first\n")
        assert path.read_text() == "first\n"
        write_text_atomic(str(path), "second\n")
        assert path.read_text() == "second\n"
        # no temporary droppings left behind
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_atomic_write_through_a_symlink(self, tmp_path):
        """As with open(path, "w"), a symbolic link stays a link and its
        target gets the text and keeps its mode; a dangling link creates its
        target. The temporary goes next to the target, and none is left."""
        (tmp_path / "reports").mkdir()
        target, link = tmp_path / "reports" / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target)
        write_text_atomic(str(link), "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new\n"
        assert target.stat().st_mode & 0o777 == 0o640
        dangling = tmp_path / "dangling.txt"
        dangling.symlink_to("reports/made.txt")
        write_text_atomic(str(dangling), "made\n")
        assert dangling.is_symlink()
        assert (tmp_path / "reports" / "made.txt").read_text() == "made\n"
        assert sorted(os.listdir(tmp_path / "reports")) == ["made.txt", "target.txt"]
        assert sorted(os.listdir(tmp_path)) == ["dangling.txt", "link.txt", "reports"]

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

    def test_reads_schema_1_and_2_only(self):
        """A stored ringrc-report/1 document, which keys the coupling
        capacitance's provenance c_coupling, still parses; the next tag
        does not."""
        assert REPORT_FORMAT_TAG == "ringrc-report/2"
        v2 = (pathlib.Path(__file__).with_name("golden") / "report.json").read_text()
        v1 = v2.replace('"ringrc-report/2"', '"ringrc-report/1"').replace(
            '"c_c": [', '"c_coupling": [')
        assert '"c_coupling": [' in v1
        assert parse_report(v1)["format"] == "ringrc-report/1"
        assert parse_report(v2)["format"] == "ringrc-report/2"
        with pytest.raises(ParseError, match="expected 'ringrc-report/1' or 'ringrc-report/2'"):
            parse_report(v2.replace('"ringrc-report/2"', '"ringrc-report/3"'))

    def test_non_object(self):
        with pytest.raises(ParseError, match="format tag"):
            parse_report("[1, 2, 3]")
