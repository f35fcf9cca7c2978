"""Property-based tests: parser robustness, the lump oracle on random lines
and report emission."""

import contextlib
import importlib.resources
import io
import itertools
import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringrc import (
    AGGRESSOR_STEP,
    CapacitanceSet,
    CrosstalkMode,
    DrivePattern,
    ExtractionResult,
    Fanout,
    LineRC,
    Measurements,
    NumericError,
    ParasiticSet,
    ParseError,
    RingRcError,
    RoConfig,
    SynthesisTruth,
    ValidationError,
    build_network,
    compare_to_spec,
    counter_period,
    coupling_capacitance,
    extract_all,
    gate_capacitance,
    ground_capacitance,
    interconnect_capacitance,
    monitor_binning,
    parse_config,
    parse_measurements,
    parse_report,
    stage_capacitance,
    step_response_victim,
    switching_resistance,
    synthesize_measurements,
)
from ringrc import files, reporting
from ringrc.cli import main
from ringrc.extraction import COMPARED, VALUES, ErrorReport, SpecTable
from ringrc.files import ConfigFile, emit_report_json
from ringrc.reporting import emit_binning, emit_report
from ringrc.simulator import simulate_step

# Text built from the grammar's own pieces, so generated files get past the
# declarations and reach the number, unit, column and record checks.
NUMBERS = st.sampled_from(
    ["0", "-1", "2", "64", "100", "81.66", "891.50", "0.9", "1e400", "-1e400",
     "1.7e308", "-1.7e308", "inf", "-inf", "nan", "1e-320", "0x10", "1_0", ""]
) | st.floats().map(repr) | st.integers().map(str)
WORDS = st.sampled_from(
    ["1W1S", "1W2S", "FO1", "FO2", "FO3", "in_phase", "quiet", "out_of_phase",
     "D1", "<blank>", "die", "geometry", "tosc", "ieff", "#", "=", ",", "\t"]
)
TOKENS = NUMBERS | WORDS | st.text(max_size=6)
POSITIVE = st.sampled_from(["81.66", "891.50", "0.9", "2", "64", "100"]) | NUMBERS
FANOUTS = st.sampled_from(["FO1", "FO2", "FO3"])
MODES = st.sampled_from(["in_phase", "quiet", "out_of_phase", "Quiet"])
GEOMETRIES = st.sampled_from(["1W1S", "1W2S", "", " 1W1S "])

VALID_HEADERS = st.sampled_from(
    [["units: tosc=ns current=uA", "columns: geometry fanout mode tosc ieff"],
     ["units: tosc=ps current=A", "columns: die geometry fanout mode tosc idda iddq"]]
)
MEASUREMENT_HEADERS = VALID_HEADERS | st.lists(
    st.sampled_from(
        ["units: tosc=ns current=uA", "units: tosc=ps current=A",
         "units: tosc=ns", "units: tosc=parsec current=uA", "units: ",
         "columns: geometry fanout mode tosc ieff",
         "columns: die geometry fanout mode tosc idda iddq",
         "columns: geometry fanout mode tosc", "columns: geometry geometry",
         "columns: die geometry fanout mode tosc ieff idda"]
    )
    | st.text(max_size=30).map(lambda t: "units:" + t)
    | st.text(max_size=30).map(lambda t: "columns:" + t),
    max_size=3,
)
MEASUREMENT_ROWS = st.lists(
    st.tuples(GEOMETRIES, FANOUTS, MODES, POSITIVE, POSITIVE)
    | st.tuples(TOKENS, GEOMETRIES, FANOUTS, MODES, POSITIVE, POSITIVE, POSITIVE)
    | st.lists(TOKENS, max_size=8),
    max_size=8,
).map(lambda rows: [",".join(row) for row in rows])
MEASUREMENT_TEXT = st.text() | st.builds(
    lambda head, rows: "\n".join(head + rows), MEASUREMENT_HEADERS, MEASUREMENT_ROWS
)

CONFIG_KEYS = st.sampled_from(
    ["v_dd", "rsw_mode", "threshold_fraction", "segments",
     "line.1W1S.r_ohm", "line.1W1S.c_ff", "line.1W1S.cc_ff",
     "cap.1W1S.c_ta_ff", "cap.1W1S.c_ba_ff", "cap.1W1S.c_ft_ff",
     "cap.1W1S.c_fb_ff", "cap.1W1S.c_c_ff", "spec.1W1S.c_total_ff",
     "spec.1W1S.c_gate_ff", "spec.1W1S.c_int_ff", "spec.1W1S.c_c_ff",
     "spec.1W1S.r_sw_ohm", "line.1W1S.bogus", "line..r_ohm", "noise_sigma"]
) | st.text(max_size=12)
CONFIG_TEXT = st.text() | st.builds(
    lambda n, m, v_dd, rest: "\n".join(
        [f"n = {n}", f"m = {m}", f"v_dd = {v_dd}"]
        + [f"{key} = {value}" for key, value in rest]
    ),
    st.sampled_from(["100", "64", "1", "0"]) | NUMBERS,
    st.sampled_from(["100", "64", "1", "0"]) | NUMBERS,
    POSITIVE,
    st.lists(
        st.tuples(CONFIG_KEYS, MODES | POSITIVE),
        max_size=14,
        unique_by=lambda kv: kv[0],
    ),
)


@settings(deadline=None, max_examples=200)
@given(MEASUREMENT_TEXT)
def test_parse_measurements_raises_only_ringrc_errors(text):
    """Malformed measurement text fails with a documented error, never
    with a bare Python exception."""
    try:
        parse_measurements(text)
    except RingRcError:
        pass


@settings(deadline=None, max_examples=200)
@given(CONFIG_TEXT)
def test_parse_config_raises_only_ringrc_errors(text):
    """Malformed configuration text fails with a documented error."""
    try:
        parse_config(text)
    except RingRcError:
        pass


#: spec.<geometry>.<key> -> the ParasiticSet field it sets and its scale to SI
SPEC_KEYS = {"c_total_ff": ("c_total", 1e-15), "c_gate_ff": ("c_gate", 1e-15),
             "c_int_ff": ("c_int", 1e-15), "c_c_ff": ("c_c", 1e-15), "r_sw_ohm": ("r_sw", 1.0)}
CAP_FIELDS = ("c_ta", "c_ba", "c_ft", "c_fb", "c_c")
#: Dotted keys of two or four parts: no section's, so unknown keys
MISSHAPEN_KEYS = ("line.{}", "cap.{}", "spec.{}", "line.{}.r_ohm.x", "cap.{}.c_ta_ff.0",
                  "spec.{}.c_c_ff.ff")
UNKNOWN_KEY = ("line {}: unknown key {!r} ignored; known keys: n, m, v_dd, threshold_fraction, "
               "segments, line.<geometry>.<field>, cap.<geometry>.<field>, spec.<geometry>.<field>")


@st.composite
def config_files(draw):
    """Config text over every key of the three sections, with the ConfigFile
    it must parse to, built from the drawn values and each key's scale."""
    value = st.floats(1e-3, 1e6)
    geometry = st.sampled_from(["1W1S", "1W2S", "G", "w_3"])
    n, m, v_dd = draw(st.integers(3, 500)), draw(st.integers(1, 500)), draw(value)
    entries = [("n", str(n)), ("m", str(m)), ("v_dd", repr(v_dd))]
    threshold = draw(st.none() | st.floats(1e-9, 0.999))
    segments = draw(st.none() | st.integers(1, 500))
    entries += [(key, repr(x)) for key, x in
                (("threshold_fraction", threshold), ("segments", segments)) if x is not None]
    lines = {}
    for name in draw(st.lists(geometry, unique=True, max_size=3)):
        r = draw(value)
        entries.append((f"line.{name}.r_ohm", repr(r)))
        if draw(st.booleans()):
            c, c_c = draw(value), draw(value)
            entries += [(f"line.{name}.c_ff", repr(c)), (f"line.{name}.cc_ff", repr(c_c))]
            lines[name] = LineRC(r=r, c=c * 1e-15, c_c=c_c * 1e-15, v_dd=v_dd)
        else:
            parts = draw(st.tuples(*[value] * len(CAP_FIELDS)))
            entries += [(f"cap.{name}.{field}_ff", repr(x)) for field, x in zip(CAP_FIELDS, parts)]
            cap = CapacitanceSet(*(x * 1e-15 for x in parts))
            lines[name] = LineRC(r=r, c=cap.c_ground, c_c=cap.c_c, v_dd=v_dd)
    spec = {}
    for name in draw(st.lists(geometry, unique=True, max_size=3)):
        targets = draw(st.dictionaries(st.sampled_from(list(SPEC_KEYS)), value, min_size=1))
        entries += [(f"spec.{name}.{key}", repr(x)) for key, x in targets.items()]
        spec[name] = ParasiticSet(**{SPEC_KEYS[key][0]: x * SPEC_KEYS[key][1]
                                     for key, x in targets.items()})
    misshapen = draw(st.lists(st.builds(str.format, st.sampled_from(MISSHAPEN_KEYS), geometry),
                              unique=True, max_size=2))
    text, warnings, pad = [], [], st.sampled_from(["", " ", "\t "])
    for key, token in draw(st.permutations(entries + [(key, "1") for key in misshapen])):
        text += draw(st.lists(st.sampled_from(["", "   ", "# a comment"]), max_size=1))
        if key in misshapen:
            warnings.append(UNKNOWN_KEY.format(len(text) + 1, key))
        spelled = ".".join(draw(pad) + part + draw(pad) for part in key.split("."))
        text.append(spelled + draw(st.sampled_from(["=", " = ", "\t=  "])) + token
                    + draw(st.sampled_from(["", "  # a note", "#"])))
    config = ConfigFile(n=n, m=m, v_dd=v_dd,
                        threshold_fraction=0.5 if threshold is None else threshold,
                        segments=50 if segments is None else segments, lines=lines,
                        spec=SpecTable(spec), warnings=tuple(warnings))
    return "\n".join(text), config


@settings(deadline=None, max_examples=100)
@given(config_files())
def test_config_round_trips(case):
    """Every section key, in the line or the cap form, with any spec targets,
    in any order among comments and blank lines, with blanks around its
    dotted parts, parses to the values it gives times its scale; a dotted key
    of two or four parts is a warning."""
    text, config = case
    assert parse_config(text) == config


def positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=50)
@given(
    r=positive(10.0, 1e4),
    c=positive(1e-17, 1e-13),
    cc_ratio=positive(0.0, 5.0),
    v_dd=positive(0.3, 2.0),
    mode=st.sampled_from(list(CrosstalkMode)),
)
def test_lump_victim_matches_exact_responses(r, c, cc_ratio, v_dd, mode):
    """The single-lump oracle equals the exact in-phase, quiet and
    out-of-phase victim responses to 1e-12 of the rail."""
    line = LineRC(r=r, c=c, c_c=cc_ratio * c, v_dd=v_dd)
    victim = simulate_step(
        build_network(line, 1), DrivePattern.for_mode(mode, v_dd)
    ).victim
    t = victim.times
    if mode is CrosstalkMode.OUT_OF_PHASE:
        want = v_dd * (
            1.0
            + np.exp(-t / line.tau_ground) / 3.0
            - 4.0 / 3.0 * np.exp(-t / line.tau_coupled)
        )
    else:
        want = step_response_victim(mode, line, t)
    assert np.max(np.abs(victim.values - want)) <= 1e-12 * v_dd


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(3, 1000),
    m=st.integers(1, 1024),
    r_sw=positive(10.0, 1e4),
    c_gate=positive(1e-17, 1e-13),
    c_int=positive(1e-17, 1e-13),
    cc_ratio=positive(0.4, 5.0),
)
def test_in_phase_records_use_charge_balance_delay(
    n, m, r_sw, c_gate, c_int, cc_ratio
):
    """Every in-phase synthesized record's period is exactly that of the
    stage delay r_sw * (c_int + k c_gate), k gate loads per stage."""
    config = RoConfig(n=n, m=m, v_dd=0.9)
    # c_c above a third of the FO2 load keeps the out-of-phase delay defined
    c_c = cc_ratio * (c_int + 2.0 * c_gate)
    truth = SynthesisTruth(r_sw=r_sw, c_gate=c_gate, c_int=c_int, c_c=c_c)
    in_phase = [
        rec
        for rec in synthesize_measurements(truth, config)
        if rec.mode is CrosstalkMode.IN_PHASE
    ]
    assert [rec.fanout for rec in in_phase] == [Fanout.FO1, Fanout.FO2]
    for k, rec in enumerate(in_phase, start=1):
        assert rec.t_osc == counter_period(config, r_sw * (c_int + k * c_gate))


# Report values: any finite float small enough that relative errors and
# delay products stay finite, so strict JSON can hold them.
FINITE = st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False)
LABELS = st.text("ABDSW12_-<> ", max_size=6)
#: CSV display unit -> scale from the SI value the JSON holds.
UNIT_SCALE = {"ohm": 1.0, "fF": 1e15}
#: One die's ExtractionResult after the geometry: its seven values and its
#: label (which fixes the provenance labels).
RESULT_FIELDS = st.tuples(*[FINITE] * 7, LABELS)
#: Per geometry: no comparison, or the ParasiticSet targets (full, partial
#: or empty).
COMPARISON = st.none() | st.tuples(*[st.none() | st.floats(1e-30, 1e30)] * 5)


@settings(deadline=None, max_examples=100)
@given(
    st.dictionaries(
        LABELS, st.tuples(RESULT_FIELDS, COMPARISON), min_size=1, max_size=4
    )
)
def test_extraction_report_round_trips(drawn):
    """JSON emit -> parse -> emit is byte-identical, and every CSV
    extracted cell and text value row is the JSON value in display units."""
    results, comparisons = {}, {}
    for geometry, (fields, target_values) in drawn.items():
        *values, die = fields
        results[geometry] = ExtractionResult(geometry, np.array([die], dtype=object),
                                             *np.array(values)[:, None])
        if target_values is not None:
            spec = ParasiticSet(*target_values)
            comparisons[geometry] = compare_to_spec(results[geometry].one(), spec)
    text = emit_report(results, comparisons, "json")
    payload = parse_report(text)
    assert emit_report_json(payload) == text
    rows = emit_report(results, comparisons, "csv").splitlines()[1:]
    values = [row.split(",") for row in rows if ",delay_product," not in row]
    assert len(values) == 7 * len(results)
    # text value rows ("  name  value unit") come in the CSV's row order
    table = [
        line.split()
        for line in emit_report(results, comparisons, "text").splitlines()
    ]
    shown = [cells[1] for cells in table if len(cells) == 3 and cells[2] in UNIT_SCALE]
    assert len(shown) == len(values)
    for (geometry, name, unit, extracted, *_), text_value in zip(values, shown):
        value = payload["geometries"][geometry]["extraction"][name] * UNIT_SCALE[unit]
        assert extracted == f"{value:.6g}"
        fixed = value == 0 or 0.01 <= abs(value) < 1e6
        assert text_value == (f"{value:.2f}" if fixed else f"{value:.6g}")


#: Binning CSV column -> (JSON field, scale from the SI value).
BIN_COLUMNS = {
    "r_sw_ohm": ("r_sw", 1.0),
    "c_total_ff": ("c_total", 1e15),
    "delay_proxy_ps": ("delay_proxy", 1e12),
    "scale": ("scale", 1.0),
    "normalized_runtime": ("normalized_runtime", 1.0),
    "improvement_pct": ("improvement", 100.0),
}


@settings(deadline=None, max_examples=100)
@given(
    st.dictionaries(
        LABELS,
        st.tuples(positive(1e-3, 1e6), positive(1e-18, 1e-12)),
        min_size=1,
        max_size=12,
    )
)
def test_binning_report_round_trips(dies):
    """Binning JSON round-trips byte-identically and each CSV cell is the
    matching JSON field in display units."""
    r_sw, c_total = np.array(list(dies.values())).T
    zeros = np.zeros(len(dies))
    lot = ExtractionResult("1W1S", np.array(list(dies), dtype=object), r_sw, zeros, zeros,
                           zeros, c_total, zeros, zeros)
    report = monitor_binning(lot)
    text = emit_binning(report, "json")
    payload = parse_report(text)
    assert emit_report_json(payload) == text
    header, *rows = emit_binning(report, "csv").splitlines()
    columns = header.split(",")
    assert len(rows) == len(dies)
    for row, entry in zip(rows, payload["binning"]["bins"]):
        cells = dict(zip(columns, row.split(",")))
        assert cells["die"] == entry["die"]
        assert cells["geometry"] == payload["binning"]["geometry"]
        for column, (field, scale) in BIN_COLUMNS.items():
            assert cells[column] == f"{entry[field] * scale:.6g}"


# ---------------------------------------------------------------------------
# one display rule for every number a person reads

#: Any finite value in a display unit (ohm, fF, ps, percent or a plain ratio).
SHOWN = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
#: Per compared name: its target and its error (%), both in display units.
COMPARED_SHOWN = st.dictionaries(st.sampled_from([value.name for value in COMPARED]),
                                 st.tuples(SHOWN, SHOWN))
#: Lump threshold delays (s) of the bundled config with line.1W1S.r_ohm = 1e100
#: and with line.1W2S.r_ohm = 1e-12, from in-phase to out-of-phase.
HUGE_R_DELAYS = (4.57477e85, 1.21981e86, 2.97907e86)
TINY_R_DELAYS = (4.29751e-27, 1.19851e-26, 3.00487e-26)


def _assert_shown(fields, values, rel=1e-5):
    """Each number field is at most 13 characters, finite, reads 0 only for
    a value of 0 and is the value to the precision it shows."""
    assert len(fields) == len(values)
    for field, value in zip(fields, values):
        shown = float(field)
        assert len(field) <= 13 and np.isfinite(shown), field
        assert (shown == 0) == (value == 0), (field, value)
        assert shown == pytest.approx(value, rel=rel, abs=0.005), (field, value)


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(
    st.sampled_from(["1W1S", "1W2S"]),
    st.tuples(st.tuples(*[SHOWN] * 7), st.none() | st.tuples(COMPARED_SHOWN, st.none() | SHOWN)),
    min_size=1,
))
def test_report_numbers_follow_the_display_rule(drawn):
    """Random finite values in every number column of the report: each
    text and CSV number field follows _shown's rule."""
    results, comparisons, text_values, csv_values = {}, {}, [], []
    for geometry in sorted(drawn):
        shown, comparison = drawn[geometry]
        si = [value / scale for value, (_, _, scale, _) in zip(shown, VALUES)]
        results[geometry] = ExtractionResult(geometry, np.array([""], dtype=object),
                                             *np.array(si)[:, None])
        extracted = {name: value * scale for value, (name, _, scale, _) in zip(si, VALUES)}
        text_values += extracted.values()
        if comparison is None:
            csv_values += extracted.values()
            continue
        compared, delay_pct = comparison
        scales = {name: scale for name, _, scale, _ in COMPARED}
        targets = {name: target / scales[name] for name, (target, _) in compared.items()}
        errors = {name: error / 100.0 for name, (_, error) in compared.items()}
        delay_error = None if delay_pct is None else delay_pct / 100.0
        comparisons[geometry] = ErrorReport(errors, delay_error, ParasiticSet(**targets))
        for name, value in extracted.items():
            csv_values.append(value)
            if name in compared:
                csv_values += [targets[name] * scales[name], errors[name] * 100.0]
        text_values += [value for name, _, _, _ in COMPARED if name in compared
                        for value in (extracted[name], targets[name] * scales[name],
                                      errors[name] * 100.0)]
        if delay_error is not None:
            text_values.append(delay_error * 100.0)
            csv_values.append(delay_error * 100.0)
    fields = []
    for line in emit_report(results, comparisons, "text").splitlines():
        cells = line.split()
        if len(cells) == 3 and cells[2] in UNIT_SCALE:  # "  name  value unit"
            fields.append(cells[1])
        elif len(cells) == 5 and cells[1] in ("(ohm)", "(fF)"):  # "  name (unit) x t e"
            fields += cells[2:]
        elif line.startswith("  delay product"):
            fields.append(cells[-2])
    _assert_shown(fields, text_values)
    rows = emit_report(results, comparisons, "csv").splitlines()[1:]
    _assert_shown([cell for row in rows for cell in row.split(",")[3:] if cell], csv_values)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(*[SHOWN] * 6), min_size=1, max_size=12))
def test_binning_numbers_follow_the_display_rule(dies):
    """Random finite values in every number column of a binning report:
    each text and CSV number field follows _shown's rule."""
    scales = (1.0, 1e15, 1e12, 1.0, 1.0, 100.0)
    columns = [np.array(column) / scale for column, scale in zip(zip(*dies), scales)]
    die = np.array([f"D{k}" for k in range(len(dies))], dtype=object)
    report = reporting.BinningReport("1W1S", die, *columns)
    values = [v for row in zip(*(c * s for c, s in zip(columns, scales))) for v in row]
    rows = emit_binning(report, "text").splitlines()[2:]
    _assert_shown([cell for row in rows for cell in row.split()[1:]], values)
    rows = emit_binning(report, "csv").splitlines()[1:]
    _assert_shown([cell for row in rows for cell in row.split(",")[2:]], values)


@settings(deadline=None, max_examples=100)
@given(st.tuples(*[SHOWN] * 3), st.tuples(*[SHOWN] * 3), SHOWN)
# the bundled lines with a huge and a tiny resistance: 98-digit delays, and 0.0000 ps
@example((4.9e-16, 6.2e-16, 8.6e-16), HUGE_R_DELAYS, 0.6059)
@example((8.6e-16, 3.7e-16, 6.2e-16), TINY_R_DELAYS, 0.6116)
def test_validation_numbers_follow_the_display_rule(deviations, delays, ratio):
    """Random finite deviations, delays and ratio: each number field of the
    validate text follows _shown's rule, the deviations in "%.2e"."""
    modes = list(AGGRESSOR_STEP)
    delays = [delay / 1e12 for delay in delays]
    entry = reporting.GeometryValidation("1W1S", dict(zip(modes, deviations)),
                                         dict(zip(modes, delays)), 50, ratio)
    text = reporting.format_validation_text(reporting.ValidationOutcome((entry,)))
    _assert_shown(re.findall(r"max deviation (\S+) of", text), deviations, rel=5e-3)
    _assert_shown(re.findall(r"(\S+) ps\b", text), [delay * 1e12 for delay in delays])
    _assert_shown(re.findall(r"delay: (\S+) \[", text), [ratio])


# ---------------------------------------------------------------------------
# the parser's first-fault rule

#: Valid rows of a three-die, two-geometry file: (die, geometry, fanout,
#: mode, tosc ns, ieff uA), on lines 3, 4, ...
VALID_ROWS = [
    (die, geometry, fanout.value, mode.value, f"{80.0 + 3.0 * k:.2f}", "900.5")
    for die in ("D2", "", "D1")
    for geometry in ("1W1S", "1W2S")
    for k, (fanout, mode) in enumerate(
        (fanout, mode) for fanout in Fanout for mode in CrosstalkMode
    )
]
FIRST_ROW_LINE = 3


def _inject(rows, index, kind):
    """Row `index` with one fault of the given kind, and the message
    fragment the parser reports for it."""
    die, geometry, fanout, mode, tosc, ieff = rows[index]
    if kind == "mode":
        return (die, geometry, fanout, "sideways", tosc, ieff), "unknown mode 'sideways'"
    if kind == "fanout":
        return (die, geometry, "FO3", mode, tosc, ieff), "unknown fanout 'FO3'"
    if kind == "field count":
        return rows[index] + ("1",), "expected 6 fields"
    if kind == "not a number":
        return (die, geometry, fanout, mode, tosc, "12x"), "ieff: not a number: '12x'"
    if kind == "not finite":
        return (die, geometry, fanout, mode, "inf", ieff), "tosc: not a finite number"
    if kind == "not positive":
        return (die, geometry, fanout, mode, "-0.0", ieff), "t_osc must be finite and > 0"
    # duplicate: the key of the first row, which comes earlier
    first = rows[0]
    label = "/".join(part for part in first[:4] if part)
    return first[:4] + (tosc, ieff), f"duplicate record {label!r}"


FAULT_KINDS = ("mode", "fanout", "field count", "not a number", "not finite",
               "not positive", "duplicate")


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(1, len(VALID_ROWS) - 1), st.sampled_from(FAULT_KINDS)),
        min_size=1,
        max_size=5,
        unique_by=lambda fault: fault[0],
    )
)
def test_parser_reports_the_first_faulty_line(faults):
    """With faults of any kind on any rows, the parser reports the first
    faulty line, with that fault's message."""
    rows = list(VALID_ROWS)
    messages = {}
    for index, kind in faults:
        rows[index], messages[index] = _inject(VALID_ROWS, index, kind)
    text = (
        "units: tosc=ns current=uA\ncolumns: die geometry fanout mode tosc ieff\n"
        + "".join(",".join(row) + "\n" for row in rows)
    )
    first = min(messages)
    try:
        parse_measurements(text)
    except ParseError as exc:
        assert exc.line == FIRST_ROW_LINE + first
        assert messages[first] in str(exc)
    else:
        raise AssertionError("a faulty file parsed")


@settings(deadline=None, max_examples=100)
@given(st.integers(1, len(VALID_ROWS) - 1), st.sampled_from(FAULT_KINDS))
def test_bulk_parser_defers_every_fault(index, kind):
    """On a faulty file the bulk parser returns no table, so the row rules
    run and name the first faulty line."""
    rows = list(VALID_ROWS)
    rows[index], _ = _inject(VALID_ROWS, index, kind)
    text = (
        "units: tosc=ns current=uA\ncolumns: die geometry fanout mode tosc ieff\n"
        + "".join(",".join(row) + "\n" for row in rows)
    )
    assert _bulk(text) is None


def test_bulk_parser_defers_faults_a_field_total_hides():
    """Faults that leave a chunk's fields in a valid sequence still defer
    to the row rules: a row whose last field opens the next row, and a row
    that starts like a declaration."""
    short, long = VALID_ROWS[3][:-1], VALID_ROWS[3][-1:] + VALID_ROWS[4]
    declared = ("units:x",) + VALID_ROWS[3][1:]
    for rows, message in [
        ((short, long), "line 6: expected 6 fields"),
        ((declared, VALID_ROWS[4]), "line 6: duplicate units declaration"),
    ]:
        text = "units: tosc=ns current=uA\ncolumns: die geometry fanout mode tosc ieff\n" + "".join(
            ",".join(row) + "\n" for row in VALID_ROWS[:3] + list(rows) + VALID_ROWS[5:])
        assert _bulk(text) is None
        try:
            parse_measurements(text)
        except ParseError as exc:
            assert str(exc).startswith(message)
        else:
            raise AssertionError("a faulty file parsed")


# ---------------------------------------------------------------------------
# the bulk parser gives the table the row rules give


def _bulk(text):
    lines = iter(text.splitlines())
    units, columns, _, first = files._declarations(lines)
    return files._parse_bulk(itertools.chain([first], lines), units, columns)


def _rows(text):
    lines = iter(text.splitlines())
    units, columns, start, first = files._declarations(lines)
    return files._parse_rows(itertools.chain([first], lines), units, columns, start)


def assert_same_table(got, want):
    """Every column equal, with the same dtype and element types."""
    assert list(vars(got)) == list(vars(want)) == [
        "die", "geometry", "fanout", "mode", "t_osc", "i_eff"]
    for name in vars(want):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name
        assert list(map(type, a.tolist())) == list(map(type, b.tolist())), name


#: Labels as the parser keeps them: no comma, comment or outer whitespace.
CLEAN_LABELS = st.text("ABDSW12_-<>. ", max_size=5).map(str.strip)
PADDING = st.sampled_from(["", "", " ", "\t", " \t "])
AMOUNTS = st.floats(1e-3, 1e6).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.6g}", f"{x:.3e}", str(int(x) + 1)]))
FILLERS = st.sampled_from(["", "   ", "# a comment", "\t# indented, with a comma", "#"])


@st.composite
def valid_measurement_files(draw):
    """Measurement text every row of which is valid, laid out in any of
    the ways the grammar allows."""
    currents = draw(st.sampled_from([["ieff"], ["idda", "iddq"]]))
    labelled = draw(st.booleans())
    columns = draw(st.permutations(
        ["die"] * labelled + ["geometry", "fanout", "mode", "tosc"] + currents))
    keys = draw(st.lists(
        st.tuples(CLEAN_LABELS if labelled else st.just(""), CLEAN_LABELS,
                  st.sampled_from(Fanout), st.sampled_from(CrosstalkMode)),
        min_size=1, max_size=60, unique=True))
    lines = [draw(FILLERS),
             "units: " + draw(st.sampled_from(
                 ["tosc=ns current=uA", "tosc=s current=A", "current=mA tosc=ps"])),
             "columns: " + " ".join(columns)]
    for die, geometry, fanout, mode in keys:
        iddq = draw(st.floats(0.0, 1.0))
        ieff = draw(AMOUNTS)
        value = {"die": die, "geometry": geometry, "fanout": fanout.value,
                 "mode": mode.value, "tosc": draw(AMOUNTS), "ieff": ieff,
                 "iddq": repr(iddq), "idda": repr(float(ieff) + iddq)}
        row = ",".join(draw(PADDING) + value[name] + draw(PADDING) for name in columns)
        if draw(st.booleans()):
            lines.append(draw(FILLERS))
        lines.append(row + draw(st.sampled_from(["", "  # note", "#x,y"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline * draw(st.booleans())


@settings(deadline=None, max_examples=150)
@given(valid_measurement_files())
def test_bulk_parser_agrees_with_the_row_rules(text):
    """Valid files give the same table, column by column with dtypes,
    from the bulk parser, the row rules and parse_measurements."""
    want = _rows(text)
    assert_same_table(_bulk(text), want)
    assert_same_table(parse_measurements(text), want)


def test_bulk_parser_across_a_chunk_boundary():
    """A file longer than one chunk, with a comment line closing the first
    chunk and a blank line opening the second, parses in bulk as the row
    rules parse it."""
    rows = [
        f"D{k:04d},1W1S,{fanout.value},{mode.value},{80 + k % 7}.25,{900 + k % 5}.5"
        for k in range(files._CHUNK_ROWS // 6 + 10)
        for fanout in Fanout for mode in CrosstalkMode
    ]
    head = ["units: tosc=ns current=uA", "columns: die geometry fanout mode tosc ieff"]
    first = files._CHUNK_ROWS - 1  # data rows before the comment in the first chunk
    lines = head + rows[:first] + ["# closes the first chunk", ""] + rows[first:]
    text = "\n".join(lines) + "\n"
    bulk = _bulk(text)
    assert bulk is not None
    assert_same_table(bulk, _rows(text))
    assert_same_table(parse_measurements(text), _rows(text))
    assert len(bulk) == len(rows) > files._CHUNK_ROWS
    boundary = len(head) + files._CHUNK_ROWS
    assert lines[boundary - 1 : boundary + 1] == ["# closes the first chunk", ""]


# ---------------------------------------------------------------------------
# a file read block by block parses as its whole text does


@st.composite
def streamed_files(draw):
    """Measurement text, with its file's byte-order mark, that may hold a
    form feed or a line separator inside a row, a duplicate of an earlier
    row or a faulty last row; and block, chunk and bulk sizes small enough
    that blocks and chunks end anywhere, inside a CRLF too."""
    text = draw(valid_measurement_files())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["\x0c", "\u2028"])) + text[at:]
    rows = [line for line in text.splitlines()[3:] if files._strip(line)]
    if rows and draw(st.booleans()):
        text += ("\n" if text.endswith(("\n", "\r")) else "\r\n") + draw(st.sampled_from(rows))
    if draw(st.booleans()):
        text += "\nfast" * draw(st.integers(1, 2))
    sizes = {"_BLOCK_CHARS": draw(st.integers(1, 64)), "_CHUNK_ROWS": draw(st.integers(1, 9)),
             "_BULK_MIN_LINES": draw(st.sampled_from([1, 2, 7, files._BULK_MIN_LINES]))}
    return text, draw(st.booleans()), sizes


def _outcome(parse, source):
    """The table parse gives, or its ParseError's message and line."""
    try:
        return parse(source)
    except ParseError as exc:
        return str(exc), exc.line


@settings(deadline=None, max_examples=200)
@given(streamed_files())
def test_reading_a_file_gives_what_parsing_its_text_gives(case):
    """read_measurements streams a file through the parser block by block
    and chunk by chunk; its table, or its error's message and line, is
    parse_measurements' on the file's text, whatever the line endings."""
    text, bom, sizes = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for name, value in sizes.items():
            patch.setattr(files, name, value)
        path = pathlib.Path(tmp, "m.csv")
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        got = _outcome(files.read_measurements, str(path))
        want = _outcome(parse_measurements, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_table(got, want)


# ---------------------------------------------------------------------------
# a lot extracts as its dies do one at a time

CONFIG = RoConfig(n=100, m=64, v_dd=0.9)
#: What may be wrong with one die's records.
DEFECTS = st.sampled_from(
    [None, None, None, "no quiet", "no FO2", "FO2 too fast", "FO2 too slow",
     "out-of-phase too fast"]
)


def _die_rows(die, truth, noise, defect):
    rows = []
    for rec in synthesize_measurements(truth, CONFIG):
        scale = 1.0 + noise
        if defect == "FO2 too fast" and rec.fanout is Fanout.FO2:
            scale = 0.5
        elif defect == "FO2 too slow" and rec.fanout is Fanout.FO2:
            scale = 4.0
        elif defect == "out-of-phase too fast" and rec.mode is CrosstalkMode.OUT_OF_PHASE:
            scale = 0.1
        if (defect == "no quiet" and rec.mode is CrosstalkMode.QUIET) or (
            defect == "no FO2" and rec.fanout is Fanout.FO2
        ):
            continue
        rows.append(rec._replace(die=die, t_osc=rec.t_osc * scale))
    return rows


@settings(deadline=None, max_examples=100)
@given(
    st.dictionaries(
        LABELS,
        st.tuples(
            positive(100.0, 1000.0),
            positive(1.0, 5.0),
            positive(3.0, 10.0),
            positive(0.4, 1.8),
            positive(-1e-3, 1e-3),
            DEFECTS,
        ),
        min_size=1,
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_lot_extraction_equals_each_die_alone(dies, random):
    """Extracting a lot gives every die's row, bit for bit, the values of
    its own one-die result; a failing lot raises, prefixed with the die,
    the error of the first die in sorted order that fails alone."""
    rows = []
    for die, (r_sw, c_gate, c_int, cc_ratio, noise, defect) in dies.items():
        truth = SynthesisTruth(
            r_sw=r_sw,
            c_gate=c_gate * 1e-15,
            c_int=c_int * 1e-15,
            c_c=cc_ratio * (c_int + 2.0 * c_gate) * 1e-15,
        )
        rows += _die_rows(die, truth, noise, defect)
    random.shuffle(rows)
    lot = Measurements.from_records(rows)
    alone = {}
    for die in sorted(dies):
        try:
            alone[die] = extract_all(lot.where("die", die), CONFIG)
        except (NumericError, ValidationError) as exc:
            alone[die] = exc
    failures = [die for die in sorted(dies) if isinstance(alone[die], Exception)]
    try:
        results = extract_all(lot, CONFIG)
    except (NumericError, ValidationError) as exc:
        assert failures, exc
        want = alone[failures[0]]
        assert type(exc) is type(want)
        prefix = f"die {failures[0] or '<blank>'}: " if len(dies) > 1 else ""
        assert str(exc) == f"{prefix}{want}"
    else:
        assert not failures
        assert results.die.tolist() == sorted(dies)
        for row, die in enumerate(results.die):
            got = np.array([getattr(results, name)[row] for name in EXTRACTED])
            assert alone[die].die.tolist() == [die]
            assert got.tobytes() == np.array(list(alone[die].one().values())).tobytes()
            want = _scalar_extraction([r for r in rows if r.die == die])
            assert got.tobytes() == np.array(want).tobytes()


EXTRACTED = ("r_sw", "c_s", "c_gate", "c_int", "c_total", "c_ground", "c_c")


def _scalar_extraction(rows):
    """One die's values from the formulas on Python floats, record by
    record: the reference the array path must match bit for bit."""
    by_key = {(r.fanout, r.mode): r for r in rows}
    inp_fo1, inp_fo2, oop_fo1, quiet_fo1 = (
        by_key[(fanout, mode)]
        for fanout, mode in ((Fanout.FO1, CrosstalkMode.IN_PHASE),
                             (Fanout.FO2, CrosstalkMode.IN_PHASE),
                             (Fanout.FO1, CrosstalkMode.OUT_OF_PHASE),
                             (Fanout.FO1, CrosstalkMode.QUIET))
    )
    r_sw = switching_resistance(inp_fo1.i_eff, CONFIG.v_dd)
    c_gate = gate_capacitance(inp_fo1.t_osc, inp_fo2.t_osc, r_sw, CONFIG)
    c_int = interconnect_capacitance(inp_fo1.t_osc, inp_fo2.t_osc, r_sw, CONFIG)
    t_o = oop_fo1.t_osc / CONFIG.period_scale
    t_q = quiet_fo1.t_osc / CONFIG.period_scale
    return [r_sw, stage_capacitance(inp_fo1.t_osc, inp_fo1.i_eff, CONFIG), c_gate,
            c_int, c_gate + c_int, ground_capacitance(t_o, t_q, r_sw),
            coupling_capacitance(t_o, t_q, r_sw)]


# ---------------------------------------------------------------------------
# extreme magnitudes through the command line

#: Positive floats from the smallest subnormal to the largest finite value.
MAGNITUDES = st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                       st.floats(1.0, 9.99), st.integers(-323, 307))
MAGNITUDES |= st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
#: The bundled 1W1S records (fanout, mode, t_osc, i_eff), relative to FO1 in-phase.
RATIOS = (
    ("FO1", "in_phase", 1.0, 1.0),
    ("FO1", "out_of_phase", 88.39 / 81.66, 990.63 / 891.50),
    ("FO1", "quiet", 82.31 / 81.66, 503.47 / 891.50),
    ("FO2", "in_phase", 101.35 / 81.66, 1388.00 / 891.50),
)
#: One die: a t_osc and an i_eff scale for those records, and up to two
#: (record, column) cells replaced by a magnitude of their own.
EXTREME_DIE = st.tuples(
    MAGNITUDES,
    MAGNITUDES,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 1)), MAGNITUDES,
                    max_size=2),
)


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, float):
        yield node


def _extreme_die(t_in_fo1, t_in_fo2, t_oop_fo1, t_quiet_fo1, i_eff):
    """An EXTREME_DIE of these periods (s) and one current (A) for every record."""
    cells = {(1, 0): t_oop_fo1, (2, 0): t_quiet_fo1, (3, 0): t_in_fo2}
    return t_in_fo1, i_eff, {**cells, **{(record, 1): i_eff for record in (1, 2, 3)}}


#: Finite values past their display unit: capacitances past the largest
#: float in fF (a), errors past it in percent (b), a delay proxy past it in ps (c).
PAST_FF = _extreme_die(1e150, 1.5e150, 1.2e150, 1.1e150, 1e150)
PAST_PERCENT = _extreme_die(1e148, 1.24e148, 1.08e148, 1.01e148, 5.76e148)
PAST_PS = _extreme_die(1e301, 1.24e301, 1.08e-8, 1.01e-8, 1e-4)
#: A whole `inf` or `nan` token, as Python's and numpy's formatting print them.
NON_FINITE = re.compile(r"\b(?:inf|nan)\b", re.IGNORECASE)


@settings(deadline=None, max_examples=150)
@given(st.lists(EXTREME_DIE, min_size=1, max_size=2), st.sampled_from(["extract", "report"]))
# a relative error against a target overflows; a delay proxy underflows
@example([(1.0, 1e299, {})], "report")
@example([(81.66e-9, 891.5e-6, {}),
          (1e-318, 4.5e299, {(1, 0): 88.39e-9, (2, 0): 82.31e-9})], "report")
# finite values past their display unit; a 2-die lot runs `binning` whatever the command
@example([PAST_FF], "extract")
@example([PAST_PERCENT], "report")
@example([PAST_PS, PAST_PS], "report")
def test_extreme_magnitudes_end_in_a_documented_exit(dies, command):
    """Periods and currents anywhere in the float range make `extract` or
    `report` on one die and `binning` on a 2-die lot exit 0, 3 or 4 with no
    Python warning, the same code in text, CSV and JSON. On exit 0 no report
    shows an inf or nan and the JSON round-trips; otherwise one `error:` line
    is printed, after `report`'s warning about the unmeasured 1W2S, and no
    report is written."""
    lines = ["units: tosc=s current=A", "columns: die geometry fanout mode tosc ieff"]
    for index, (t_scale, i_scale, cells) in enumerate(dies):
        for record, (fanout, mode, t_ratio, i_ratio) in enumerate(RATIOS):
            values = [cells.get((record, 0), t_scale * t_ratio),
                      cells.get((record, 1), i_scale * i_ratio)]
            t_osc, i_eff = np.clip(values, 5e-324, np.finfo(float).max).tolist()
            lines.append(f"D{index},1W1S,{fanout},{mode},{t_osc!r},{i_eff!r}")
    config = importlib.resources.files("ringrc").joinpath("data", "config_28nm.cfg")
    # `report` first warns that no row names the configured 1W2S
    warned = "warning: no measurement row names configured geometry '1W2S'\n"
    warned = warned if command == "report" and len(dies) == 1 else ""
    command = [command] if len(dies) == 1 else ["binning", "--geometry", "1W1S"]
    codes, texts = set(), {}
    with tempfile.TemporaryDirectory() as tmp:
        measurements = pathlib.Path(tmp, "m.csv")
        measurements.write_text("\n".join(lines) + "\n")
        for fmt in ("text", "csv", "json"):
            out = pathlib.Path(tmp, f"r.{fmt}")
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main([*command, "--config", str(config), "--measurements",
                             str(measurements), "--format", fmt, "--out", str(out)])
            assert caught == []
            assert stderr.getvalue().startswith(warned)
            err = stderr.getvalue()[len(warned):]
            codes.add(code)
            if code:
                assert err.startswith("error: ")
                assert err.count("\n") == 1
                assert not out.exists()
            else:
                texts[fmt] = out.read_text()
    assert len(codes) == 1 and codes <= {0, 3, 4}, codes
    if codes == {0}:
        assert not any(NON_FINITE.search(text) for text in texts.values())
        payload = parse_report(texts["json"])
        assert emit_report_json(payload) == texts["json"]
        assert all(np.isfinite(list(_numbers(payload))))


#: The bundled config's lines and, for each numeric key, the line that sets it.
BUNDLED_CONFIG = importlib.resources.files("ringrc").joinpath("data", "config_28nm.cfg")
CONFIG_LINES = BUNDLED_CONFIG.read_text().splitlines()
KEY_LINES = {line.split("=")[0].strip(): index for index, line in enumerate(CONFIG_LINES)
             if "=" in line}
INTEGER_KEYS = ("n", "m", "segments")
#: Integer literals of every size up to 1e400, and small counts one by one.
INTEGERS = st.builds(lambda digit, exponent: digit * 10**exponent,
                     st.integers(1, 9), st.integers(0, 400)) | st.integers(0, 100)
#: One config key, one at a time, at a magnitude of its own. Segment counts
#: from 64 to 1e7 are left out: such a network solves for seconds or
#: allocates gigabytes, and its exit code is that of the counts around it.
SETTINGS = st.one_of(
    st.tuples(st.sampled_from(sorted(set(KEY_LINES) - set(INTEGER_KEYS))), MAGNITUDES.map(repr)),
    st.tuples(st.sampled_from(["n", "m"]), INTEGERS.map(str)),
    st.tuples(st.just("segments"), INTEGERS.filter(lambda k: not 64 <= k < 10**7).map(str)),
)
COMMANDS = st.just(("validate",)) | st.just(("report",)) | st.builds(
    lambda geometry, mode, segments: ("simulate", "--geometry", geometry, "--mode", mode,
                                      "--segments", str(segments)),
    st.sampled_from(["1W1S", "1W2S"]), st.sampled_from([m.value for m in CrosstalkMode]),
    st.integers(1, 3))


@settings(deadline=None, max_examples=500)
@given(SETTINGS, COMMANDS)
# 2 n m past the largest float; a node count past it; a threshold below rounding
@example(("n", "1" + "0" * 307), ("report",))
@example(("segments", "1" + "0" * 310), ("validate",))
@example(("threshold_fraction", "1e-300"), ("validate",))
# residues near 1e296 V times decay rates past 1e12 /s: the crossing search's slopes
@example(("v_dd", "1e+296"), ("validate",))
# a section conductance whose sum overflows; a section resistance that rounds to 0
@example(("line.1W2S.r_ohm", "2.2250738585072014e-308"),
         ("simulate", "--geometry", "1W2S", "--mode", "quiet", "--segments", "3"))
@example(("line.1W2S.r_ohm", "5e-324"),
         ("simulate", "--geometry", "1W2S", "--mode", "quiet", "--segments", "2"))
def test_every_config_key_at_any_magnitude_ends_in_a_documented_exit(setting, command):
    """Any one numeric config key at any magnitude makes `validate`,
    `simulate` and `report` exit 0, 3 or 4, with no traceback and no
    warning. A failure prints one `error:` line and writes no file; the
    one file a nonzero exit leaves is validate's report of a failed check."""
    key, value = setting
    lines = list(CONFIG_LINES)
    lines[KEY_LINES[key]] = f"{key} = {value}"
    with tempfile.TemporaryDirectory() as tmp:
        config, out = pathlib.Path(tmp, "c.cfg"), pathlib.Path(tmp, "out")
        config.write_text("\n".join(lines) + "\n")
        argv = [*command, "--config", str(config), "--out", str(out)]
        if command[0] == "report":
            argv += ["--measurements", str(BUNDLED_CONFIG.with_name("measurements_28nm.csv"))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        err = stderr.getvalue()
        assert caught == []
        assert code in (0, 3, 4)
        if err.startswith("error: "):
            assert code and err.count("\n") == 1
            assert not out.exists()
        else:
            assert err == f"wrote {out}\n"
            assert code == 0 or command[0] == "validate" and code == 3
            text = out.read_text()
            assert (code == 3) == text.endswith("overall: FAIL\n")


#: 11-significant-digit decimal ties and their neighbours, for "%.9e"
NEAR_TIES = st.builds(lambda k, e: (10 * k + 5) * 10.0**e,
                      st.integers(10**9, 10**10 - 1), st.integers(-40, 40))
#: half-cent ties for "%.2f", up to and past its 1e13 fast range
CENT_TIES = st.builds(lambda k, e: (2 * k + 1) * 0.005 * 10.0**e,
                      st.integers(0, 10**6), st.integers(0, 14))
FIELD = st.one_of(st.floats(), st.floats(-1e16, 1e16),
                  st.integers(-10**9, 10**9).map(lambda k: k / 1000), NEAR_TIES, CENT_TIES)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(FIELD, FIELD, FIELD, FIELD), min_size=1, max_size=16),
       st.sampled_from([b",,,\n", b",   "]))
# ties; products that round onto a half-integer (64.825 * 100 == 6482.5, and
# 0.23598690935 scaled to ten digits); mantissas that round into the next
# decade; the smallest subnormal and normal, ±0.0 and the largest float;
# three-digit exponents; "%.2f" at four-digit group edges, from 1e6 and from
# 1e13; non-finite values
@example([(0.125, 2.675, 1.005, 64.825), (291.755, 0.23598690935, 9.9999999995, 9.9999999995e-5),
          (9.99999999996, 9.99999999996e-5, 5e-324, 2.2250738585072014e-308),
          (0.0, -0.0, 1.7976931348623157e308, -1e-300), (1.5e100, 99.995, 99.99, 100.0),
          (-999999.995, 1e6, 12345678.9, -1234567890123.45),
          (9999999999999.99, 1e13, -12345678901234.5, 1e300),
          (float("inf"), float("-inf"), float("nan"), 7e-310)], b",,,\n")
def test_field_renderer_matches_percent_formatting(rows, separators):
    """The waveform emitters' two kernels write Python's `%.9e` and `%.2f`
    of any float64, each followed by its column's separator, byte for byte."""
    table = np.array(rows, dtype=np.float64)
    for kernel, fmt in ((reporting._scientific, "%.9e"), (reporting._fixed, "%.2f")):
        assert reporting._text(kernel(table, separators)) == "".join(
            fmt % value + separator
            for row in rows for value, separator in zip(row, separators.decode())
        )
