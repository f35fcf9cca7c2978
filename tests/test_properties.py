"""Property-based tests: parser robustness, the lump oracle on random lines
and report emission."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringrc import (
    CrosstalkMode,
    DrivePattern,
    ExtractionResult,
    LineRC,
    ParasiticSet,
    RingRcError,
    build_network,
    compare_to_spec,
    emit_binning,
    emit_report,
    emit_report_json,
    monitor_binning,
    parse_config,
    parse_measurements,
    parse_report,
    simulate_step,
    step_response_victim,
)

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


# Report values: any finite float small enough that relative errors and
# delay products stay finite, so strict JSON can hold them.
FINITE = st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False)
LABELS = st.text("ABDSW12_-<> ", max_size=6)
PROVENANCE = st.dictionaries(
    st.sampled_from(["r_sw", "c_s", "c_gate", "c_coupling", "x"]),
    st.lists(st.text(max_size=8), max_size=3).map(tuple),
    max_size=3,
)
#: CSV display unit -> scale from the SI value the JSON holds.
UNIT_SCALE = {"ohm": 1.0, "fF": 1e15}
#: ExtractionResult fields after the geometry: seven values, provenance.
RESULT_FIELDS = st.tuples(*[FINITE] * 7, PROVENANCE)
#: Per geometry: no comparison, or the ParasiticSet targets (full, partial
#: or empty) and whether they are passed to the report as well.
COMPARISON = st.none() | st.tuples(
    st.tuples(*[st.none() | st.floats(1e-30, 1e30)] * 5), st.booleans()
)


@settings(deadline=None, max_examples=100)
@given(
    st.dictionaries(
        LABELS, st.tuples(RESULT_FIELDS, COMPARISON), min_size=1, max_size=4
    )
)
def test_extraction_report_round_trips(drawn):
    """JSON emit -> parse -> emit is byte-identical, and every CSV
    extracted cell and text value row is the JSON value in display units."""
    results, comparisons, targets = {}, {}, {}
    for geometry, (fields, comparison) in drawn.items():
        results[geometry] = ExtractionResult(geometry, *fields)
        if comparison is not None:
            target_values, with_targets = comparison
            spec = ParasiticSet(*target_values)
            comparisons[geometry] = compare_to_spec(results[geometry], spec)
            if with_targets:
                targets[geometry] = spec
    text = emit_report(results, comparisons, targets, "json")
    payload = parse_report(text)
    assert emit_report_json(payload) == text
    rows = emit_report(results, comparisons, targets, "csv").splitlines()[1:]
    values = [row.split(",") for row in rows if ",delay_product," not in row]
    assert len(values) == 7 * len(results)
    # text value rows ("  name  value unit") come in the CSV's row order
    table = [
        line.split()
        for line in emit_report(results, comparisons, targets, "text").splitlines()
    ]
    shown = [cells[1] for cells in table if len(cells) == 3 and cells[2] in UNIT_SCALE]
    assert len(shown) == len(values)
    for (geometry, name, unit, extracted, *_), text_value in zip(values, shown):
        value = payload["geometries"][geometry]["extraction"][name] * UNIT_SCALE[unit]
        assert extracted == f"{value:.6g}"
        assert text_value == f"{value:.2f}"


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
    lot = {
        die: ExtractionResult("1W1S", r_sw, 0.0, 0.0, 0.0, c_total, 0.0, 0.0)
        for die, (r_sw, c_total) in dies.items()
    }
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
