"""Property-based tests: parser robustness and the lump oracle on random lines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringrc import (
    CrosstalkMode,
    DrivePattern,
    LineRC,
    RingRcError,
    build_network,
    parse_config,
    parse_measurements,
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
