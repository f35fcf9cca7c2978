"""Tests for the one finite-and-positive rule behind every value type and
formula input (errors._finite_positive), and for the drive amplitudes,
which may take either sign but must be finite."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from ringrc import (
    CapacitanceSet,
    CrosstalkMode,
    DeviceParams,
    DrivePattern,
    Fanout,
    LineRC,
    MeasurementRecord,
    Measurements,
    NumericError,
    RoConfig,
    SimulationResult,
    SynthesisTruth,
    build_network,
    counter_period,
    coupling_capacitance,
    effective_capacitance,
    gate_capacitance,
    ground_capacitance,
    interconnect_capacitance,
    osc_frequency,
    stage_capacitance,
    stage_delay_from_current,
    stage_delay_from_period,
    switching_resistance,
    synthesize_measurements,
)
from ringrc.simulator import SAMPLES, T_END_FACTOR

CONFIG = RoConfig(n=100, m=64, v_dd=0.9)
LINE = LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)
NET = build_network(LINE)
QUIET = DrivePattern.for_mode(CrosstalkMode.QUIET, 0.9)
RESULT = SimulationResult.of(NET, QUIET)
TRUTH = dict(r_sw=504.0, c_gate=3.0e-15, c_int=9.6e-15, c_c=7.9e-15)
RECORD = dict(geometry="1W1S", fanout=Fanout.FO1, mode=CrosstalkMode.QUIET,
              t_osc=8.2e-8, i_eff=5.0e-4)

#: Every site that states the rule: a call taking the checked values by
#: name (the others at accepted defaults), and the fields it checks, each
#: with whether zero is allowed (>= 0) or not (> 0), or None where any
#: finite value is (DrivePattern's amplitudes). A formula's field is
#: left out where no default of the others lets both 5e-324 and 1e-3 pass
#: its domain check (gate_capacitance's FO2 period must exceed the FO1 one);
#: test_columns_name_their_first_failing_entry takes one of those.
SITES = {
    "CapacitanceSet": (
        lambda **v: CapacitanceSet(**{**dict.fromkeys(("c_ta", "c_ba", "c_ft", "c_fb", "c_c"),
                                                      1e-15), **v}),
        {"c_ta": True, "c_ba": True, "c_ft": True, "c_fb": True, "c_c": True}),
    "effective_capacitance": (
        lambda **v: effective_capacitance(CrosstalkMode.QUIET, **{"c_ground": 5e-15,
                                                                  "c_c": 2e-15, **v}),
        {"c_ground": True, "c_c": True}),
    "LineRC": (
        lambda **v: LineRC(**{"r": 504.0, "c": 6.6e-15, "c_c": 8.0e-15, "v_dd": 0.9, **v}),
        {"r": False, "c": False, "c_c": True, "v_dd": False}),
    "RoConfig": (lambda **v: RoConfig(n=100, m=64, **{"v_dd": 0.9, **v}), {"v_dd": False}),
    "DeviceParams": (lambda **v: DeviceParams(**{"i_dp": 1e-3, "i_dn": 1e-3, **v}),
                     {"i_dp": False, "i_dn": False}),
    "Measurements.from_records": (
        lambda **v: Measurements.from_records([MeasurementRecord(**{**RECORD, **v})]),
        {"t_osc": False, "i_eff": False}),
    "stage_delay_from_current": (
        lambda **v: stage_delay_from_current(**{"c_load": 1e-15, "v": 0.9, **v},
                                             params=DeviceParams(1e-3, 1e-3)),
        {"c_load": False, "v": False}),
    "osc_frequency": (lambda **v: osc_frequency(100, **{"t_s": 5e-12, **v}), {"t_s": False}),
    "counter_period": (lambda **v: counter_period(CONFIG, **{"t_s": 5e-12, **v}),
                       {"t_s": False}),
    "SynthesisTruth": (lambda **v: SynthesisTruth(**{**TRUTH, **v}),
                       dict.fromkeys(TRUTH, False)),
    "synthesize_measurements": (
        lambda **v: synthesize_measurements(SynthesisTruth(**TRUTH), CONFIG, **v),
        {"noise_sigma": True}),
    "DrivePattern": (lambda **v: DrivePattern(**{"v_s1": 0.9, "v_s2": 0.9, "v_s3": 0.9, **v}),
                     dict.fromkeys(("v_s1", "v_s2", "v_s3"))),
    "SimulationResult.of": (lambda **v: SimulationResult.of(NET, QUIET, **v), {"t_end": False}),
    # the grid step of a caller's span: 0 where the span is under ~8191 * 5e-324 s
    "SimulationResult.values": (
        lambda **v: SimulationResult(RESULT.response, **v).values, {"dt": False}),
    "switching_resistance": (
        lambda **v: switching_resistance(**{"i_eff": 5e-4, "v_dd": 0.9, **v}),
        {"i_eff": False, "v_dd": False}),
    "stage_capacitance": (
        lambda **v: stage_capacitance(**{"t_osc": 8.2e-8, "i_eff": 5e-4, **v}, config=CONFIG),
        {"t_osc": False, "i_eff": False}),
    "gate_capacitance": (
        lambda **v: gate_capacitance(**{"t_osc_fo1": 8.2e-8, "t_osc_fo2": 1.0, **v},
                                     r_sw=504.0, config=CONFIG),
        {"t_osc_fo1": False}),
    "interconnect_capacitance": (
        lambda **v: interconnect_capacitance(**{"t_osc_fo1": 1.0, "t_osc_fo2": 1e-9, **v},
                                             r_sw=504.0, config=CONFIG),
        {"t_osc_fo2": False}),
    "ground_capacitance": (
        lambda **v: ground_capacitance(**{"t_o": 0.5, "t_q": 0.5, "r": 504.0, **v}),
        {"t_o": False, "t_q": False, "r": False}),
    "coupling_capacitance": (
        lambda **v: coupling_capacitance(**{"t_o": 0.5, "t_q": 0.5, "r": 504.0, **v}),
        {"t_q": False, "r": False}),
    "stage_delay_from_period": (
        lambda **v: stage_delay_from_period(CONFIG, **{"t_osc": 8.2e-8, **v}), {"t_osc": False}),
}
CASES = [(site, field, zero_ok) for site, (_, fields) in SITES.items()
         for field, zero_ok in fields.items()]
TINY = 5e-324  # the smallest positive float
#: By zero_ok: the rule as the message states it, the values nearest the
#: bound that it refuses, and the nearest it accepts together with 1e-3.
RULES = {
    False: (" and > 0", (0.0, -1.0), (TINY, 1e-3)),
    True: (" and >= 0", (-TINY, -1.0), (0.0, 1e-3)),
    None: ("", (), (-sys.float_info.max, 0.0, 1e-3)),
}


@pytest.mark.parametrize("site, field, zero_ok", CASES,
                         ids=[f"{site}.{field}" for site, field, _ in CASES])
class TestEverySite:
    def test_rejected_with_the_shared_message(self, site, field, zero_ok):
        """Infinity, NaN and the nearest value below the bound (0 for > 0,
        -5e-324 for >= 0), and -1, each raise the one message naming the field."""
        call, _ = SITES[site]
        rule, refused, _ = RULES[zero_ok]
        for value in (math.inf, -math.inf, math.nan, *refused):
            message = f"{field} must be finite{rule}, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(**{field: value})

    def test_nearest_accepted_values_pass(self, site, field, zero_ok):
        """The bound itself (0 for >= 0, 5e-324 for > 0, the most negative
        float for any finite value) and 1e-3 pass."""
        call, _ = SITES[site]
        for value in RULES[zero_ok][2]:
            call(**{field: value})


def test_first_failing_value_is_named():
    """The values are checked in the order given: the first that breaks
    the rule is the one named."""
    from ringrc.errors import _finite_positive

    with pytest.raises(ValueError, match=r"^b must be finite and > 0, got nan$"):
        _finite_positive(a=1.0, b=math.nan, c=-1.0)
    with pytest.raises(ValueError, match=r"^r must be finite and > 0, got inf$"):
        LineRC(r=math.inf, c=0.0, c_c=-1.0, v_dd=math.nan)


def test_columns_name_their_first_failing_entry():
    """Per-die columns take the rule entry by entry: the first entry that
    breaks it is named, as a float, and columns that keep it pass."""
    fo1 = np.full(3, 8.2e-8)
    with pytest.raises(ValueError, match=r"^t_osc_fo2 must be finite and > 0, got inf$"):
        gate_capacitance(fo1, np.array([1e-7, np.inf, 0.0]), 504.0, CONFIG)
    with pytest.raises(ValueError, match=r"^t_osc must be finite and > 0, got nan$"):
        stage_delay_from_period(CONFIG, np.array([[8.2e-8, np.nan], [-1.0, 8.2e-8]]))
    assert np.all(gate_capacitance(fo1, np.full(3, 1e-7), 504.0, CONFIG) > 0.0)


def test_derived_span_past_the_float_range_is_a_numeric_error():
    """A finite line whose slowest time constant times T_END_FACTOR passes
    the largest float has no default span: NumericError naming it, with no
    warning. A caller's span is checked as given, and is the caller's."""
    net = build_network(LineRC(r=1e160, c=1e150, c_c=8.0e-15, v_dd=0.9))
    rate = float(net.modes()[0][0])
    assert T_END_FACTOR / rate == math.inf
    message = (f"the 3-node network's default span of 30 slowest time constants "
               f"overflows double precision: its slowest decay rate is {rate!r} /s")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            SimulationResult.of(net, QUIET)
        assert SimulationResult.of(net, QUIET, t_end=1e-9).dt == 1e-9 / (SAMPLES - 1)


def test_grid_step_that_rounds_to_zero_is_refused_wherever_the_grid_is_read():
    """of accepts a span whose grid step rounds to 0 s (the caller's span
    is the caller's); the table, a block of the victim's samples and a
    crossing each refuse that step, rather than report a crossing at 0 s
    or none at all."""
    result = SimulationResult.of(NET, QUIET, t_end=TINY)
    assert result.dt == 0.0
    for read in (lambda: result.values, lambda: result.sample(),
                 lambda: result.crossing(0.45), lambda: result.crossing(0.0)):
        with pytest.raises(ValueError, match=r"^dt must be finite and > 0, got 0\.0$"):
            read()
