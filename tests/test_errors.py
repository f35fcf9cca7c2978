"""Tests for the one finite-and-positive rule behind every value type and
formula input (errors._finite_positive)."""

import math
import re

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
    RoConfig,
    SimulationResult,
    SynthesisTruth,
    build_network,
    counter_period,
    effective_capacitance,
    osc_frequency,
    stage_delay_from_current,
    synthesize_measurements,
)
from ringrc.simulator import Waveform

CONFIG = RoConfig(n=100, m=64, v_dd=0.9)
LINE = LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)
NET = build_network(LINE)
TRUTH = dict(r_sw=504.0, c_gate=3.0e-15, c_int=9.6e-15, c_c=7.9e-15)
RECORD = dict(geometry="1W1S", fanout=Fanout.FO1, mode=CrosstalkMode.QUIET,
              t_osc=8.2e-8, i_eff=5.0e-4)

#: Every site that states the rule: a call taking the checked values by
#: name (the others at accepted defaults), and the fields it checks, each
#: with whether zero is allowed (>= 0) or not (> 0).
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
    "Waveform": (lambda **v: Waveform(**{"dt": 1e-12, **v}, values=np.zeros(4), label="v"),
                 {"dt": False}),
    "SimulationResult.of": (
        lambda **v: SimulationResult.of(NET, DrivePattern.for_mode(CrosstalkMode.QUIET, 0.9),
                                        **v),
        {"t_end": False}),
}
CASES = [(site, field, zero_ok) for site, (_, fields) in SITES.items()
         for field, zero_ok in fields.items()]
TINY = 5e-324  # the smallest positive float


@pytest.mark.parametrize("site, field, zero_ok", CASES,
                         ids=[f"{site}.{field}" for site, field, _ in CASES])
class TestEverySite:
    def test_rejected_with_the_shared_message(self, site, field, zero_ok):
        """Infinity, NaN and the nearest value below the bound (0 for > 0,
        -5e-324 for >= 0), and -1, each raise the one message naming the field."""
        call, _ = SITES[site]
        below = (-TINY, -1.0) if zero_ok else (0.0, -1.0)
        for value in (math.inf, -math.inf, math.nan, *below):
            message = f"{field} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(**{field: value})

    def test_nearest_accepted_values_pass(self, site, field, zero_ok):
        """The bound itself (0 for >= 0, 5e-324 for > 0) and 1e-3 pass."""
        call, _ = SITES[site]
        for value in (0.0 if zero_ok else TINY, 1e-3):
            call(**{field: value})


def test_first_failing_value_is_named():
    """The values are checked in the order given: the first that breaks
    the rule is the one named."""
    from ringrc.errors import _finite_positive

    with pytest.raises(ValueError, match=r"^b must be finite and > 0, got nan$"):
        _finite_positive(a=1.0, b=math.nan, c=-1.0)
    with pytest.raises(ValueError, match=r"^r must be finite and > 0, got inf$"):
        LineRC(r=math.inf, c=0.0, c_c=-1.0, v_dd=math.nan)
