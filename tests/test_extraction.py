"""Tests for the parasitic extraction chain."""

import numpy as np
import pytest

from ringrc import (
    CrosstalkMode,
    ExtractionDomainError,
    Fanout,
    MeasurementRecord,
    MissingRecordError,
    ParasiticSet,
    RoConfig,
    SpecTable,
    ValidationError,
    compare_to_spec,
    coupling_capacitance,
    extract_all,
    gate_capacitance,
    ground_capacitance,
    interconnect_capacitance,
    stage_capacitance,
    stage_delay_from_period,
    switching_resistance,
)

CONFIG = RoConfig(n=100, m=64, v_dd=0.9)

# Measured 28 nm data set bundled with the package:
# (geometry, fanout, mode) -> (t_osc seconds, i_eff amps)
MEASURED = {
    ("1W1S", Fanout.FO1, CrosstalkMode.IN_PHASE): (81.66e-9, 891.50e-6),
    ("1W1S", Fanout.FO1, CrosstalkMode.OUT_OF_PHASE): (88.39e-9, 990.63e-6),
    ("1W1S", Fanout.FO1, CrosstalkMode.QUIET): (82.31e-9, 503.47e-6),
    ("1W1S", Fanout.FO2, CrosstalkMode.IN_PHASE): (101.35e-9, 1388.00e-6),
    ("1W1S", Fanout.FO2, CrosstalkMode.OUT_OF_PHASE): (113.22e-9, 1384.87e-6),
    ("1W1S", Fanout.FO2, CrosstalkMode.QUIET): (102.43e-9, 778.20e-6),
    ("1W2S", Fanout.FO1, CrosstalkMode.IN_PHASE): (65.99e-9, 1079.07e-6),
    ("1W2S", Fanout.FO1, CrosstalkMode.OUT_OF_PHASE): (66.87e-9, 1093.13e-6),
    ("1W2S", Fanout.FO1, CrosstalkMode.QUIET): (66.22e-9, 532.07e-6),
    ("1W2S", Fanout.FO2, CrosstalkMode.IN_PHASE): (86.50e-9, 1518.57e-6),
    ("1W2S", Fanout.FO2, CrosstalkMode.OUT_OF_PHASE): (87.00e-9, 1534.97e-6),
    ("1W2S", Fanout.FO2, CrosstalkMode.QUIET): (85.32e-9, 817.23e-6),
}

# Extraction results frozen at full precision after independent hand
# computation of every formula.
EXPECTED = {
    "1W1S": {
        "r_sw": 504.7672462142457,
        "c_s": 6.319434895833333e-15,
        "c_gate": 3.047506076388889e-15,
        "c_int": 9.591363715277778e-15,
        "c_total": 12.638869791666668e-15,
        "c_ground": 6.596614097537509e-15,
        "c_coupling": 7.9463817539935295e-15,
    },
    "1W2S": {
        "r_sw": 417.02577219272155,
        "c_s": 6.181235182291665e-15,
        "c_gate": 3.8423134895833333e-15,
        "c_int": 8.520156874999998e-15,
        "c_total": 12.362470364583329e-15,
        "c_ground": 6.233072949014764e-15,
        "c_coupling": 8.190755122278585e-15,
    },
}


def records_for(geometry):
    return [
        MeasurementRecord(
            geometry=geometry, fanout=fanout, mode=mode, t_osc=t, i_eff=i
        )
        for (g, fanout, mode), (t, i) in MEASURED.items()
        if g == geometry
    ]


class TestScalarFormulas:
    def test_switching_resistance(self):
        assert switching_resistance(891.50e-6, 0.9) == pytest.approx(
            504.7672462142457, rel=1e-12
        )

    def test_switching_resistance_validation(self):
        with pytest.raises(ValueError):
            switching_resistance(0.0, 0.9)
        with pytest.raises(ValueError):
            switching_resistance(891.50e-6, -0.9)

    def test_stage_capacitance(self):
        got = stage_capacitance(81.66e-9, 891.50e-6, CONFIG)
        assert got == pytest.approx(6.319434895833333e-15, rel=1e-12, abs=0.0)

    def test_gate_capacitance(self):
        r = 504.7672462142457
        got = gate_capacitance(81.66e-9, 101.35e-9, r, CONFIG)
        assert got == pytest.approx(3.047506076388889e-15, rel=1e-12, abs=0.0)

    def test_gate_capacitance_needs_period_increase(self):
        with pytest.raises(ExtractionDomainError, match="FO2"):
            gate_capacitance(101.35e-9, 81.66e-9, 504.0, CONFIG)

    def test_interconnect_capacitance(self):
        r = 504.7672462142457
        got = interconnect_capacitance(81.66e-9, 101.35e-9, r, CONFIG)
        assert got == pytest.approx(9.591363715277778e-15, rel=1e-12, abs=0.0)

    def test_interconnect_domain(self):
        # FO2 period more than double FO1: the gate load would exceed
        # the whole stage load.
        with pytest.raises(ExtractionDomainError, match="2 \\*"):
            interconnect_capacitance(40e-9, 85e-9, 504.0, CONFIG)

    def test_coupled_pair_formulas(self):
        r = 504.7672462142457
        t_o = stage_delay_from_period(CONFIG, 88.39e-9)
        t_q = stage_delay_from_period(CONFIG, 82.31e-9)
        assert ground_capacitance(t_o, t_q, r) == pytest.approx(
            6.596614097537509e-15, rel=1e-12, abs=0.0
        )
        assert coupling_capacitance(t_o, t_q, r) == pytest.approx(
            7.9463817539935295e-15, rel=1e-12, abs=0.0
        )

    def test_coupling_domain(self):
        with pytest.raises(ExtractionDomainError, match="2 \\* t_o"):
            coupling_capacitance(1.0e-12, 2.5e-12, 504.0)

    def test_coupled_pair_validation(self):
        with pytest.raises(ValueError):
            ground_capacitance(0.0, 1e-12, 504.0)
        with pytest.raises(ValueError):
            ground_capacitance(1e-12, 1e-12, 0.0)
        with pytest.raises(ValueError):
            coupling_capacitance(1e-12, -1e-12, 504.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_time_current_scaling(self, trial):
        """Scaling every period by k and every current by 1/k leaves all
        capacitances unchanged and scales the resistance by k."""
        rng = np.random.default_rng(6000 + trial)
        k = float(rng.uniform(0.2, 5.0))
        base = records_for("1W1S")
        scaled = [
            MeasurementRecord(
                geometry=rec.geometry,
                fanout=rec.fanout,
                mode=rec.mode,
                t_osc=rec.t_osc * k,
                i_eff=rec.i_eff / k,
            )
            for rec in base
        ]
        got = extract_all(scaled, CONFIG)
        want = EXPECTED["1W1S"]
        assert got.r_sw == pytest.approx(want["r_sw"] * k, rel=1e-9)
        for name in ("c_s", "c_gate", "c_int", "c_ground", "c_coupling"):
            assert getattr(got, name) == pytest.approx(want[name], rel=1e-9, abs=0.0)

    def test_wider_spacing_couples_less_at_common_resistance(self):
        """Evaluated at the same switching resistance, the double-spacing
        geometry's delay pair yields a smaller coupling capacitance."""
        r = EXPECTED["1W1S"]["r_sw"]
        t_o = stage_delay_from_period(CONFIG, 66.87e-9)
        t_q = stage_delay_from_period(CONFIG, 66.22e-9)
        cc_wide = coupling_capacitance(t_o, t_q, r)
        assert cc_wide == pytest.approx(6.766992124247137e-15, rel=1e-12, abs=0.0)
        assert cc_wide < EXPECTED["1W1S"]["c_coupling"]


class TestExtractAll:
    @pytest.mark.parametrize("geometry", ["1W1S", "1W2S"])
    def test_full_extraction(self, geometry):
        result = extract_all(records_for(geometry), CONFIG)
        assert result.geometry == geometry
        for name, want in EXPECTED[geometry].items():
            assert getattr(result, name) == pytest.approx(want, rel=1e-9, abs=0.0), name

    def test_parasitics_view(self):
        result = extract_all(records_for("1W1S"), CONFIG)
        para = result.parasitics
        assert para.c_total == result.c_total
        assert para.c_c == result.c_coupling
        assert para.r_sw == result.r_sw

    def test_provenance_labels(self):
        result = extract_all(records_for("1W1S"), CONFIG)
        assert result.provenance["r_sw"] == ("1W1S/FO1/in_phase",)
        assert result.provenance["c_gate"] == (
            "1W1S/FO1/in_phase",
            "1W1S/FO2/in_phase",
        )
        assert "1W1S/FO1/quiet" in result.provenance["c_coupling"]
        assert "1W1S/FO1/out_of_phase" in result.provenance["c_coupling"]

    def test_rsw_mode_selects_current(self):
        """Routing the resistance through the quiet record's current gives
        the quiet-mode charge-balance resistance instead."""
        records = records_for("1W1S")
        default = extract_all(records, CONFIG)
        quiet = extract_all(records, CONFIG, rsw_mode=CrosstalkMode.QUIET)
        assert default.r_sw != quiet.r_sw
        assert quiet.r_sw == pytest.approx(
            switching_resistance(503.47e-6, 0.9), rel=1e-12
        )
        # the in-phase charge-balance values are untouched
        assert quiet.c_s == default.c_s

    def test_missing_record_is_named(self):
        records = [
            rec
            for rec in records_for("1W1S")
            if not (
                rec.fanout is Fanout.FO1 and rec.mode is CrosstalkMode.QUIET
            )
        ]
        with pytest.raises(MissingRecordError, match="FO1.*quiet"):
            extract_all(records, CONFIG)

    def test_mixed_geometries_rejected(self):
        records = records_for("1W1S") + records_for("1W2S")
        with pytest.raises(ValidationError, match="several geometries"):
            extract_all(records, CONFIG)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            extract_all([], CONFIG)

    def test_duplicate_records_rejected(self):
        """Two dies' records mixed in one call share every (fanout, mode);
        the pair is named instead of the later record silently winning."""
        d1, d2 = (
            [
                MeasurementRecord(
                    geometry=r.geometry, fanout=r.fanout, mode=r.mode,
                    t_osc=r.t_osc, i_eff=r.i_eff, die=die,
                )
                for r in records_for("1W1S")
            ]
            for die in ("D1", "D2")
        )
        match = r"duplicate \(FO1, in_phase\)"
        with pytest.raises(ValidationError, match=match) as info:
            extract_all(d1 + d2, CONFIG)
        assert "D1/1W1S/FO1/in_phase" in str(info.value)
        assert "D2/1W1S/FO1/in_phase" in str(info.value)


# Published values for the same structures: this chain's results and an
# earlier single-oscillator method, with the shared design targets.
PUBLISHED = {
    "1W1S": ParasiticSet(
        c_total=12.51e-15, c_gate=3.02e-15, c_int=9.50e-15,
        c_c=6.82e-15, r_sw=504.0,
    ),
    "1W2S": ParasiticSet(
        c_total=12.24e-15, c_gate=3.82e-15, c_int=8.42e-15,
        c_c=6.81e-15, r_sw=417.0,
    ),
}
PRIOR_METHOD = {
    "1W1S": ParasiticSet(c_total=14.24e-15, r_sw=497.0),
    "1W2S": ParasiticSet(c_total=12.12e-15, r_sw=423.0),
}
TARGETS = {
    "1W1S": ParasiticSet(
        c_total=12.39e-15, c_gate=2.54e-15, c_int=9.85e-15,
        c_c=7.91e-15, r_sw=450.0,
    ),
    "1W2S": ParasiticSet(
        c_total=10.68e-15, c_gate=2.54e-15, c_int=8.14e-15,
        c_c=5.51e-15, r_sw=276.0,
    ),
}


class TestCompareToSpec:
    @pytest.mark.parametrize(
        "geometry, ct_pct, rsw_pct, delay_pct",
        [
            ("1W1S", 0.97, 12.00, 13.08),
            ("1W2S", 14.61, 51.09, 73.16),
        ],
    )
    def test_published_errors(self, geometry, ct_pct, rsw_pct, delay_pct):
        report = compare_to_spec(PUBLISHED[geometry], TARGETS[geometry], geometry)
        assert report.geometry == geometry
        assert report.param_errors["c_total"] * 100 == pytest.approx(
            ct_pct, abs=0.005
        )
        assert report.param_errors["r_sw"] * 100 == pytest.approx(
            rsw_pct, abs=0.005
        )
        assert report.delay_product_error * 100 == pytest.approx(
            delay_pct, abs=0.005
        )

    @pytest.mark.parametrize(
        "geometry, ct_pct, rsw_pct, delay_pct",
        [
            ("1W1S", 14.93, 10.44, 26.94),
            ("1W2S", 13.48, 53.26, 73.93),
        ],
    )
    def test_prior_method_errors(self, geometry, ct_pct, rsw_pct, delay_pct):
        report = compare_to_spec(PRIOR_METHOD[geometry], TARGETS[geometry])
        assert report.param_errors["c_total"] * 100 == pytest.approx(
            ct_pct, abs=0.005
        )
        assert report.param_errors["r_sw"] * 100 == pytest.approx(
            rsw_pct, abs=0.005
        )
        assert report.delay_product_error * 100 == pytest.approx(
            delay_pct, abs=0.005
        )
        # parameters missing from the published set are omitted
        assert "c_gate" not in report.param_errors

    def test_extraction_result_input(self):
        result = extract_all(records_for("1W1S"), CONFIG)
        report = compare_to_spec(result, TARGETS["1W1S"])
        assert report.geometry == "1W1S"
        assert set(report.param_errors) == {
            "c_total", "c_gate", "c_int", "c_c", "r_sw",
        }
        assert report.targets is TARGETS["1W1S"]

    def test_geometry_mismatch_rejected(self):
        result = extract_all(records_for("1W1S"), CONFIG)
        with pytest.raises(ValidationError, match="mismatch"):
            compare_to_spec(result, TARGETS["1W2S"], geometry="1W2S")

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            compare_to_spec(
                ParasiticSet(c_total=1e-15), ParasiticSet(c_total=0.0)
            )

    def test_delay_product_needs_both_factors(self):
        report = compare_to_spec(
            ParasiticSet(c_total=12e-15), TARGETS["1W1S"]
        )
        assert report.delay_product_error is None

    def test_as_dict_keys(self):
        para = ParasiticSet(c_total=1e-15, r_sw=100.0)
        assert para.as_dict() == {
            "c_total": 1e-15,
            "c_gate": None,
            "c_int": None,
            "c_c": None,
            "r_sw": 100.0,
        }

    def test_spec_table_lookup(self):
        table = SpecTable(values=TARGETS)
        assert table.for_geometry("1W1S") is TARGETS["1W1S"]
        with pytest.raises(ValidationError, match="1W9S"):
            table.for_geometry("1W9S")
