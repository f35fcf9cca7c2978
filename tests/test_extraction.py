"""Tests for the parasitic extraction chain."""

import dataclasses

import numpy as np
import pytest

from ringrc import (
    CrosstalkMode,
    ExtractionDomainError,
    ExtractionResult,
    Fanout,
    MeasurementRecord,
    Measurements,
    MissingRecordError,
    NumericError,
    ParasiticSet,
    RoConfig,
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
from ringrc.extraction import COMPARED, VALUES, SpecTable

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
        "c_c": 7.9463817539935295e-15,
    },
    "1W2S": {
        "r_sw": 417.02577219272155,
        "c_s": 6.181235182291665e-15,
        "c_gate": 3.8423134895833333e-15,
        "c_int": 8.520156874999998e-15,
        "c_total": 12.362470364583329e-15,
        "c_ground": 6.233072949014764e-15,
        "c_c": 8.190755122278585e-15,
    },
}


def rows_for(geometry, die=""):
    return [
        MeasurementRecord(
            geometry=geometry, fanout=fanout, mode=mode, t_osc=t, i_eff=i, die=die
        )
        for (g, fanout, mode), (t, i) in MEASURED.items()
        if g == geometry
    ]


def records_for(geometry):
    return Measurements.from_records(rows_for(geometry))


def extract_one(rows, config=CONFIG):
    """The values of a list of one die's records, by name."""
    return extract_all(Measurements.from_records(rows), config).one()


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
        base = rows_for("1W1S")
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
        got = extract_one(scaled)
        want = EXPECTED["1W1S"]
        assert got["r_sw"] == pytest.approx(want["r_sw"] * k, rel=1e-9)
        for name in ("c_s", "c_gate", "c_int", "c_ground", "c_c"):
            assert got[name] == pytest.approx(want[name], rel=1e-9, abs=0.0)

    def test_wider_spacing_couples_less_at_common_resistance(self):
        """Evaluated at the same switching resistance, the double-spacing
        geometry's delay pair yields a smaller coupling capacitance."""
        r = EXPECTED["1W1S"]["r_sw"]
        t_o = stage_delay_from_period(CONFIG, 66.87e-9)
        t_q = stage_delay_from_period(CONFIG, 66.22e-9)
        cc_wide = coupling_capacitance(t_o, t_q, r)
        assert cc_wide == pytest.approx(6.766992124247137e-15, rel=1e-12, abs=0.0)
        assert cc_wide < EXPECTED["1W1S"]["c_c"]


class TestExtractAll:
    @pytest.mark.parametrize("geometry", ["1W1S", "1W2S"])
    def test_full_extraction(self, geometry):
        result = extract_all(records_for(geometry), CONFIG)
        assert result.geometry == geometry
        values = result.one()
        for name, want in EXPECTED[geometry].items():
            assert values[name] == pytest.approx(want, rel=1e-9, abs=0.0), name

    def test_parasitics_view(self):
        """A result holds every compared value under its ParasiticSet name."""
        values = extract_all(records_for("1W1S"), CONFIG).one()
        para = ParasiticSet(**{value.name: values[value.name] for value in COMPARED})
        assert para.c_total == values["c_total"]
        assert para.c_c == values["c_c"]
        assert para.r_sw == values["r_sw"]

    def test_provenance_labels(self):
        result = extract_all(records_for("1W1S"), CONFIG)
        assert result.provenance["r_sw"] == ("1W1S/FO1/in_phase",)
        assert result.provenance["c_gate"] == (
            "1W1S/FO1/in_phase",
            "1W1S/FO2/in_phase",
        )
        assert "1W1S/FO1/quiet" in result.provenance["c_c"]
        assert "1W1S/FO1/out_of_phase" in result.provenance["c_c"]

    def test_rsw_from_fo1_in_phase_current(self):
        """r_sw of every die in a lot is the charge-balance resistance of
        its FO1 in-phase current, whatever the other records' currents,
        and its provenance names that record."""
        rows = []
        for k, die in enumerate(("D1", "D2", "D3")):
            rows += [
                r._replace(i_eff=r.i_eff * (1.0 + 0.1 * k + 0.03 * (r.fanout is Fanout.FO2)
                                            + 0.01 * list(CrosstalkMode).index(r.mode)))
                for r in rows_for("1W1S", die=die)
            ]
        lot = Measurements.from_records(rows)
        results = extract_all(lot, CONFIG)
        assert results.die.tolist() == ["D1", "D2", "D3"]
        for die, r_sw in zip(results.die, results.r_sw.tolist()):
            (in_phase,) = [r for r in rows if r.die == die and r.fanout is Fanout.FO1
                           and r.mode is CrosstalkMode.IN_PHASE]
            assert r_sw == switching_resistance(in_phase.i_eff, CONFIG.v_dd)
            provenance = extract_all(lot.where("die", die), CONFIG).provenance
            assert provenance["r_sw"] == (in_phase.label(),)
            assert provenance["c_c"][-1] == in_phase.label()
        assert len(set(results.r_sw.tolist())) == 3

    def test_missing_record_is_named(self):
        rows = [
            rec
            for rec in rows_for("1W1S")
            if not (
                rec.fanout is Fanout.FO1 and rec.mode is CrosstalkMode.QUIET
            )
        ]
        with pytest.raises(MissingRecordError, match="FO1.*quiet"):
            extract_one(rows)

    def test_mixed_geometries_rejected(self):
        records = Measurements.from_records(rows_for("1W1S") + rows_for("1W2S"))
        with pytest.raises(ValidationError, match="several geometries"):
            extract_all(records, CONFIG)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            extract_all(Measurements.from_records([]), CONFIG)

    def test_duplicate_records_rejected(self):
        """Two records of one die sharing a (fanout, mode) are named
        instead of the later record silently winning."""
        rows = rows_for("1W1S", die="D1")
        with pytest.raises(ValidationError, match=r"duplicate \(FO1, quiet\)") as info:
            extract_one(rows + rows_for("1W1S", die="D2") + rows[2:3])
        assert str(info.value).count("D1/1W1S/FO1/quiet") == 2

    def test_dies_extract_apart(self):
        """In a table of several dies, each die's row holds the values it
        gets alone, and the dies come in sorted label order."""
        slower = [r._replace(t_osc=r.t_osc * 1.1) for r in rows_for("1W1S", die="D2")]
        rows = slower + rows_for("1W1S", die="D1")
        results = extract_all(Measurements.from_records(rows), CONFIG)
        assert results.die.tolist() == ["D1", "D2"]
        assert results.c_gate[0] < results.c_gate[1]
        for row, die in enumerate(results.die):
            alone = extract_all(Measurements.from_records([r for r in rows if r.die == die]),
                                CONFIG)
            assert alone.die.tolist() == [die]
            assert {value.name: getattr(results, value.name)[row] for value in VALUES} == (
                alone.one())
            assert alone.provenance["r_sw"] == (f"{die}/1W1S/FO1/in_phase",)

    def test_columns_come_in_sorted_die_order(self):
        """A result holds the geometry, the die labels in sorted order and
        one float64 column per value, a row per die."""
        rows = rows_for("1W1S", die="D2") + rows_for("1W1S", die="") + rows_for("1W1S", die="D1")
        results = extract_all(Measurements.from_records(rows), CONFIG)
        assert results.geometry == "1W1S"
        assert results.die.tolist() == ["", "D1", "D2"]
        for value in VALUES:
            column = getattr(results, value.name)
            assert column.dtype == np.float64 and column.shape == (3,)
        d1 = extract_all(Measurements.from_records(rows_for("1W1S", die="D1")), CONFIG)
        assert results.c_c[1] == d1.c_c[0]

    def test_one_reads_the_only_die(self):
        """one() gives each column's only element by name, and it and the
        provenance refuse a result of no dies or of two."""
        result = extract_all(records_for("1W2S"), CONFIG)
        values = result.one()
        assert values == {value.name: getattr(result, value.name)[0] for value in VALUES}
        assert all(type(v) is float for v in values.values())
        rows = rows_for("1W1S", die="D1") + rows_for("1W1S", die="D2")
        two = extract_all(Measurements.from_records(rows), CONFIG)
        empty = ExtractionResult("1W1S", np.array([], dtype=object),
                                 *[np.array([])] * len(VALUES))
        for many, count in ((two, 2), (empty, 0)):
            with pytest.raises(ValueError, match=f"holds {count} dies, not one"):
                many.one()
            with pytest.raises(ValueError, match=f"holds {count} dies, not one"):
                many.provenance

    def test_replace_keeps_the_columns(self):
        """dataclasses.replace with new die labels keeps every column."""
        rows = rows_for("1W1S", die="D2") + rows_for("1W1S", die="D1")
        lot = extract_all(Measurements.from_records(rows), CONFIG)
        relabelled = dataclasses.replace(lot, die=np.array(["E1", "E2"], dtype=object))
        assert relabelled.die.tolist() == ["E1", "E2"] and lot.die.tolist() == ["D1", "D2"]
        assert relabelled.geometry == lot.geometry
        for value in VALUES:
            assert getattr(relabelled, value.name) is getattr(lot, value.name)

    def test_lot_errors_name_the_first_failing_die(self):
        """In a lot, the error raised is the one the first failing die in
        sorted order raises first, prefixed with that die's label."""
        ok = rows_for("1W1S", die="A")
        no_quiet = [r for r in rows_for("1W1S", die="C") if r.mode is not CrosstalkMode.QUIET]
        swapped = [
            r._replace(t_osc=r.t_osc * (0.5 if r.fanout is Fanout.FO2 else 1.0))
            for r in rows_for("1W1S", die="B")
        ]
        records = Measurements.from_records(ok + no_quiet + swapped)
        with pytest.raises(ExtractionDomainError, match="^die B: FO2 period"):
            extract_all(records, CONFIG)
        records = Measurements.from_records(ok + no_quiet)
        with pytest.raises(MissingRecordError, match=r"^die C: required record \(FO1, quiet\)"):
            extract_all(records, CONFIG)
        blank = [r._replace(die="") for r in swapped]
        with pytest.raises(ExtractionDomainError, match="^die <blank>: FO2"):
            extract_all(Measurements.from_records(ok + blank), CONFIG)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # 2 * i_eff overflows, so r_sw = v_dd / inf = 0
            ("i_eff", 1e308, "r_sw = 0.0"),
            # v_dd / (2 * i_eff) overflows
            ("i_eff", 1e-310, "r_sw = inf"),
            # the out-of-phase and quiet FO1 stage delays underflow to 0
            ("t_osc", 1e-320, "stage delay t_o = 0.0"),
        ],
    )
    def test_over_and_underflow_are_domain_errors(self, field, value, message):
        """Measurements that over- or underflow a formula raise a domain
        error naming the value, alone and, prefixed with the die, in a lot."""
        def degenerate(die):
            return [
                r._replace(**{field: value})
                if field == "i_eff" or r.mode is not CrosstalkMode.IN_PHASE else r
                for r in rows_for("1W1S", die=die)
            ]
        with pytest.raises(ExtractionDomainError, match=f"^{message}: the measurements"):
            extract_one(degenerate(""))
        lot = Measurements.from_records(rows_for("1W1S", die="A") + degenerate("B"))
        with pytest.raises(ExtractionDomainError, match=f"^die B: {message}: "):
            extract_all(lot, CONFIG)

    def test_extracted_values_are_finite_and_positive(self):
        """A value that over- or underflows after r_sw and the stage delays
        (here c_s = t_osc * i_eff / (2 n m v_dd) overflows) is also named."""
        rows = [r._replace(t_osc=r.t_osc * 1e23) for r in rows_for("1W1S")]
        rows = [r._replace(i_eff=r.i_eff * 1e300) for r in rows]
        with pytest.raises(ExtractionDomainError, match="^c_s = inf: "):
            extract_one(rows)

    def test_values_are_finite_in_display_units(self):
        """A capacitance finite in farads but not in femtofarads (here
        c_s ~ 8.7e295 F) is a domain error too, alone and in a lot, so no
        report shows it as inf."""
        rows = [r._replace(t_osc=r.t_osc * 1.2e157, i_eff=r.i_eff * 1.1e153)
                for r in rows_for("1W1S")]
        with pytest.raises(ExtractionDomainError, match=r"^c_s = inf: .* in fF\)$"):
            extract_one(rows)
        lot = Measurements.from_records(rows_for("1W1S", die="A")
                                        + [r._replace(die="B") for r in rows])
        with pytest.raises(ExtractionDomainError, match="^die B: c_s = inf: "):
            extract_all(lot, CONFIG)


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


class TestValueTable:
    """extraction.VALUES names every extracted value once; the types it
    feeds must agree with it."""

    def test_fields_follow_the_table(self):
        """Every value has one name: the value fields of ExtractionResult
        (which extract_all fills positionally), the keys of one() and the
        provenance keys are the table's names, in its order."""
        names = [value.name for value in VALUES]
        assert [f.name for f in dataclasses.fields(ExtractionResult)] == [
            "geometry", "die", *names]
        result = extract_all(records_for("1W1S"), CONFIG)
        assert list(result.one()) == names
        assert list(result.provenance) == names

    def test_compared_names_are_the_parasitic_set_fields(self):
        names = [f.name for f in dataclasses.fields(ParasiticSet)]
        assert [value.name for value in COMPARED] == names
        assert list(ParasiticSet().as_dict()) == names
        result = extract_all(records_for("1W1S"), CONFIG).one()
        assert ParasiticSet(**{name: result[name] for name in names}).as_dict() == {
            name: result[name] for name in names}

    def test_provenance_by_source_records(self):
        rows = Measurements.from_records(rows_for("1W2S", die="D7"))
        result = extract_all(rows, CONFIG)
        inp_fo1, inp_fo2, oop_fo1, quiet_fo1 = (
            f"D7/1W2S/{record}" for record in
            ("FO1/in_phase", "FO2/in_phase", "FO1/out_of_phase", "FO1/quiet"))
        pair, coupled = (inp_fo1, inp_fo2), (oop_fo1, quiet_fo1, inp_fo1)
        assert result.provenance == {
            "r_sw": (inp_fo1,), "c_s": (inp_fo1,), "c_gate": pair, "c_int": pair,
            "c_total": pair, "c_ground": coupled, "c_c": coupled}


class TestCompareToSpec:
    @pytest.mark.parametrize(
        "geometry, ct_pct, rsw_pct, delay_pct",
        [
            ("1W1S", 0.97, 12.00, 13.08),
            ("1W2S", 14.61, 51.09, 73.16),
        ],
    )
    def test_published_errors(self, geometry, ct_pct, rsw_pct, delay_pct):
        report = compare_to_spec(PUBLISHED[geometry].as_dict(), TARGETS[geometry])
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
        report = compare_to_spec(PRIOR_METHOD[geometry].as_dict(), TARGETS[geometry])
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
        result = extract_all(records_for("1W1S"), CONFIG).one()
        report = compare_to_spec(result, TARGETS["1W1S"])
        assert set(report.param_errors) == {
            "c_total", "c_gate", "c_int", "c_c", "r_sw",
        }
        assert report.targets is TARGETS["1W1S"]

    def test_result_compares_as_its_parasitics(self):
        result = extract_all(records_for("1W1S"), CONFIG).one()
        spec = TARGETS["1W1S"]
        para = ParasiticSet(**{value.name: result[value.name] for value in COMPARED})
        assert compare_to_spec(result, spec) == compare_to_spec(para.as_dict(), spec)

    def test_overflowing_error_rejected(self):
        """A value so far from its target that the relative error overflows
        is a numeric error naming the value, not an infinite error."""
        with pytest.raises(NumericError, match=r"^c_total = 1e\+300 is too far"):
            compare_to_spec({"c_total": 1e300}, ParasiticSet(c_total=1e-14))
        far = {"c_total": 1e-14, "r_sw": 1e300}
        with pytest.raises(NumericError, match=r"^r_sw = 1e\+300 is too far"):
            compare_to_spec(far, ParasiticSet(c_total=1e-14, r_sw=1e-300))

    def test_error_must_be_finite_in_percent(self):
        """Reports show errors in percent: an error finite as a fraction but
        not times 100 is a numeric error too, for a value and the delay product."""
        with pytest.raises(NumericError, match=r"^c_gate = 1e\+307 is too far .* percent$"):
            compare_to_spec({"c_gate": 1e307}, ParasiticSet(c_gate=1.0))
        with pytest.raises(NumericError, match=r"^r_sw \* c_total = 1e\+207 is too far"):
            compare_to_spec({"r_sw": 1e200, "c_total": 1e7},
                            ParasiticSet(r_sw=1e-100, c_total=1.0))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            compare_to_spec(
                ParasiticSet(c_total=1e-15).as_dict(), ParasiticSet(c_total=0.0)
            )

    def test_delay_product_needs_both_factors(self):
        report = compare_to_spec(
            ParasiticSet(c_total=12e-15).as_dict(), TARGETS["1W1S"]
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
