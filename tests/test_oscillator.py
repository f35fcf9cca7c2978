"""Tests for the ring-oscillator forward model."""

import math
import sys

import numpy as np
import pytest

from ringrc import (
    CrosstalkMode,
    DeviceParams,
    Fanout,
    InvalidSelectCodeError,
    MeasurementRecord,
    Measurements,
    RoConfig,
    SynthesisTruth,
    counter_period,
    extract_all,
    mux_decode,
    osc_frequency,
    stage_delay_from_current,
    stage_delay_from_period,
    synthesize_measurements,
)

CONFIG = RoConfig(n=100, m=64, v_dd=0.9)

# Full-precision extraction from the bundled 28 nm narrow-pitch data set;
# feeding it back through the forward model must reproduce the in-phase
# periods and the supply current that produced it.
TRUTH_1W1S = SynthesisTruth(
    r_sw=504.7672462142457,
    c_gate=3.047506076388889e-15,
    c_int=9.591363715277778e-15,
    c_c=7.9463817539935295e-15,
)


class TestMuxDecode:
    @pytest.mark.parametrize(
        "code, mode",
        [
            ("00", CrosstalkMode.IN_PHASE),
            ("01", CrosstalkMode.OUT_OF_PHASE),
            ("11", CrosstalkMode.QUIET),
        ],
    )
    def test_valid_codes(self, code, mode):
        assert mux_decode(code) is mode

    def test_reserved_code(self):
        with pytest.raises(InvalidSelectCodeError):
            mux_decode("10")

    @pytest.mark.parametrize("code", ["", "0", "2", "001", "ab", "In"])
    def test_garbage_codes(self, code):
        with pytest.raises(ValueError):
            mux_decode(code)


class TestStageDelay:
    def test_symmetric_devices(self):
        params = DeviceParams(i_dp=1e-3, i_dn=1e-3)
        assert stage_delay_from_current(1e-15, 1.0, params) == 2e-12

    def test_average_current_convention(self):
        """A single average current i gives t_s = C V / i."""
        params = DeviceParams.from_average_current(1e-3)
        assert params.i_dp == 2e-3
        assert params.i_dn == 2e-3
        assert stage_delay_from_current(1e-15, 1.0, params) == 1e-12

    def test_asymmetric_devices(self):
        params = DeviceParams(i_dp=1e-3, i_dn=2e-3)
        want = 1e-15 * 1.0 * (1.0 / 1e-3 + 1.0 / 2e-3)
        assert stage_delay_from_current(1e-15, 1.0, params) == pytest.approx(
            want, rel=1e-15
        )

    def test_invalid_inputs(self):
        params = DeviceParams(1e-3, 1e-3)
        with pytest.raises(ValueError):
            stage_delay_from_current(0.0, 1.0, params)
        with pytest.raises(ValueError):
            stage_delay_from_current(1e-15, -1.0, params)
        with pytest.raises(ValueError):
            DeviceParams(0.0, 1e-3)


class TestPeriodAlgebra:
    def test_frequency(self):
        assert osc_frequency(100, 5e-12) == 1.0 / (200 * 5e-12)

    def test_counter_period_round_trip(self):
        t_s = 6.25e-12
        t_osc = counter_period(CONFIG, t_s)
        assert t_osc == CONFIG.period_scale * t_s
        assert stage_delay_from_period(CONFIG, t_osc) == pytest.approx(
            t_s, rel=1e-15
        )

    def test_period_scale(self):
        assert CONFIG.period_scale == 12800

    def test_bundled_period_to_stage_delay(self):
        t_s = stage_delay_from_period(CONFIG, 81.66e-9)
        assert t_s == pytest.approx(6.3796875e-12, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoConfig(n=2, m=64, v_dd=0.9)
        with pytest.raises(ValueError):
            RoConfig(n=100, m=0, v_dd=0.9)
        with pytest.raises(ValueError):
            RoConfig(n=100, m=64, v_dd=0.0)
        for v_dd in (math.inf, math.nan):
            with pytest.raises(ValueError, match="v_dd must be finite"):
                RoConfig(n=100, m=64, v_dd=v_dd)

    def test_period_scale_fits_a_float(self):
        """2 n m is compared with the largest float as an integer, so the
        bound is exact, and a larger product is refused before any period
        algebra would overflow converting it."""
        m = int(sys.float_info.max) // 6
        assert RoConfig(n=3, m=m, v_dd=0.9).period_scale <= sys.float_info.max
        with pytest.raises(ValueError, match=r"^2 \* n \* m must not exceed the largest float"):
            RoConfig(n=3, m=m + 1, v_dd=0.9)
        with pytest.raises(ValueError, match="largest float"):
            RoConfig(n=10**307, m=64, v_dd=0.9)

    def test_invalid_stage_delay(self):
        with pytest.raises(ValueError):
            osc_frequency(100, 0.0)
        with pytest.raises(ValueError):
            counter_period(CONFIG, -1e-12)

    def test_frequency_needs_a_stage(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            osc_frequency(0, 5e-12)

    @pytest.mark.parametrize("t_osc", [0.0, -8.166e-8, np.array([8.166e-8, 0.0])],
                             ids=["zero", "negative", "array"])
    def test_non_positive_period_rejected(self, t_osc):
        """A scalar, and an array with one non-positive entry, are refused."""
        with pytest.raises(ValueError, match="^t_osc must be > 0, got "):
            stage_delay_from_period(CONFIG, t_osc)


def row(**values):
    return MeasurementRecord(
        **{**dict(geometry="g", fanout=Fanout.FO1, mode=CrosstalkMode.QUIET,
                  t_osc=1e-9, i_eff=1e-6), **values}
    )


class TestMeasurementRecord:
    """Records built in code enter a Measurements table through
    from_records, which checks their values."""

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="t_osc"):
            Measurements.from_records([row(), row(t_osc=0.0)])
        with pytest.raises(ValueError, match="i_eff"):
            Measurements.from_records([row(i_eff=0.0)])

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("t_osc", dict(t_osc=math.inf)),
            ("t_osc", dict(t_osc=math.nan)),
            ("i_eff", dict(i_eff=math.inf)),
            ("i_eff", dict(i_eff=math.nan)),
        ],
    )
    def test_non_finite_fields(self, field, kwargs):
        with pytest.raises(ValueError, match=f"{field} .*must be finite"):
            Measurements.from_records([row(**kwargs)])

    def test_label_and_key(self):
        rec = row(geometry="1W1S", fanout=Fanout.FO2, die="D3")
        assert rec.label() == "D3/1W1S/FO2/quiet"
        assert row(geometry="1W1S", fanout=Fanout.FO2).label() == "1W1S/FO2/quiet"
        table = Measurements.from_records([row(), rec])
        assert [r.label() for r in table] == [
            "g/FO1/quiet", "D3/1W1S/FO2/quiet"
        ]

    def test_table_round_trips_its_rows(self):
        rows = [row(), row(die="D1", mode=CrosstalkMode.IN_PHASE, t_osc=2e-9)]
        table = Measurements.from_records(rows)
        assert list(table) == rows
        assert table.t_osc.dtype == np.float64
        assert table.i_eff.dtype == np.float64
        assert list(table.where("die", "D1")) == rows[1:]
        assert list(table.take(np.array([1, 0]))) == rows[::-1]


class TestSynthesis:
    def test_noise_without_rng_draws_its_own_generator(self):
        """noise_sigma > 0 with no rng perturbs every period and current
        with a fresh generator: finite, positive and off the noiseless values."""
        clean = synthesize_measurements(TRUTH_1W1S, CONFIG)
        noisy = synthesize_measurements(TRUTH_1W1S, CONFIG, noise_sigma=1e-3)
        for column in ("t_osc", "i_eff"):
            got, want = getattr(noisy, column), getattr(clean, column)
            assert np.all(np.isfinite(got)) and np.all(got > 0.0)
            assert np.all(got != want)
            assert got == pytest.approx(want, rel=0.02, abs=0.0)

    def test_record_set_shape(self):
        records = synthesize_measurements(TRUTH_1W1S, CONFIG)
        assert [(rec.fanout, rec.mode) for rec in records] == [
            (fanout, mode)
            for fanout in (Fanout.FO1, Fanout.FO2)
            for mode in (
                CrosstalkMode.IN_PHASE,
                CrosstalkMode.OUT_OF_PHASE,
                CrosstalkMode.QUIET,
            )
        ]

    def test_reproduces_in_phase_periods_and_current(self):
        """The forward model must return the exact in-phase periods and
        supply current that the bundled extraction came from."""
        records = synthesize_measurements(TRUTH_1W1S, CONFIG)
        by_key = {(rec.fanout, rec.mode): rec for rec in records}
        fo1 = by_key[(Fanout.FO1, CrosstalkMode.IN_PHASE)]
        fo2 = by_key[(Fanout.FO2, CrosstalkMode.IN_PHASE)]
        assert fo1.t_osc == pytest.approx(81.66e-9, rel=1e-12)
        assert fo2.t_osc == pytest.approx(101.35e-9, rel=1e-12)
        assert fo1.i_eff == pytest.approx(891.50e-6, rel=1e-12)

    def test_current_uniform_across_records(self):
        records = synthesize_measurements(TRUTH_1W1S, CONFIG)
        currents = {rec.i_eff for rec in records}
        assert currents == {CONFIG.v_dd / (2.0 * TRUTH_1W1S.r_sw)}

    @pytest.mark.parametrize("trial", range(20))
    def test_zero_noise_round_trip(self, trial):
        """extract_all inverts the noiseless forward model exactly."""
        rng = np.random.default_rng(5000 + trial)
        c_gate = float(rng.uniform(1.0, 5.0)) * 1e-15
        c_int = float(rng.uniform(3.0, 10.0)) * 1e-15
        c_c = float(rng.uniform(0.4, 1.8)) * (c_int + 2.0 * c_gate)
        truth = SynthesisTruth(
            r_sw=float(rng.uniform(100.0, 1000.0)),
            c_gate=c_gate,
            c_int=c_int,
            c_c=c_c,
        )
        records = synthesize_measurements(truth, CONFIG)
        result = extract_all(records, CONFIG).one()
        assert result["r_sw"] == pytest.approx(truth.r_sw, rel=1e-9)
        assert result["c_gate"] == pytest.approx(truth.c_gate, rel=1e-9)
        assert result["c_int"] == pytest.approx(truth.c_int, rel=1e-9)
        assert result["c_c"] == pytest.approx(truth.c_c, rel=1e-9)
        # the coupled-delay pair sees the single-gate stage load
        assert result["c_ground"] == pytest.approx(
            truth.c_int + truth.c_gate, rel=1e-9
        )
        assert result["c_total"] == pytest.approx(
            truth.c_int + truth.c_gate, rel=1e-9
        )

    def test_noise_requires_nonnegative_sigma(self):
        with pytest.raises(ValueError):
            synthesize_measurements(TRUTH_1W1S, CONFIG, noise_sigma=-0.1)

    def test_truth_validation(self):
        with pytest.raises(ValueError):
            SynthesisTruth(r_sw=0.0, c_gate=1e-15, c_int=1e-15, c_c=1e-15)
        with pytest.raises(ValueError):
            SynthesisTruth(r_sw=100.0, c_gate=-1e-15, c_int=1e-15, c_c=1e-15)

    def test_monte_carlo_noise_propagation(self):
        """1 % multiplicative measurement noise keeps the gate-capacitance
        estimate unbiased to 2 % with a relative spread under 5 %."""
        truth = SynthesisTruth(r_sw=500.0, c_gate=5e-15, c_int=7e-15, c_c=9e-15)
        rng = np.random.default_rng(12345)
        estimates = []
        for _ in range(1000):
            records = synthesize_measurements(
                truth, CONFIG, noise_sigma=0.01, rng=rng
            )
            estimates.append(extract_all(records, CONFIG).one()["c_gate"])
        estimates = np.array(estimates)
        rel_std = float(np.std(estimates) / truth.c_gate)
        rel_bias = float(abs(np.mean(estimates) - truth.c_gate) / truth.c_gate)
        assert 0.001 < rel_std < 0.05
        assert rel_bias < 0.02
