"""Tests for the closed-form lump model: coefficients, transfer functions,
step responses and threshold delays."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ringrc import (
    AGGRESSOR_STEP,
    CrosstalkMode,
    DegenerateDelayError,
    DrivePattern,
    LineRC,
    PoleProximityError,
    first_order_delay,
    lump_coefficients,
    published_out_of_phase_response,
    step_response_victim,
    taylor_inversion_reference,
    threshold_delay,
    transfer_eval,
)
from ringrc.lumpmodel import bisect_crossing

# Hand-checkable reference line: R = 1 kohm, C = 1 fF, C_c = 2 fF.
REF = LineRC(r=1e3, c=1e-15, c_c=2e-15, v_dd=1.0)
# Bundled 1W1S line model.
W1S = LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)


def random_line(rng, cc_lo=0.05, cc_hi=2.0):
    r = float(rng.uniform(100.0, 2000.0))
    c = float(rng.uniform(1.0, 20.0)) * 1e-15
    c_c = float(rng.uniform(cc_lo, cc_hi)) * c
    v_dd = float(rng.uniform(0.7, 1.2))
    return LineRC(r=r, c=c, c_c=c_c, v_dd=v_dd)


class TestLineRC:
    def test_time_constants(self):
        assert REF.tau_ground == pytest.approx(1e-12, rel=1e-12, abs=0.0)
        assert REF.tau_coupled == pytest.approx(7e-12, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=0.0, c=1e-15, c_c=0.0, v_dd=1.0),
            dict(r=1e3, c=0.0, c_c=0.0, v_dd=1.0),
            dict(r=1e3, c=1e-15, c_c=-1e-18, v_dd=1.0),
            dict(r=1e3, c=1e-15, c_c=0.0, v_dd=0.0),
            dict(r=math.inf, c=1e-15, c_c=0.0, v_dd=1.0),
            dict(r=1e3, c=math.nan, c_c=0.0, v_dd=1.0),
            dict(r=1e3, c=1e-15, c_c=math.inf, v_dd=1.0),
            dict(r=1e3, c=1e-15, c_c=0.0, v_dd=math.inf),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LineRC(**kwargs)


class TestLumpCoefficients:
    def test_reference_values(self):
        """All thirteen coefficients for the hand-checkable line."""
        c = lump_coefficients(REF)
        assert c.a1 == pytest.approx(8e-12, rel=1e-12, abs=0.0)
        assert c.a2 == pytest.approx(1.1e-23, rel=1e-12, abs=0.0)
        assert c.a3 == pytest.approx(2e-12, rel=1e-12, abs=0.0)
        assert c.a4 == pytest.approx(6e-24, rel=1e-12, abs=0.0)
        assert c.a5 == pytest.approx(4e-24, rel=1e-12, abs=0.0)
        assert c.a6 == pytest.approx(2e-12, rel=1e-12, abs=0.0)
        assert c.a7 == pytest.approx(3e-12, rel=1e-12, abs=0.0)
        assert c.a8 == pytest.approx(2e-12, rel=1e-12, abs=0.0)
        assert c.b1 == pytest.approx(1e-12, rel=1e-12, abs=0.0)
        assert c.b2 == pytest.approx(3e-12, rel=1e-12, abs=0.0)
        assert c.b3 == pytest.approx(7e-12, rel=1e-12, abs=0.0)
        assert c.b4 == c.b1
        assert c.b5 == c.b3

    def test_bundled_1w1s_poles(self):
        c = lump_coefficients(W1S)
        assert c.b1 == pytest.approx(3.3264e-12, rel=1e-9, abs=0.0)
        assert c.b2 == pytest.approx(7.3584e-12, rel=1e-9, abs=0.0)
        assert c.b3 == pytest.approx(15.4224e-12, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_coefficient_structure_random(self, trial):
        """a6 = a8 = a3 and the victim denominator reuses b1, b3."""
        rng = np.random.default_rng(2000 + trial)
        c = lump_coefficients(random_line(rng))
        assert c.a6 == c.a8 == c.a3
        assert c.b4 == c.b1
        assert c.b5 == c.b3
        assert c.b1 < c.b2 < c.b3


class TestTransferEval:
    def test_dc_asymptote(self):
        """s V(s) approaches the drive amplitude as s -> 0."""
        coeffs = lump_coefficients(REF)
        drive = DrivePattern(0.3, 0.9, -0.4)
        s = 1e4
        v_a, v_b, v_c = transfer_eval(coeffs, drive, s)
        assert s * v_a == pytest.approx(0.3, rel=1e-6)
        assert s * v_b == pytest.approx(0.9, rel=1e-6)
        assert s * v_c == pytest.approx(-0.4, rel=1e-6)

    def test_outer_line_swap_symmetry(self):
        """Swapping the outer drives swaps V_A and V_C, keeps V_B."""
        coeffs = lump_coefficients(W1S)
        s = 2e10 + 3e10j
        fwd = transfer_eval(coeffs, DrivePattern(0.2, 0.9, -0.5), s)
        rev = transfer_eval(coeffs, DrivePattern(-0.5, 0.9, 0.2), s)
        assert fwd[1] == pytest.approx(rev[1], rel=1e-12, abs=0.0)
        assert fwd[0] == pytest.approx(rev[2], rel=1e-12, abs=0.0)
        assert fwd[2] == pytest.approx(rev[0], rel=1e-12, abs=0.0)

    def test_pole_evaluation_rejected(self):
        coeffs = lump_coefficients(REF)
        drive = DrivePattern(1.0, 1.0, 1.0)
        with pytest.raises(PoleProximityError):
            transfer_eval(coeffs, drive, -1.0 / coeffs.b1)
        with pytest.raises(PoleProximityError):
            transfer_eval(coeffs, drive, -1.0 / coeffs.b3)

    def test_step_pole_rejected(self):
        coeffs = lump_coefficients(REF)
        with pytest.raises(PoleProximityError):
            transfer_eval(coeffs, DrivePattern(1.0, 1.0, 1.0), 1e-30)

    def test_in_phase_collapses_to_single_rc(self):
        """With all three lines driven together no coupling current flows,
        so every node matches the uncoupled RC divider."""
        coeffs = lump_coefficients(W1S)
        v = W1S.v_dd
        for s in (1e9, 1e10 + 5e10j, 3e11):
            v_a, v_b, v_c = transfer_eval(coeffs, DrivePattern(v, v, v), s)
            expected = v / s / (1.0 + W1S.tau_ground * s)
            assert v_a == pytest.approx(expected, rel=1e-9)
            assert v_b == pytest.approx(expected, rel=1e-9)
            assert v_c == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("trial", range(5))
    def test_victim_matches_modal_form(self, trial):
        """The coefficient table's victim equals the modal Laplace form
        sum_m w_m v_dd / (s (1 + s tau_m)), with weights w = (1 + 2 sigma)/3
        and 1 - w on tau = R C and R (C + 3 C_c), for every mode."""
        rng = np.random.default_rng(2500 + trial)
        line = random_line(rng, cc_lo=0.0)
        coeffs = lump_coefficients(line)
        scale = 1.0 / line.tau_ground
        for mode, sigma in AGGRESSOR_STEP.items():
            w = (1.0 + 2.0 * sigma) / 3.0
            drive = DrivePattern.for_mode(mode, line.v_dd)
            for s in (complex(0.1, 0.5), complex(1.0, 4.0), complex(7.3, 0.5)):
                s *= scale
                _, v_b, _ = transfer_eval(coeffs, drive, s)
                modal = line.v_dd / s * (
                    w / (1.0 + s * line.tau_ground)
                    + (1.0 - w) / (1.0 + s * line.tau_coupled)
                )
                assert abs(v_b - modal) <= 1e-12 * abs(modal), mode


class TestStepResponse:
    def test_starts_at_zero_except_out_of_phase(self):
        """Every exact form starts at 0; the exception is the published
        linearized out-of-phase form, which starts at the rail."""
        assert step_response_victim(CrosstalkMode.IN_PHASE, REF, 0.0) == 0.0
        for mode in (CrosstalkMode.QUIET, CrosstalkMode.OUT_OF_PHASE):
            assert step_response_victim(mode, REF, 0.0) == (
                pytest.approx(0.0, abs=1e-15)
            )
        assert published_out_of_phase_response(REF, 0.0) == pytest.approx(
            REF.v_dd, rel=1e-12
        )

    def test_settles_to_rail(self):
        t = 200.0 * REF.tau_coupled
        for mode in CrosstalkMode:
            assert step_response_victim(mode, REF, t) == pytest.approx(
                REF.v_dd, rel=1e-9
            )

    def test_in_phase_is_single_pole(self):
        t = np.linspace(0.0, 10e-12, 101)
        got = step_response_victim(CrosstalkMode.IN_PHASE, REF, t)
        want = REF.v_dd * (1.0 - np.exp(-t / REF.tau_ground))
        assert np.max(np.abs(got - want)) < 1e-15

    def test_quiet_reference_value(self):
        """Frozen value at t = 1 ps for the 1 kohm / 1 fF / 2 fF line:
        1 - exp(-1)/3 - 2 exp(-1/7)/3."""
        got = step_response_victim(CrosstalkMode.QUIET, REF, 1e-12)
        assert got == pytest.approx(0.2994549197760647, rel=1e-12)

    def test_out_of_phase_reference_value(self):
        """The published linearized form at t = 1 ps for the reference line:
        1 + 2 exp(-1)/3 - 2 exp(-1/7)/3."""
        got = published_out_of_phase_response(REF, 1e-12)
        assert got == pytest.approx(0.6673343609475068, rel=1e-12)

    def test_exact_out_of_phase_reference_value(self):
        """1 + exp(-1)/3 - 4 exp(-1/7)/3 at t = 1 ps: with C_c > C the exact
        out-of-phase victim first dips below zero."""
        got = step_response_victim(CrosstalkMode.OUT_OF_PHASE, REF, 1e-12)
        assert got == pytest.approx(-0.03321071927642806, rel=1e-12)

    def test_out_of_phase_minus_quiet_is_fast_exponential(self):
        """The published out-of-phase form differs from the quiet form
        by exactly v_dd * exp(-t / (R C)) at every time."""
        rng = np.random.default_rng(7)
        line = random_line(rng)
        t = np.sort(rng.uniform(0.0, 20.0 * line.tau_coupled, size=50))
        diff = published_out_of_phase_response(line, t) - step_response_victim(
            CrosstalkMode.QUIET, line, t
        )
        want = line.v_dd * np.exp(-t / line.tau_ground)
        assert np.max(np.abs(diff - want)) < 1e-12 * line.v_dd

    def test_vectorized_matches_scalar(self):
        t = np.array([0.0, 0.5e-12, 2e-12, 9e-12])
        vec = step_response_victim(CrosstalkMode.QUIET, REF, t)
        for i, ti in enumerate(t):
            assert vec[i] == step_response_victim(CrosstalkMode.QUIET, REF, ti)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            step_response_victim(CrosstalkMode.QUIET, REF, -1e-12)


class TestThresholdDelay:
    def test_in_phase_is_rc_log2(self):
        got = threshold_delay(CrosstalkMode.IN_PHASE, W1S)
        assert got == pytest.approx(W1S.tau_ground * math.log(2.0), rel=1e-12, abs=0.0)

    def test_in_phase_alternate_threshold(self):
        got = threshold_delay(CrosstalkMode.IN_PHASE, W1S, threshold_fraction=0.9)
        assert got == pytest.approx(W1S.tau_ground * math.log(10.0), rel=1e-12, abs=0.0)

    def test_quiet_reference_value(self):
        """Frozen against an independent dense-grid scan of the quiet form."""
        got = threshold_delay(CrosstalkMode.QUIET, W1S)
        assert got == pytest.approx(6.147827e-12, rel=3e-6, abs=0.0)

    def test_out_of_phase_reference_value(self):
        """Frozen from the oracle's single-lump out-of-phase crossing."""
        got = threshold_delay(CrosstalkMode.OUT_OF_PHASE, W1S)
        assert got == pytest.approx(15.01449e-12, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("mode", list(CrosstalkMode))
    def test_brackets_exact_crossing(self, mode, fraction):
        """The exact response is below the threshold 1e-12 relative before
        the returned delay and at or above it 1e-12 after, also for strong
        coupling, where the out-of-phase victim first dips below zero."""
        rng = np.random.default_rng(99)
        for _ in range(10):
            line = random_line(rng, cc_lo=0.0, cc_hi=5.0)
            t = threshold_delay(mode, line, fraction)
            target = fraction * line.v_dd
            assert step_response_victim(mode, line, t * (1.0 - 1e-12)) < target
            assert step_response_victim(mode, line, t * (1.0 + 1e-12)) >= target

    def test_quiet_slower_than_in_phase(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            line = random_line(rng)
            t_q = threshold_delay(CrosstalkMode.QUIET, line)
            t_i = threshold_delay(CrosstalkMode.IN_PHASE, line)
            assert t_q > t_i

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            threshold_delay(CrosstalkMode.QUIET, W1S, threshold_fraction=0.0)
        with pytest.raises(ValueError):
            threshold_delay(CrosstalkMode.QUIET, W1S, threshold_fraction=1.0)


class TestCrossingSearch:
    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)), min_size=1, max_size=12),
        st.floats(1e-9, 1.0, exclude_max=True),
        st.integers(8, 4096),
    )
    # a subnormal slope: f / slope overflowed to a RuntimeWarning in numpy floats
    @example([(0.0, 1.0), (-3.0, 2.225073858507203e-309)], 0.5, 8)
    def test_brackets_the_crossing_on_adjacent_floats(self, modes, fraction, samples):
        """Whatever the modes (rates over six decades, residues of either
        sign, so V may dip or overshoot), the Newton search keeps the
        bisection contract: from a grid bracket V(lo) < threshold <= V(hi)
        it returns a time t in (lo, hi] with V(t) >= threshold and V below
        the threshold at the float just before t."""
        rates = 10.0 ** np.array([m[0] for m in modes])
        residues = np.array([m[1] for m in modes])

        def v(t):
            return residues.sum() - residues @ np.exp(-rates * t)

        times = np.linspace(0.0, 30.0 / rates.min(), samples)
        values = residues.sum() - np.exp(-np.outer(times, rates)) @ residues
        assume(values.max() > 0.0)
        threshold = fraction * values.max()
        first = int(np.flatnonzero(values >= threshold)[0])
        assume(first > 0)
        lo, hi = times[first - 1], times[first]
        assume(v(lo) < threshold <= v(hi))
        got = bisect_crossing(rates, residues, threshold, lo, hi)
        assert lo < got <= hi
        assert v(got) >= threshold
        assert v(np.nextafter(got, -np.inf)) < threshold

    def test_matches_bisection_to_rounding(self):
        """On the bundled line's three modes the search lands on the float
        that bisection finds, or within rounding of it."""
        for mode in CrosstalkMode:
            w = (1.0 + 2.0 * AGGRESSOR_STEP[mode]) / 3.0
            rates = np.array([1.0 / W1S.tau_ground, 1.0 / W1S.tau_coupled])
            residues = W1S.v_dd * np.array([w, 1.0 - w])
            for fraction in (0.1, 0.5, 0.9):
                threshold, lo, hi = fraction * W1S.v_dd, 0.0, 10.0 * W1S.tau_coupled
                got = bisect_crossing(rates, residues, threshold, lo, hi)
                while lo < 0.5 * (lo + hi) < hi:
                    mid = 0.5 * (lo + hi)
                    if residues.sum() - residues @ np.exp(-rates * mid) >= threshold:
                        hi = mid
                    else:
                        lo = mid
                assert got == pytest.approx(hi, rel=4e-16, abs=0.0), (mode, fraction)


class TestFirstOrderDelay:
    def test_in_phase_half_rc(self):
        assert first_order_delay(CrosstalkMode.IN_PHASE, REF) == 0.5e-12

    def test_quiet_reference_value(self):
        """(1/2) / (1/(3 R C) + 2/(9 R C_c)) for the reference line."""
        got = first_order_delay(CrosstalkMode.QUIET, REF)
        assert got == pytest.approx(1.125e-12, rel=1e-12, abs=0.0)

    def test_out_of_phase_reference_value(self):
        got = first_order_delay(CrosstalkMode.OUT_OF_PHASE, REF)
        assert got == pytest.approx(0.9e-12, rel=1e-12, abs=0.0)

    def test_large_coupling_limits(self):
        """C_c >> C: quiet -> 3 R C / 2 and out-of-phase -> 3 R C / 4."""
        line = LineRC(r=1e3, c=1e-15, c_c=1e-9, v_dd=1.0)
        rc = line.tau_ground
        assert first_order_delay(CrosstalkMode.QUIET, line) == pytest.approx(
            1.5 * rc, rel=1e-5, abs=0.0
        )
        assert first_order_delay(
            CrosstalkMode.OUT_OF_PHASE, line
        ) == pytest.approx(0.75 * rc, rel=1e-5, abs=0.0)

    def test_out_of_phase_degenerate_region(self):
        """The linearized out-of-phase delay has no crossing at C_c <= C/3."""
        line = LineRC(r=1e3, c=3e-15, c_c=1e-15, v_dd=1.0)
        with pytest.raises(DegenerateDelayError):
            first_order_delay(CrosstalkMode.OUT_OF_PHASE, line)
        ok = LineRC(r=1e3, c=3e-15, c_c=1.05e-15, v_dd=1.0)
        assert first_order_delay(CrosstalkMode.OUT_OF_PHASE, ok) > 0.0

    def test_zero_coupling_rejected(self):
        line = LineRC(r=1e3, c=1e-15, c_c=0.0, v_dd=1.0)
        with pytest.raises(ValueError):
            first_order_delay(CrosstalkMode.QUIET, line)

    def test_unknown_mode_rejected(self):
        """A value that is not a CrosstalkMode, even its string value, is refused."""
        with pytest.raises(ValueError, match="^unknown mode 'quiet'$"):
            first_order_delay("quiet", REF)

    @pytest.mark.parametrize("trial", range(10))
    def test_linearization_bounds_exact_delay(self, trial):
        """The linearized response overshoots the exact concave one, so the
        linearized half-swing time is a lower bound."""
        rng = np.random.default_rng(3000 + trial)
        line = random_line(rng)
        assert first_order_delay(
            CrosstalkMode.IN_PHASE, line
        ) <= threshold_delay(CrosstalkMode.IN_PHASE, line)
        assert first_order_delay(CrosstalkMode.QUIET, line) <= threshold_delay(
            CrosstalkMode.QUIET, line
        )

    def test_taylor_inversion_reference_is_doubled(self):
        assert taylor_inversion_reference(
            CrosstalkMode.QUIET, REF
        ) == 2.0 * first_order_delay(CrosstalkMode.QUIET, REF)
