"""Tests for the state-space transient oracle."""

import numpy as np
import pytest

from ringrc import (
    CrosstalkMode,
    DrivePattern,
    LineRC,
    NetworkStateSpace,
    NoCrossingError,
    build_network,
    crossing_time,
    frequency_response,
    lump_coefficients,
    quiet_delay_ratio,
    simulate_step,
    step_response_victim,
    threshold_delay,
    transfer_eval,
    victim_delay,
)
from ringrc.simulator import SAMPLES

W1S = LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)


def random_line(rng):
    r = float(rng.uniform(100.0, 2000.0))
    c = float(rng.uniform(1.0, 20.0)) * 1e-15
    c_c = float(rng.uniform(0.05, 2.0)) * c
    v_dd = float(rng.uniform(0.7, 1.2))
    return LineRC(r=r, c=c, c_c=c_c, v_dd=v_dd)


class TestBuildNetwork:
    def test_lump_matrices(self):
        """Single-lump network: one node per line, coupling off-diagonals."""
        net = build_network(W1S, 1)
        assert net.node_count == 3
        assert net.observed == (0, 1, 2)
        c, cc = W1S.c, W1S.c_c
        want_cap = np.array(
            [
                [c + cc, -cc, 0.0],
                [-cc, c + 2 * cc, -cc],
                [0.0, -cc, c + cc],
            ]
        )
        assert np.allclose(net.capacitance, want_cap, rtol=1e-12)
        assert np.allclose(net.conductance, np.zeros((3, 3)))
        assert np.allclose(net.source_conductance, np.full(3, 1.0 / W1S.r))
        assert list(net.source_line) == [0, 1, 2]

    def test_two_segment_structure(self):
        """Two segments: six nodes, halved elements, chained resistance."""
        net = build_network(W1S, 2)
        assert net.node_count == 6
        # far-end nodes of the three lines
        assert net.observed == (1, 3, 5)
        g_seg = 2.0 / W1S.r
        # only the first node of each line connects to its source
        assert np.allclose(
            net.source_conductance, [g_seg, 0.0, g_seg, 0.0, g_seg, 0.0]
        )
        assert list(net.source_line) == [0, -1, 1, -1, 2, -1]
        # chain conductance between the two nodes of line A
        assert net.conductance[0, 1] == pytest.approx(-g_seg, rel=1e-12, abs=0.0)
        assert net.conductance[0, 0] == pytest.approx(g_seg, rel=1e-12, abs=0.0)
        # per-segment coupling between line A seg 0 and line B seg 0
        assert net.capacitance[0, 2] == pytest.approx(-W1S.c_c / 2, rel=1e-12, abs=0.0)
        # no direct coupling between the outer lines
        assert net.capacitance[0, 4] == 0.0
        assert net.capacitance[1, 5] == 0.0

    def test_totals_independent_of_segmentation(self):
        for segments in (1, 3, 10):
            net = build_network(W1S, segments)
            # total ground capacitance per line is preserved
            line_b_nodes = range(segments, 2 * segments)
            total_c = sum(
                net.capacitance[i, i]
                + sum(net.capacitance[i, j] for j in range(net.node_count) if j != i)
                for i in line_b_nodes
            )
            assert total_c == pytest.approx(W1S.c, rel=1e-9, abs=0.0)

    def test_lump_time_constants_match_poles(self):
        """Eigenvalues of the lump network reproduce the three transfer
        function time constants R C, R (C + C_c), R (C + 3 C_c)."""
        net = build_network(W1S, 1)
        a = np.linalg.solve(
            net.capacitance,
            net.conductance + np.diag(net.source_conductance),
        )
        taus = np.sort(1.0 / np.abs(np.real(np.linalg.eigvals(a))))
        coeffs = lump_coefficients(W1S)
        assert taus[0] == pytest.approx(coeffs.b1, rel=1e-9, abs=0.0)
        assert taus[1] == pytest.approx(coeffs.b2, rel=1e-9, abs=0.0)
        assert taus[2] == pytest.approx(coeffs.b3, rel=1e-9, abs=0.0)
        fast, slow = net.time_constants()
        assert fast == pytest.approx(coeffs.b1, rel=1e-9, abs=0.0)
        assert slow == pytest.approx(coeffs.b3, rel=1e-9, abs=0.0)

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            build_network(W1S, 0)


class TestSimulateStep:
    def test_uncoupled_line_matches_rc_charging(self):
        """With zero coupling every line is an exact single-pole RC."""
        line = LineRC(r=1e3, c=5e-15, c_c=0.0, v_dd=1.0)
        net = build_network(line, 1)
        result = simulate_step(net, DrivePattern(1.0, 1.0, 1.0))
        t = result.victim.times
        want = 1.0 - np.exp(-t / line.tau_ground)
        assert np.max(np.abs(result.victim.values - want)) < 1e-6

    def test_zero_drive_stays_zero(self):
        net = build_network(W1S, 1)
        result = simulate_step(net, DrivePattern(0.0, 0.0, 0.0))
        for wf in (result.line_a, result.line_b, result.line_c):
            assert np.all(wf.values == 0.0)

    def test_settles_to_drive_amplitudes(self):
        net = build_network(W1S, 1)
        result = simulate_step(net, DrivePattern(-0.9, 0.9, 0.3))
        assert result.line_a.values[-1] == pytest.approx(-0.9, abs=1e-9)
        assert result.line_b.values[-1] == pytest.approx(0.9, abs=1e-9)
        assert result.line_c.values[-1] == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize(
        "mode",
        [CrosstalkMode.IN_PHASE, CrosstalkMode.QUIET, CrosstalkMode.OUT_OF_PHASE],
    )
    def test_lump_matches_closed_form(self, mode):
        net = build_network(W1S, 1)
        result = simulate_step(net, DrivePattern.for_mode(mode, W1S.v_dd))
        want = step_response_victim(mode, W1S, result.victim.times)
        dev = np.max(np.abs(result.victim.values - want))
        assert dev < 1e-4 * W1S.v_dd

    def test_delay_ordering(self):
        delays = {mode: victim_delay(W1S, mode) for mode in CrosstalkMode}
        assert (
            delays[CrosstalkMode.IN_PHASE]
            < delays[CrosstalkMode.QUIET]
            < delays[CrosstalkMode.OUT_OF_PHASE]
        )

    @pytest.mark.parametrize("trial", range(5))
    def test_lump_matches_exact_responses(self, trial):
        """Every mode of the lump victim matches its exact response to
        1e-12 of the rail; out-of-phase projects the drive onto the modes
        with capacitances C and C + 3 C_c."""
        line = random_line(np.random.default_rng(5000 + trial))
        net = build_network(line, 1)
        for mode in CrosstalkMode:
            victim = simulate_step(
                net, DrivePattern.for_mode(mode, line.v_dd)
            ).victim
            t = victim.times
            if mode is CrosstalkMode.OUT_OF_PHASE:
                want = line.v_dd * (
                    1.0
                    + np.exp(-t / line.tau_ground) / 3.0
                    - 4.0 / 3.0 * np.exp(-t / line.tau_coupled)
                )
            else:
                want = step_response_victim(mode, line, t)
            dev = np.max(np.abs(victim.values - want))
            assert dev <= 1e-12 * line.v_dd, mode

    @pytest.mark.parametrize("t_end", [None, 1e-9])
    @pytest.mark.parametrize("segments", [1, 7, 50])
    def test_underflow_skip_is_bit_identical(self, segments, t_end):
        """Skipping the samples where a mode's exponential has underflowed
        gives exactly the untruncated modal sum."""
        net = build_network(W1S, segments)
        for mode in CrosstalkMode:
            result = simulate_step(
                net, DrivePattern.for_mode(mode, W1S.v_dd), t_end=t_end
            )
            times = result.victim.times
            want = np.tile(result.residues.sum(axis=1), (SAMPLES, 1))
            for rate, residue in zip(result.rates, result.residues.T):
                want -= np.outer(np.exp(-rate * times), residue)
            got = np.column_stack(
                [result.line_a.values, result.line_b.values, result.line_c.values]
            )
            assert np.array_equal(got, want), mode
        # within these spans the fastest mode underflows on segmented
        # networks only, so both the skipping and the full path are covered
        assert (np.exp(-result.rates[-1] * times[-1]) == 0.0) == (segments > 1)

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("mode", list(CrosstalkMode))
    def test_delay_matches_closed_form(self, mode, fraction):
        got = victim_delay(W1S, mode, threshold_fraction=fraction)
        want = threshold_delay(mode, W1S, fraction)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_constant_sample_count(self):
        net = build_network(W1S, 3)
        drive = DrivePattern(0.9, 0.9, 0.9)
        _, slow = net.time_constants()
        for t_end, span in ((None, 30.0 * slow), (2e-12, 2e-12)):
            victim = simulate_step(net, drive, t_end=t_end).victim
            assert len(victim.values) == SAMPLES
            assert victim.times[0] == 0.0
            assert victim.times[-1] == pytest.approx(span, rel=1e-12, abs=0.0)

    def test_non_passive_network_rejected(self):
        """A hand-built network with net negative conductance has no
        settled response; it must be rejected, not returned."""
        net = NetworkStateSpace(
            capacitance=np.array([[1.0]]),
            conductance=np.array([[-2.0]]),
            source_conductance=np.array([1.0]),
            source_line=np.array([0]),
            observed=(0, 0, 0),
        )
        with pytest.raises(ValueError, match="not passive"):
            simulate_step(net, DrivePattern(1.0, 0.0, 0.0))

    def test_asymmetric_network_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            NetworkStateSpace(
                capacitance=np.array([[1.0, 0.5], [0.0, 1.0]]),
                conductance=np.zeros((2, 2)),
                source_conductance=np.zeros(2),
                source_line=np.array([-1, -1]),
                observed=(0, 1, 1),
            )
        # the same defect at femtofarad scale: C[0, 1] = -4 fF, C[1, 0] = -8 fF
        net = build_network(W1S, 1)
        net.capacitance[0, 1] /= 2.0
        with pytest.raises(ValueError, match="symmetric"):
            NetworkStateSpace(**vars(net))


class TestFrequencyResponse:
    @pytest.mark.parametrize("trial", range(5))
    def test_matches_transfer_functions(self, trial):
        """Direct (G + sC) solves agree with the closed-form transfer
        functions to 1e-9 relative over a complex frequency grid."""
        rng = np.random.default_rng(4000 + trial)
        line = random_line(rng)
        net = build_network(line, 1)
        coeffs = lump_coefficients(line)
        drive = DrivePattern(
            float(rng.uniform(-1.0, 1.0)),
            line.v_dd,
            float(rng.uniform(-1.0, 1.0)),
        )
        scale = 1.0 / line.tau_ground
        for alpha in (0.1, 1.0, 7.3):
            for beta in (0.0, 0.5, 4.0):
                s = complex(alpha * scale, beta * scale)
                nodes = frequency_response(net, drive, s)
                closed = transfer_eval(coeffs, drive, s)
                for k in range(3):
                    got = nodes[net.observed[k]]
                    assert abs(got - closed[k]) <= 1e-9 * max(
                        abs(closed[k]), 1e-30
                    )

    def test_zero_frequency_rejected(self):
        net = build_network(W1S, 1)
        with pytest.raises(ValueError):
            frequency_response(net, DrivePattern(0.9, 0.9, 0.9), 0.0)


class TestCrossingTime:
    # with zero coupling the victim is a single-pole RC charging curve
    UNCOUPLED = LineRC(r=1e3, c=5e-15, c_c=0.0, v_dd=1.0)

    def result(self, t_end=None):
        net = build_network(self.UNCOUPLED, 1)
        return simulate_step(net, DrivePattern(1.0, 1.0, 1.0), t_end=t_end)

    def test_bisection_reaches_exact_root(self):
        for fraction in (0.1, 0.5, 0.9):
            want = -self.UNCOUPLED.tau_ground * np.log(1.0 - fraction)
            got = crossing_time(self.result(), fraction)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_first_sample_already_above(self):
        assert crossing_time(self.result(), -0.1) == 0.0

    def test_no_crossing_raises(self):
        with pytest.raises(NoCrossingError):
            crossing_time(self.result(), 1.1)
        # reachable, but not within the simulated span
        with pytest.raises(NoCrossingError):
            crossing_time(self.result(t_end=1e-13), 0.5)


class TestDistributedScaling:
    def test_quiet_ratio_near_half(self):
        """Splitting the line into many segments cuts the threshold delay
        to about 0.6 of the single lump's."""
        ratio = quiet_delay_ratio(W1S, 50)
        assert 0.35 <= ratio <= 0.65

    def test_single_segment_ratio_is_one(self):
        ratio = quiet_delay_ratio(W1S, 1)
        assert ratio == pytest.approx(1.0, rel=1e-5)

    def test_ratio_decreases_with_segments(self):
        r2 = quiet_delay_ratio(W1S, 2)
        r8 = quiet_delay_ratio(W1S, 8)
        assert r8 < r2 < 1.0
