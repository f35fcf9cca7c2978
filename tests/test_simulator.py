"""Tests for the state-space transient oracle."""

import importlib.resources
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringrc import (
    CrosstalkMode,
    DrivePattern,
    LineRC,
    NoCrossingError,
    NumericError,
    ValidationError,
    build_network,
    frequency_response,
    lump_coefficients,
    step_response_victim,
    threshold_delay,
    transfer_eval,
    victim_delay,
)
from ringrc.files import parse_config
from ringrc.lumpmodel import bisect_crossing
from ringrc.simulator import (
    SAMPLES,
    NetworkStateSpace,
    SimulationResult,
    Waveform,
    crossing_time,
    quiet_delay_ratio,
    simulate_step,
)

W1S = LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)
BUNDLED_LINES = parse_config(
    importlib.resources.files("ringrc").joinpath("data", "config_28nm.cfg").read_text()
).lines


def random_line(rng):
    r = float(rng.uniform(100.0, 2000.0))
    c = float(rng.uniform(1.0, 20.0)) * 1e-15
    c_c = float(rng.uniform(0.05, 2.0)) * c
    v_dd = float(rng.uniform(0.7, 1.2))
    return LineRC(r=r, c=c, c_c=c_c, v_dd=v_dd)


def reference_network(line, segments):
    """Element-by-element assembly: each element stamped into the matrices
    one entry at a time, each line's source resistor into G with the
    source grounded."""
    n_seg = segments
    n_nodes = 3 * n_seg
    r_seg = line.r / n_seg
    c_seg = line.c / n_seg
    cc_seg = line.c_c / n_seg
    g_seg = 1.0 / r_seg

    cap = np.zeros((n_nodes, n_nodes))
    cond = np.zeros((n_nodes, n_nodes))
    src_g = np.zeros(n_nodes)
    src_line = np.full(n_nodes, -1, dtype=int)

    def node(line_idx, seg_idx):
        return line_idx * n_seg + seg_idx

    for li in range(3):
        src_g[node(li, 0)] = g_seg
        cond[node(li, 0), node(li, 0)] += g_seg
        src_line[node(li, 0)] = li
        for k in range(n_seg):
            cap[node(li, k), node(li, k)] += c_seg
            if k + 1 < n_seg:
                i, j = node(li, k), node(li, k + 1)
                cond[i, i] += g_seg
                cond[j, j] += g_seg
                cond[i, j] -= g_seg
                cond[j, i] -= g_seg
    for li, lj in ((0, 1), (1, 2)):
        for k in range(n_seg):
            i, j = node(li, k), node(lj, k)
            cap[i, i] += cc_seg
            cap[j, j] += cc_seg
            cap[i, j] -= cc_seg
            cap[j, i] -= cc_seg

    observed = (node(0, n_seg - 1), node(1, n_seg - 1), node(2, n_seg - 1))
    return cap, cond, src_g, src_line, observed


class TestBuildNetwork:
    @pytest.mark.parametrize("segments", [1, 2, 3, 7, 50])
    @pytest.mark.parametrize("geometry", sorted(BUNDLED_LINES))
    def test_matches_element_by_element_assembly(self, geometry, segments):
        """The stamped C, the G derived from the branches and the source
        vector are exactly those of stamping each element entry by entry,
        diagonal sums included."""
        net = build_network(BUNDLED_LINES[geometry], segments)
        cap, cond, src_g, src_line, observed = reference_network(
            BUNDLED_LINES[geometry], segments
        )
        assert np.array_equal(net.capacitance, cap)
        assert np.array_equal(net.conductance, cond)
        amps = np.array([0.9, -0.3, 0.6])
        want_b = np.where(src_line >= 0, src_g * amps[src_line], 0.0)
        assert np.array_equal(net._source_vector(DrivePattern(*amps)), want_b)
        assert net.observed == observed

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
        # each node's only resistor is its source's, grounded in G
        assert np.array_equal(net.branches, np.full(3, 1.0 / W1S.r))
        assert np.array_equal(net.conductance, np.diag(net.branches))

    def test_two_segment_structure(self):
        """Two segments: six nodes, halved elements, chained resistance."""
        net = build_network(W1S, 2)
        assert net.node_count == 6
        # far-end nodes of the three lines
        assert net.observed == (1, 3, 5)
        g_seg = 2.0 / W1S.r
        # every node is fed by one section resistance: from the source at
        # the first node of each line, from the node upstream at the second
        assert net.branches == pytest.approx([g_seg] * 6, rel=1e-12, abs=0.0)
        b = net._source_vector(DrivePattern(1.0, 2.0, 3.0))
        assert list(b / net.branches) == [1.0, 0.0, 2.0, 0.0, 3.0, 0.0]
        # chain conductance between the two nodes of line A, the source's
        # at the first
        assert net.conductance[0, 1] == pytest.approx(-g_seg, rel=1e-12, abs=0.0)
        assert net.conductance[0, 0] == pytest.approx(2 * g_seg, rel=1e-12, abs=0.0)
        assert net.conductance[1, 1] == pytest.approx(g_seg, rel=1e-12, abs=0.0)
        assert net.conductance[1, 2] == 0.0
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
        a = np.linalg.solve(net.capacitance, net.conductance)
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

    def test_unallocatable_network_is_a_validation_error(self):
        """numpy refuses two 3e7 x 3e7 matrices up front, before
        allocating anything."""
        with pytest.raises(ValidationError, match="30000000-node network"):
            build_network(W1S, 10_000_000)

    def test_section_resistance_rounding_to_zero_is_a_numeric_error(self):
        """r / segments below the smallest subnormal would divide by zero;
        the network is one double precision cannot solve."""
        line = LineRC(r=5e-324, c=6.6e-15, c_c=8e-15, v_dd=0.9)
        with pytest.raises(NumericError, match=r"^the 6-node network cannot be solved in double "
                           r"precision: its section resistance 5e-324 / 2 rounds to 0 ohm$"):
            build_network(line, 2)

    def test_count_past_the_float_range_is_a_validation_error(self):
        """A count whose float conversion overflows is refused by the
        allocation that precedes all float arithmetic, and the message
        gives its node count by its leading digits."""
        with pytest.raises(ValidationError,
                           match=r"^a 3\.00e\+310-node network is too large to allocate$"):
            build_network(W1S, 10**310)


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
        """A hand-built network with a negative resistor has no settled
        response; it must be rejected, not returned."""
        with pytest.raises(ValueError, match="not passive"):
            net = NetworkStateSpace(capacitance=np.eye(3), branches=np.array([1.0, -2.0, 1.0]))
            simulate_step(net, DrivePattern(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("branch", [0.0, -0.0, -5e-324, -1.0, -np.inf, np.nan])
    def test_nonpositive_branch_is_not_passive(self, branch):
        """Every branch conductance must be > 0; the message names the
        smallest."""
        branches = np.array([1.0, 1.0, 1.0, branch, 1.0, 1.0])
        with pytest.raises(ValueError, match=rf"^network is not passive: branch conductance "
                           rf"{re.escape(repr(float(np.min(branches))))} is not > 0$"):
            NetworkStateSpace(capacitance=np.eye(6), branches=branches)

    @pytest.mark.parametrize(
        "line, segments, reason",
        [
            (LineRC(r=504.0, c=1e-35, c_c=8e-15, v_dd=0.9), 1,
             "the fastest time constant is below the rounding of the slowest"),
            (LineRC(r=1e-300, c=6.6e-15, c_c=8e-15, v_dd=0.9), 1, "a decay rate is not finite"),
            (LineRC(r=8e-295, c=6.6e-15, c_c=8e-15, v_dd=0.9), 1, "a decay rate is not finite"),
            (LineRC(r=504.0, c=1e-30, c_c=8e-15, v_dd=0.9), 2,
             "the fastest time constant is below the rounding of the slowest"),
            (LineRC(r=5e-324, c=6.6e-15, c_c=8e-15, v_dd=0.9), 1,
             "the tree-reduced capacitance is not finite"),
        ],
        ids=["c-1e-35", "r-1e-300", "r-8e-295", "c-1e-30-n2", "r-5e-324"],
    )
    def test_unsolvable_line_is_a_numeric_error(self, line, segments, reason):
        """Finite line models beyond double precision raise NumericError
        without a warning: a ground capacitance below the coupling's
        rounding leaves the fastest mode unresolved, and a tiny resistance
        overflows a rate or its branch conductance."""
        net = build_network(line, segments)
        unsolvable = "network cannot be solved in double precision: " + re.escape(reason)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=unsolvable):
                simulate_step(net, DrivePattern(1.0, 1.0, 1.0))

    def test_result_samples_waveforms_on_first_read(self):
        """The constructor stores rates, residues and dt only; the three
        waveforms are sampled once, when one of them is first read."""
        net = build_network(W1S, 3)
        drive = DrivePattern.for_mode(CrosstalkMode.OUT_OF_PHASE, W1S.v_dd)
        result = SimulationResult.of(net, drive, modes=net.modes())
        assert vars(result).keys() == {"rates", "residues", "dt"}
        assert result.crossing(0.5 * W1S.v_dd) == victim_delay(W1S, CrosstalkMode.OUT_OF_PHASE, 3)
        assert vars(result).keys() == {"rates", "residues", "dt"}
        line_a = result.line_a
        assert result.victim is result.line_b and result.line_a is line_a
        want = simulate_step(net, drive)
        assert result.dt == want.dt
        assert np.array_equal(result.residues, want.residues)
        for got, wf in zip((line_a, result.line_b, result.line_c),
                           (want.line_a, want.line_b, want.line_c)):
            assert np.array_equal(got.values, wf.values)

    def test_asymmetric_network_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            NetworkStateSpace(
                capacitance=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                branches=np.ones(3),
            )
        # the same defect at femtofarad scale: C[0, 1] = -4 fF, C[1, 0] = -8 fF
        net = build_network(W1S, 1)
        net.capacitance[0, 1] /= 2.0
        with pytest.raises(ValueError, match="symmetric"):
            NetworkStateSpace(**vars(net))

    def test_capacitance_not_diagonally_dominant_rejected(self):
        """A coupling larger than the diagonal it ties to is no capacitor
        network: C must be diagonally dominant."""
        with pytest.raises(ValueError, match="^capacitance matrix is not diagonally dominant$"):
            NetworkStateSpace(
                capacitance=np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                branches=np.ones(3),
            )

    @pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
    def test_waveform_rejects_non_finite_samples(self, sample):
        with pytest.raises(ValueError, match="^waveform contains non-finite samples$"):
            Waveform(1e-12, np.array([0.0, sample, 0.9]), "line_b")

    @pytest.mark.parametrize("matrix", ["capacitance"])
    @pytest.mark.parametrize("segments", [1, 7, 50])
    def test_symmetry_is_exact(self, matrix, segments):
        """build_network's C passes as built, and one entry off its mirror
        by one ulp fails: eigh reads one triangle of the reduced C, so a
        nearly symmetric C would be solved as a different network. G is
        symmetric by construction, A^T diag(branches) A."""
        net = build_network(W1S, segments)
        NetworkStateSpace(**vars(net))
        values = getattr(net, matrix)
        values[0, 1] = np.nextafter(values[0, 1], np.inf)
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


def crossing_or_none(delay):
    """delay(), or None where it raises NoCrossingError."""
    try:
        return delay()
    except NoCrossingError:
        return None


def reference_crossing(result, threshold):
    """The crossing read off the full victim waveform: the first sample at or
    above the threshold, bisected against the sample before it; None if no
    sample reaches it."""
    above = np.flatnonzero(result.victim.values >= threshold)
    if not len(above):
        return None
    i = int(above[0])
    if i == 0:
        return 0.0
    return bisect_crossing(
        result.rates, result.residues[1], threshold, (i - 1) * result.dt, i * result.dt
    )


# r, c and c_c each over several decades
RANDOM_LINES = st.builds(
    lambda r, c, cc, v_dd: LineRC(r=10.0**r, c=10.0**c, c_c=10.0**cc, v_dd=v_dd),
    st.floats(0.0, 5.0),
    st.floats(-17.0, -12.0),
    st.floats(-19.0, -11.0),
    st.floats(0.5, 1.5),
)
JUST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def ladder_rates(line, segments):
    """The decay rates of the three-line network, ascending, from the N-section
    L ladder (Sakurai, IEEE JSSC 1983): 4 N^2 sin^2(theta_k / 2) / (R C_m),
    theta_k = (2k - 1) pi / (2N + 1), over the mode capacitances C, C + C_c
    and C + 3 C_c. The oracle never uses this split."""
    theta = (2 * np.arange(1, segments + 1) - 1) * np.pi / (2 * segments + 1)
    ladder = 4 * segments**2 * np.sin(theta / 2) ** 2 / line.r
    modes = (line.c, line.c + line.c_c, line.c + 3 * line.c_c)
    return np.sort(np.concatenate([ladder / c_m for c_m in modes]))


class TestModes:
    @settings(deadline=None, max_examples=80)
    @given(RANDOM_LINES, st.integers(1, 60))
    @example(W1S, 50)
    @example(LineRC(r=1e3, c=1e-17, c_c=1e-11, v_dd=1.0), 60)
    def test_match_the_ladder(self, line, segments):
        """The slowest rate, which sets every crossing, is exact to 1e-14;
        every time constant is within 1e-14 of the slowest (the fast modes
        are resolved against it, not to their own last digit); and every
        far end settles on its drive to 1e-13 of v_dd."""
        net = build_network(line, segments)
        rates, shapes = net.modes()
        want = ladder_rates(line, segments)
        assert abs(rates[0] / want[0] - 1.0) <= 1e-14
        assert np.all(np.abs(1.0 / rates - 1.0 / want) <= 1e-14 / want[0])
        for mode in CrosstalkMode:
            drive = DrivePattern.for_mode(mode, line.v_dd)
            final = SimulationResult.of(net, drive, modes=(rates, shapes)).residues.sum(axis=1)
            assert np.all(np.abs(final - [drive.v_s1, drive.v_s2, drive.v_s3]) <= 1e-13 * line.v_dd)


class TestVictimDelay:
    @settings(deadline=None, max_examples=60)
    @given(
        RANDOM_LINES,
        st.integers(1, 60),
        st.sampled_from(list(CrosstalkMode)),
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
        ),
    )
    @example(W1S, 50, CrosstalkMode.QUIET, 0.5)
    @example(W1S, 7, CrosstalkMode.OUT_OF_PHASE, JUST_BELOW_ONE)
    def test_equals_full_waveform_crossing(self, line, segments, mode, fraction):
        """The victim-only block scan returns exactly the crossing read off
        the full waveform, and raises NoCrossingError in exactly the cases
        where no sample of it reaches the threshold."""
        net = build_network(line, segments)
        drive = DrivePattern.for_mode(mode, line.v_dd)
        want = reference_crossing(simulate_step(net, drive), fraction * line.v_dd)
        got = crossing_or_none(lambda: victim_delay(line, mode, segments, fraction))
        assert got == want

    @pytest.mark.parametrize("segments", [1, 50])
    def test_threshold_just_below_the_rail_is_never_reached(self, segments):
        """30 slow time constants settle to within ~1e-13 of the rail."""
        for mode in CrosstalkMode:
            with pytest.raises(NoCrossingError):
                victim_delay(W1S, mode, segments, JUST_BELOW_ONE)

    @pytest.mark.parametrize("segments", [1, 3])
    def test_scan_brackets_at_block_edges(self, segments):
        """Thresholds equal to samples at and next to block edges, and to
        the last sample, give the full waveform's crossing."""
        net = build_network(W1S, segments)
        drive = DrivePattern.for_mode(CrosstalkMode.QUIET, W1S.v_dd)
        result = simulate_step(net, drive)
        assert np.array_equal(result.sample(), result.victim.values)
        assert np.array_equal(result.sample(250, 260), result.victim.values[250:260])
        for index in (1, 255, 256, 257, 512, 4000, SAMPLES - 1):
            threshold = result.victim.values[index]
            assert result.crossing(threshold) == reference_crossing(result, threshold)
            assert crossing_time(result, threshold) == result.crossing(threshold)


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
