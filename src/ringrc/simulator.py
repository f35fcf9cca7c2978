"""Exact transient oracle for the three coupled lines.

Builds the network directly from circuit elements (no transfer-function
algebra shared with the analytic model) and solves the state-space
equation C dV/dt = b - G V from V(0) = 0 exactly. Each line can be split
into N identical segments (resistance r/N in series, c/N to ground and
c_c/N of coupling per segment) to approximate a distributed line; N = 1
reproduces the single-lump topology of the analytic model.

C and G are symmetric with C positive definite: a symmetric-definite
generalized eigenproblem (Golub & Van Loan, Matrix Computations). With
C = L L^T and eigh(L^-1 G L^-T) = Q diag(lambda) Q^T, every node voltage
is V_inf - sum_k r_k exp(-lambda_k t), with residues r_k taken from the
mode shapes L^-T Q and the drive projected onto them.

Threshold delays (victim_delay) sample the victim alone, a block of the
waveform grid at a time, up to the first block that reaches the threshold;
they share simulate_step's sampler and equal its crossing bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacitance import CrosstalkMode
from .errors import NoCrossingError, ValidationError
from .lumpmodel import DrivePattern, LineRC, bisect_crossing

#: Default simulation span, in units of the slowest time constant.
T_END_FACTOR = 30.0
#: Samples in every simulated waveform, spread uniformly over [0, t_end].
SAMPLES = 8192
#: Samples per block of a crossing scan. The bundled lines cross half swing at
#: sample ~160 of the quiet 50-segment network, within the first block.
_SCAN_BLOCK = 256


@dataclass
class NetworkStateSpace:
    """Dense state-space matrices of the segmented three-line network.

    capacitance and conductance are symmetric (node x node) matrices;
    source_conductance[i] is the conductance from node i to its driving
    source (zero except at each line's near-end node) and source_line[i]
    names which drive amplitude feeds node i (-1 for none). observed
    holds the far-end node index of lines A, B, C.
    """

    capacitance: np.ndarray
    conductance: np.ndarray
    source_conductance: np.ndarray
    source_line: np.ndarray
    observed: tuple[int, int, int]

    def __post_init__(self):
        c, g = self.capacitance, self.conductance
        # exactly: eigh reads one triangle, so any asymmetry would silently
        # solve a different network
        if not np.array_equal(c, c.T) or not np.array_equal(g, g.T):
            raise ValueError("network matrices must be symmetric")
        offdiag = np.abs(c).sum(axis=1) - np.abs(np.diag(c))
        if np.any(np.diag(c) < offdiag - 1e-30):
            raise ValueError("capacitance matrix is not diagonally dominant")

    @property
    def node_count(self) -> int:
        return self.capacitance.shape[0]

    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Decay rates (ascending) and node-space mode shapes L^-T Q.

        Raises:
            ValueError: if C or the total conductance (including the
                sources) is not positive definite, i.e. the network is
                not passive and has no settled step response.
        """
        l_inv = np.linalg.inv(np.linalg.cholesky(self.capacitance))
        rates, q = np.linalg.eigh(l_inv @ self._g_total() @ l_inv.T)
        if not rates[0] > 0.0:
            raise ValueError(
                f"network is not passive: decay rate {rates[0]!r} is not > 0"
            )
        return rates, l_inv.T @ q

    def time_constants(self) -> tuple[float, float]:
        """(fastest, slowest) time constants of the C^-1 G pencil."""
        rates, _ = self.modes()
        return 1.0 / rates[-1], 1.0 / rates[0]

    def _g_total(self) -> np.ndarray:
        return self.conductance + np.diag(self.source_conductance)

    def _source_vector(self, drive: DrivePattern) -> np.ndarray:
        amps = np.array([drive.v_s1, drive.v_s2, drive.v_s3])
        b = np.zeros(self.node_count)
        mask = self.source_line >= 0
        b[mask] = self.source_conductance[mask] * amps[self.source_line[mask]]
        return b


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled node voltage trace."""

    dt: float
    values: np.ndarray
    label: str

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


@dataclass(frozen=True)
class SimulationResult:
    """Far-end waveforms of the three lines, sampled from their exact
    response: line i is residues[i].sum() - residues[i] @ exp(-rates t)."""

    line_a: Waveform
    line_b: Waveform
    line_c: Waveform
    rates: np.ndarray
    residues: np.ndarray

    @property
    def victim(self) -> Waveform:
        return self.line_b


def build_network(line: LineRC, segments: int = 1) -> NetworkStateSpace:
    """Assemble the segmented three-line network from circuit elements.

    Each of the three lines is a chain of `segments` RC sections fed
    through the first section's resistance; coupling capacitance ties
    nodes of adjacent lines section by section. Element values scale as
    r/segments, c/segments and c_c/segments so the line totals are
    independent of the segment count.
    """
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    n_seg = segments
    n_nodes = 3 * n_seg
    g_seg = 1.0 / (line.r / n_seg)
    cc_seg = line.c_c / n_seg
    try:
        cap = np.zeros((n_nodes, n_nodes))
        cond = np.zeros((n_nodes, n_nodes))
    except (MemoryError, ValueError):  # numpy refuses a shape it cannot address
        raise ValidationError(f"a {n_nodes}-node network is too large to allocate") from None
    nodes = np.arange(n_nodes).reshape(3, n_seg)  # nodes[line, section]
    cap[np.diag_indices(n_nodes)] = line.c / n_seg
    # series resistances, then A-B and B-C coupling (line B sums in that order)
    for matrix, i, j, value in (
        (cond, nodes[:, :-1], nodes[:, 1:], g_seg),
        (cap, nodes[0], nodes[1], cc_seg),
        (cap, nodes[1], nodes[2], cc_seg),
    ):
        matrix[i, i] += value
        matrix[j, j] += value
        matrix[i, j] -= value
        matrix[j, i] -= value
    src_g = np.zeros(n_nodes)
    src_g[nodes[:, 0]] = g_seg
    src_line = np.full(n_nodes, -1, dtype=int)
    src_line[nodes[:, 0]] = range(3)
    return NetworkStateSpace(
        capacitance=cap,
        conductance=cond,
        source_conductance=src_g,
        source_line=src_line,
        observed=tuple(nodes[:, -1].tolist()),
    )


def _sample(rates: np.ndarray, residues: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Column i holds residues[i].sum() - residues[i] @ exp(-rates t) at
    the ascending times. Modes are summed one at a time, each only over the
    samples where it is still live: once rate * t >= 746, exp(-rate * t)
    has underflowed to exactly 0.0 in IEEE double (it does past about
    745.13), so the skipped terms are exact zeros."""
    values = np.tile(residues.sum(axis=1), (len(times), 1))
    lives = np.searchsorted(times, 746.0 / rates)
    for rate, residue, live in zip(rates, residues.T, lives):
        values[:live] -= np.exp(-rate * times[:live])[:, None] * residue
    return values


def simulate_step(
    net: NetworkStateSpace, drive: DrivePattern, t_end: float | None = None
) -> SimulationResult:
    """Sample the exact step response from an all-zero initial state.

    Args:
        net: network from build_network().
        drive: constant source amplitudes applied for t >= 0.
        t_end: span to sample (seconds). Defaults to T_END_FACTOR times
            the slowest network time constant.

    Returns:
        SimulationResult with SAMPLES uniformly spaced samples over
        [0, t_end] per far-end waveform. The output is deterministic for
        identical inputs.

    Raises:
        ValueError: if t_end is not positive or the network is not passive.
    """
    rates, shapes = net.modes()
    residues = shapes[list(net.observed)] * (shapes.T @ net._source_vector(drive) / rates)
    if t_end is None:
        t_end = T_END_FACTOR / rates[0]
    if not t_end > 0.0:
        raise ValueError("t_end must be > 0")
    dt = t_end / (SAMPLES - 1)
    values = _sample(rates, residues, np.arange(SAMPLES) * dt)
    return SimulationResult(
        line_a=Waveform(dt, np.ascontiguousarray(values[:, 0]), "line_a"),
        line_b=Waveform(dt, np.ascontiguousarray(values[:, 1]), "line_b"),
        line_c=Waveform(dt, np.ascontiguousarray(values[:, 2]), "line_c"),
        rates=rates,
        residues=residues,
    )


@dataclass(frozen=True)
class VictimStep:
    """The victim's row (1 x mode) of simulate_step's residues, sampled on
    a grid of SAMPLES points spaced dt, bit for bit as simulate_step does."""

    rates: np.ndarray
    residues: np.ndarray
    dt: float

    @classmethod
    def of(cls, net: NetworkStateSpace, drive: DrivePattern, modes: tuple) -> VictimStep:
        """On simulate_step's default grid, from modes = net.modes()."""
        rates, shapes = modes
        residues = shapes[[net.observed[1]]] * (shapes.T @ net._source_vector(drive) / rates)
        return cls(rates, residues, T_END_FACTOR / rates[0] / (SAMPLES - 1))

    def sample(self, first: int = 0, stop: int = SAMPLES) -> np.ndarray:
        """Grid samples first .. stop - 1."""
        return _sample(self.rates, self.residues, np.arange(first, stop) * self.dt)[:, 0]

    def crossing(self, threshold: float, values: np.ndarray | None = None) -> float:
        """First time the victim reaches the threshold: the first sample at
        or above it, among `values` (the whole grid) or else the blocks of
        the grid up to the first that reaches it, brackets the crossing, and
        bisection locates it to float precision.

        Raises:
            NoCrossingError: if no sample reaches the threshold.
        """
        blocks = [(0, values)] if values is not None else (
            (first, self.sample(first, min(first + _SCAN_BLOCK, SAMPLES)))
            for first in range(0, SAMPLES, _SCAN_BLOCK)
        )
        for first, block in blocks:
            above = np.flatnonzero(block >= threshold)
            if len(above):
                i = first + int(above[0])
                if i == 0:
                    return 0.0
                lo, hi = (i - 1) * self.dt, i * self.dt
                return bisect_crossing(self.rates, self.residues[0], threshold, lo, hi)
        raise NoCrossingError(f"victim never reaches {threshold!r} V")


def crossing_time(result: SimulationResult, threshold: float) -> float:
    """First time the victim reaches the threshold within the simulated span.

    Raises:
        NoCrossingError: if no sample reaches the threshold.
    """
    victim = VictimStep(result.rates, result.residues[1:2], result.victim.dt)
    return victim.crossing(threshold, result.victim.values)


def victim_delay(
    line: LineRC,
    mode: CrosstalkMode,
    segments: int = 1,
    threshold_fraction: float = 0.5,
) -> float:
    """Simulated time for the victim to reach the threshold voltage: bit
    for bit crossing_time(simulate_step(build_network(line, segments),
    drive), threshold_fraction * line.v_dd), raising where that raises."""
    net = build_network(line, segments)
    drive = DrivePattern.for_mode(mode, line.v_dd)
    victim = VictimStep.of(net, drive, net.modes())
    return victim.crossing(threshold_fraction * line.v_dd)


def quiet_delay_ratio(
    line: LineRC, segments: int, threshold_fraction: float = 0.5
) -> float:
    """Distributed-over-lump quiet-mode delay ratio for one line model.

    Runs the oracle twice: once on the single-lump network and once with
    the line split into the requested number of segments. Splitting
    spreads the same totals along the line, so early segments charge
    through less series resistance and the far end crosses the threshold
    earlier. The ratio keeps falling slowly as the segment count grows
    but does not approach one half: for the bundled 1W1S line it is
    0.6059 at 50 segments, 0.6000 at 100, 0.5970 at 200 and 0.5956 at
    400, tending to about 0.594.
    """
    t_lump = victim_delay(line, CrosstalkMode.QUIET, 1, threshold_fraction)
    t_dist = victim_delay(line, CrosstalkMode.QUIET, segments, threshold_fraction)
    return t_dist / t_lump


def frequency_response(
    net: NetworkStateSpace, drive: DrivePattern, s: complex
) -> np.ndarray:
    """Laplace-domain node voltages (G + sC) X = b(s) for step drives.

    Solves the network equations directly at complex frequency s with
    Vs_i(s) = amplitude_i / s, giving an independent cross-check of the
    closed-form transfer functions. Returns all node voltages; index
    with net.observed for the far-end values.
    """
    if s == 0:
        raise ValueError("s must be nonzero for a step input")
    lhs = net._g_total().astype(complex) + s * net.capacitance
    return np.linalg.solve(lhs, net._source_vector(drive) / s)
