"""Exact transient oracle for the three coupled lines.

Builds the network directly from circuit elements (no transfer-function
algebra shared with the analytic model) and solves the state-space
equation C dV/dt = b - G V from V(0) = 0 exactly. Each line can be split
into N identical segments (resistance r/N in series, c/N to ground and
c_c/N of coupling per segment) to approximate a distributed line; N = 1
reproduces the single-lump topology of the analytic model.

Each line is a resistor chain, so G = A^T D A is an RC tree (Rubinstein,
Penfield & Horowitz, IEEE TCAD 1983): A is the branch-node incidence,
(A v)_i = v_i - v_(i-1) along a line, D the branch conductances. A^-1 is a
running sum along each line, so M = D^-1/2 A^-T C A^-1 D^-1/2 is two running
sums over C, eigh(M) = W diag(1/lambda) W^T solves the pencil with the slow
modes exact to the last bit, and A^-1 D^-1/2 W sqrt(lambda) are the
C-normalized mode shapes. Every node voltage is V_inf - sum_k r_k
exp(-lambda_k t), with residues r_k from the shapes and the projected drive.

SimulationResult, the one result type, holds the rates, the residues (far
end x mode) and the grid step, and samples the waveforms on first read. Its
crossing samples the victim's row alone, a block of the grid at a time, up
to the first block that reaches the threshold, bit for bit as the waveform.
frequency_response, which no command calls, stays as the oracle's check of
the paper's Laplace path (lumpmodel.transfer_eval).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .capacitance import CrosstalkMode
from .errors import NoCrossingError, NumericError, ValidationError, _finite_positive
from .lumpmodel import DrivePattern, LineRC, bisect_crossing

#: Default simulation span, in units of the slowest time constant.
T_END_FACTOR = 30.0
#: Samples in every simulated waveform, spread uniformly over [0, t_end].
SAMPLES = 8192
#: Samples per block of a crossing scan (the bundled lines cross in the first).
_SCAN_BLOCK = 256


@dataclass
class NetworkStateSpace:
    """State-space matrices C dV/dt = b - G V of the segmented three-line
    network, nodes in line-major order (line A's sections, then B's, C's).

    capacitance is the symmetric (node x node) C; branches[i] is the
    conductance of the resistor that feeds node i from the node upstream
    (from the line's source at each line's first node), so that
    G = A^T diag(branches) A and b holds branches[i] times the drive at
    each line's first node. observed holds the far-end nodes of A, B, C.
    """

    capacitance: np.ndarray
    branches: np.ndarray

    def __post_init__(self):
        c = self.capacitance
        # exactly: eigh reads one triangle, so any asymmetry would silently
        # solve a different network
        if not np.array_equal(c, c.T):
            raise ValueError("capacitance matrix must be symmetric")
        offdiag = np.abs(c).sum(axis=1) - np.abs(np.diag(c))
        if np.any(np.diag(c) < offdiag - 1e-30):
            raise ValueError("capacitance matrix is not diagonally dominant")
        if not np.all(self.branches > 0.0):
            raise ValueError(f"network is not passive: branch conductance "
                             f"{float(self.branches.min())!r} is not > 0")

    @property
    def node_count(self) -> int:
        return self.capacitance.shape[0]

    @property
    def observed(self) -> tuple[int, int, int]:
        return tuple(range(self.node_count // 3 - 1, self.node_count, self.node_count // 3))

    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Decay rates (ascending) and C-normalized node-space mode shapes.

        Raises:
            NumericError: if the reduced matrix or a rate is not finite, or
                the fastest mode's time constant is below the rounding of the
                slowest: the network is too ill-conditioned.
        """
        n, g = self.node_count, self.branches
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                # A^-T C A^-1 sums C downstream of each node; it keeps C's scale,
                # the branches enter relative to the largest, which scales the rates
                sums = self.capacitance.reshape(3, n // 3, 3, n // 3)[:, ::-1, :, ::-1]
                sums = sums.cumsum(axis=3).cumsum(axis=1)[:, ::-1, :, ::-1].reshape(n, n)
                scale = np.sqrt(g.max() / g)
                reduced = scale[:, None] * sums * scale
                if not np.isfinite(reduced).all():
                    raise np.linalg.LinAlgError("the tree-reduced capacitance is not finite")
                taus, w = np.linalg.eigh(reduced)  # 1 / rate, times g.max()
                if not taus[0] > n * np.finfo(float).eps * taus[-1]:
                    raise np.linalg.LinAlgError(
                        "the fastest time constant is below the rounding of the slowest")
                rates = g.max() / taus[::-1]
            if not np.isfinite(rates).all():
                raise np.linalg.LinAlgError("a decay rate is not finite")
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"the {n}-node network cannot be solved in double precision: {exc}"
            ) from None
        shapes = scale[:, None] * w[:, ::-1] / np.sqrt(taus[::-1])
        return rates, shapes.reshape(3, -1, n).cumsum(axis=1).reshape(n, n)

    def time_constants(self) -> tuple[float, float]:
        """(fastest, slowest) time constants of the C^-1 G pencil."""
        rates, _ = self.modes()
        return 1.0 / rates[-1], 1.0 / rates[0]

    @property
    def conductance(self) -> np.ndarray:
        """G = A^T diag(branches) A, each line's source grounded."""
        sections = self.node_count // 3
        incidence = np.kron(np.eye(3), np.eye(sections) - np.eye(sections, k=-1))
        return incidence.T @ (self.branches[:, None] * incidence)

    def _source_vector(self, drive: DrivePattern) -> np.ndarray:
        b, first = np.zeros(self.node_count), slice(None, None, self.node_count // 3)
        b[first] = self.branches[first] * np.array([drive.v_s1, drive.v_s2, drive.v_s3])
        return b


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled node voltage trace."""

    dt: float
    values: np.ndarray
    label: str

    def __post_init__(self):
        _finite_positive(dt=self.dt)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


@dataclass(frozen=True)
class SimulationResult:
    """The exact step response at the three far ends: line i is
    residues[i].sum() - residues[i] @ exp(-rates t), on a grid of SAMPLES
    points spaced dt. The waveforms are sampled on first access; the
    victim's row alone can be sampled block by block (sample, crossing)."""

    rates: np.ndarray
    residues: np.ndarray
    dt: float

    @classmethod
    def of(cls, net: NetworkStateSpace, drive: DrivePattern,
           t_end: float | None = None, modes: tuple | None = None) -> SimulationResult:
        """The response of net to drive over [0, t_end], by default
        T_END_FACTOR slowest time constants. modes, if given, is net.modes(),
        so that several drives share one eigensolve.

        Raises:
            NumericError: if the residues, or twice their absolute sum (a
                bound on every partial sum the sampler forms), overflow.
            ValueError: if t_end is given and is not finite and > 0.
            Whatever net.modes() raises.
        """
        rates, shapes = net.modes() if modes is None else modes
        with np.errstate(over="ignore", invalid="ignore"):
            residues = shapes[list(net.observed)] * (shapes.T @ net._source_vector(drive) / rates)
            bound = 2.0 * np.abs(residues).sum(axis=1)
        if not np.isfinite(bound).all():
            peak = max(abs(drive.v_s1), abs(drive.v_s2), abs(drive.v_s3))
            raise NumericError(
                f"the {net.node_count}-node network's response to a {peak!r} V step "
                f"overflows double precision"
            )
        if t_end is None:
            t_end = T_END_FACTOR / rates[0]
        else:
            _finite_positive(t_end=t_end)
        return cls(rates, residues, t_end / (SAMPLES - 1))

    @cached_property
    def _waveforms(self) -> tuple[Waveform, Waveform, Waveform]:
        values = _sample(self.rates, self.residues, np.arange(SAMPLES) * self.dt)
        return tuple(
            Waveform(self.dt, np.ascontiguousarray(values[:, i]), label)
            for i, label in enumerate(("line_a", "line_b", "line_c"))
        )

    line_a = property(lambda self: self._waveforms[0])
    line_b = victim = property(lambda self: self._waveforms[1])
    line_c = property(lambda self: self._waveforms[2])

    def sample(self, first: int = 0, stop: int = SAMPLES) -> np.ndarray:
        """The victim's grid samples first .. stop - 1, equal bit for bit
        to victim.values[first:stop]."""
        return _sample(self.rates, self.residues[1:2], np.arange(first, stop) * self.dt)[:, 0]

    def crossing(self, threshold: float) -> float:
        """First time the victim reaches the threshold: the first sample at
        or above it, found a block of the grid at a time, brackets the
        crossing, and bisect_crossing locates it to float precision.

        Raises:
            NoCrossingError: if no sample reaches the threshold.
        """
        for first in range(0, SAMPLES, _SCAN_BLOCK):
            block = self.sample(first, min(first + _SCAN_BLOCK, SAMPLES))
            above = np.flatnonzero(block >= threshold)
            if len(above):
                i = first + int(above[0])
                if i == 0:
                    return 0.0
                return bisect_crossing(self.rates, self.residues[1], threshold,
                                       (i - 1) * self.dt, i * self.dt)
        raise NoCrossingError(f"victim never reaches {threshold!r} V")


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
    # before any float arithmetic on the count, which overflows past ~1.8e308
    try:
        cap = np.zeros((n_nodes, n_nodes))
    except (MemoryError, ValueError):  # numpy refuses a shape it cannot address
        digits = str(n_nodes)
        count = digits if len(digits) <= 21 else f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"
        raise ValidationError(f"a {count}-node network is too large to allocate") from None
    r_seg = line.r / n_seg
    if not r_seg > 0.0:
        raise NumericError(f"the {n_nodes}-node network cannot be solved in double precision: "
                           f"its section resistance {line.r!r} / {n_seg} rounds to 0 ohm")
    cc_seg = line.c_c / n_seg
    nodes = np.arange(n_nodes).reshape(3, n_seg)  # nodes[line, section]
    cap[np.diag_indices(n_nodes)] = line.c / n_seg
    # A-B, then B-C coupling (line B sums in that order); a sum that
    # overflows stays inf, which modes() refuses as NumericError
    with np.errstate(over="ignore"):
        for i, j in ((nodes[0], nodes[1]), (nodes[1], nodes[2])):
            cap[i, i] += cc_seg
            cap[j, j] += cc_seg
            cap[i, j] -= cc_seg
            cap[j, i] -= cc_seg
    return NetworkStateSpace(capacitance=cap, branches=np.full(n_nodes, 1.0 / r_seg))


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
    """The exact step response from an all-zero initial state, sampled at
    SAMPLES uniformly spaced times over [0, t_end]: SimulationResult.of."""
    return SimulationResult.of(net, drive, t_end)


def crossing_time(result: SimulationResult, threshold: float) -> float:
    """result.crossing(threshold): the first time the victim reaches the
    threshold within the simulated span (NoCrossingError if it never does)."""
    return result.crossing(threshold)


def victim_delay(line: LineRC, mode: CrosstalkMode, segments: int = 1,
                 threshold_fraction: float = 0.5) -> float:
    """Simulated time for the victim to reach the threshold voltage,
    threshold_fraction * line.v_dd, on the default span."""
    net = build_network(line, segments)
    result = SimulationResult.of(net, DrivePattern.for_mode(mode, line.v_dd))
    return result.crossing(threshold_fraction * line.v_dd)


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
    lhs = net.conductance.astype(complex) + s * net.capacitance
    return np.linalg.solve(lhs, net._source_vector(drive) / s)
