"""Closed-form model of three identical coupled RC lines.

Each line is driven through a resistance R onto a node with capacitance C
to ground; adjacent nodes are tied by a coupling capacitance C_c. Line B
is the victim (middle), lines A and C are the aggressors. The paper's
coefficient table (lump_coefficients, transfer_eval) solves the node
equations as

    V_A = [(1 + a1 s + a2 s^2) Vs1 + (a3 s + a4 s^2) Vs2 + a5 s^2 Vs3]
          / [(1 + b1 s)(1 + b2 s)(1 + b3 s)]
    V_B = [a6 s Vs1 + (1 + a7 s) Vs2 + a8 s Vs3]
          / [(1 + b4 s)(1 + b5 s)]

with V_C mirroring V_A (Vs1 and Vs3 swapped).

Every line has the same series resistance, so the network splits into
independent RC modes (1, 1, 1), (1, 0, -1) and (1, -2, 1) with
capacitances C, C + C_c and C + 3*C_c. A crosstalk mode is one number,
sigma = AGGRESSOR_STEP[mode]: the drive (sigma, 1, sigma) * V puts weight
w = (1 + 2*sigma)/3 on the first mode and 1 - w on the last, so the
victim's rising step response is exactly

    V * (1 - w exp(-t/(R*C)) - (1 - w) exp(-t/(R*(C + 3*C_c))))

with w = 1 (in-phase), 1/3 (quiet) and -1/3 (out-of-phase), a
ModalResponse, whose at and crossing evaluate every sum of exponentials,
the oracle's too. The paper's linearized out-of-phase waveform
(published_out_of_phase_response) starts at V at t = 0 instead;
first_order_delay is the linearized delay that the extraction inverts. No
command calls the paper's Laplace path (lump_coefficients, transfer_eval,
published_out_of_phase_response): it stays as the paper's equations,
pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacitance import AGGRESSOR_STEP, CrosstalkMode
from .errors import DegenerateDelayError, PoleProximityError, _finite_positive

#: |1 + b*s| below this is treated as an evaluation at a pole.
POLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LineRC:
    """Per-stage lumped line parameters.

    r is the total drive resistance (ohms), c the capacitance to ground
    (farads), c_c the coupling capacitance to each neighbour (farads) and
    v_dd the step amplitude (volts).
    """

    r: float
    c: float
    c_c: float
    v_dd: float

    def __post_init__(self):
        _finite_positive(r=self.r, c=self.c)
        _finite_positive(c_c=self.c_c, zero_ok=True)
        _finite_positive(v_dd=self.v_dd)

    @property
    def tau_ground(self) -> float:
        """R*C, the uncoupled (in-phase) time constant."""
        return self.r * self.c

    @property
    def tau_coupled(self) -> float:
        """R*(C + 3*C_c), the slow victim time constant."""
        return self.r * (self.c + 3.0 * self.c_c)


@dataclass(frozen=True)
class LumpCoefficients:
    """Numerator (a1..a8) and denominator (b1..b5) polynomial coefficients."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float
    a8: float
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float


@dataclass(frozen=True)
class DrivePattern:
    """Step amplitudes applied to lines A, B, C (volts), each finite."""

    v_s1: float
    v_s2: float
    v_s3: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @classmethod
    def for_mode(cls, mode: CrosstalkMode, v_dd: float) -> "DrivePattern":
        """Rising-victim pattern for an aggressor mode, (sigma, 1, sigma) * v_dd."""
        sigma = AGGRESSOR_STEP[mode]
        return cls(sigma * v_dd, v_dd, sigma * v_dd)


def lump_coefficients(line: LineRC) -> LumpCoefficients:
    """Polynomial coefficients of the three-line transfer functions.

    All coefficients are products of rc = R*C and rcc = R*C_c:

        a1 = 2 rc + 3 rcc          a2 = rc^2 + rcc^2 + 3 rc rcc
        a3 = rcc                   a4 = rcc^2 + rc rcc
        a5 = rcc^2                 a6 = a8 = rcc
        a7 = rc + rcc
        b1 = b4 = rc               b2 = rc + rcc
        b3 = b5 = rc + 3 rcc
    """
    rc = line.r * line.c
    rcc = line.r * line.c_c
    return LumpCoefficients(
        a1=2.0 * rc + 3.0 * rcc,
        a2=rc * rc + rcc * rcc + 3.0 * rc * rcc,
        a3=rcc,
        a4=rcc * rcc + rc * rcc,
        a5=rcc * rcc,
        a6=rcc,
        a7=rc + rcc,
        a8=rcc,
        b1=rc,
        b2=rc + rcc,
        b3=rc + 3.0 * rcc,
        b4=rc,
        b5=rc + 3.0 * rcc,
    )


def transfer_eval(
    coeffs: LumpCoefficients, drive: DrivePattern, s: complex
) -> tuple[complex, complex, complex]:
    """Evaluate the Laplace-domain node voltages for step drives.

    Each source enters as a step, Vs_i(s) = amplitude_i / s. The victim
    numerator couples the aggressor steps through a6*s*Vs1 and a8*s*Vs3
    so that every term carries the same dimensions as Vs2.

    Args:
        coeffs: polynomial coefficients from lump_coefficients().
        drive: step amplitudes for the three lines.
        s: complex frequency; must not coincide with a pole or s = 0.

    Returns:
        (V_A, V_B, V_C) as complex values.

    Raises:
        PoleProximityError: if s is within POLE_TOLERANCE of any pole of
            the transfer functions or of the step input itself.
    """
    c = coeffs
    for b in (c.b1, c.b2, c.b3):
        if abs(1.0 + b * s) < POLE_TOLERANCE:
            raise PoleProximityError(
                f"s={s!r} is within {POLE_TOLERANCE} of the pole -1/{b!r}"
            )
    if abs(s) * max(c.b1, c.b2, c.b3) < POLE_TOLERANCE:
        raise PoleProximityError(f"s={s!r} is too close to the step-input pole at 0")

    vs1 = drive.v_s1 / s
    vs2 = drive.v_s2 / s
    vs3 = drive.v_s3 / s
    den_a = (1.0 + c.b1 * s) * (1.0 + c.b2 * s) * (1.0 + c.b3 * s)
    den_b = (1.0 + c.b4 * s) * (1.0 + c.b5 * s)

    def aggressor(near: complex, victim: complex, far: complex) -> complex:
        return (
            (1.0 + c.a1 * s + c.a2 * s * s) * near
            + (c.a3 * s + c.a4 * s * s) * victim
            + c.a5 * s * s * far
        ) / den_a

    v_a = aggressor(vs1, vs2, vs3)
    v_c = aggressor(vs3, vs2, vs1)
    v_b = (c.a6 * s * vs1 + (1.0 + c.a7 * s) * vs2 + c.a8 * s * vs3) / den_b
    return v_a, v_b, v_c


@dataclass(frozen=True)
class ModalResponse:
    """Rows of V(t) = final - residues @ exp(-rates * t), t >= 0: residues
    are rows x modes (volts), final defaults to residues.sum(axis=-1). The
    modes are summed in the order given, which sets the last bit: the
    oracle's rates ascend, the lump's are 1/(R*C), then 1/(R*(C + 3*C_c))."""

    rates: np.ndarray
    residues: np.ndarray
    final: np.ndarray | None = None

    def __post_init__(self):
        if self.final is None:
            object.__setattr__(self, "final", self.residues.sum(axis=-1))

    def at(self, times: np.ndarray, rows=slice(None)) -> np.ndarray:
        """The (len(times) x rows) table at the ascending times. Each mode is
        summed only where it is live: once rate * t >= 746, exp(-rate * t)
        has underflowed to exactly 0.0 (past about 745.13), so the skip is exact."""
        residues = self.residues[rows]
        values = np.tile(self.final[rows], (len(times), 1))
        lives = np.searchsorted(times, 746.0 / self.rates)
        for rate, residue, live in zip(self.rates, residues.T, lives):
            values[:live] -= np.exp(-rate * times[:live])[:, None] * residue
        return values

    def crossing(self, threshold: float, lo: float, hi: float, row: int = 0) -> float:
        """The row's first time V >= threshold, to adjacent floats, where
        V(lo) < threshold <= V(hi) and V crosses the threshold once on [lo, hi].
        A safeguarded Newton search (Numerical Recipes' rtsafe) from the
        secant guess: each point narrows the bracket; a Newton step that
        leaves it, or is not under half the step before last, bisects
        instead; each Newton point aims four ulps past the root, so both
        ends close in on it."""
        rates, residues = self.rates, self.residues[row]
        # in units of a power of two that keeps rates * residues finite: exact
        scale = math.ldexp(1.0, -max(0, math.frexp(float(np.abs(residues).max()))[1]))
        # Python floats: a Newton step past the largest float is inf, not a warning
        residues, threshold = residues * scale, float(threshold) * scale
        v_inf, slopes = float(self.final[row]) * scale, rates * residues

        def excess(t: float) -> tuple[float, float]:  # V(t) - threshold, V'(t)
            decay = np.exp(-rates * t)
            return float(v_inf - residues @ decay) - threshold, float(slopes @ decay)

        below, above = excess(lo)[0], excess(hi)[0]
        t = lo + (hi - lo) * (below / (below - above)) if below < 0.0 <= above else lo
        steps = (hi - lo, hi - lo)  # the last two steps, older first
        while lo < 0.5 * (lo + hi) < hi:
            if not lo < t < hi:
                t = 0.5 * (lo + hi)
            f, slope = excess(t)
            lo, hi = (lo, t) if f >= 0.0 else (t, hi)
            newton = t - f / slope if slope > 0.0 else math.nan
            past = newton + math.copysign(4.0 * math.ulp(newton), newton - t)
            newton = past if lo < past < hi else newton
            if not (lo < newton < hi and abs(newton - t) <= 0.5 * steps[0]):
                newton = 0.5 * (lo + hi)
            steps, t = (steps[1], abs(newton - t)), newton
        return hi


def _lump_response(line: LineRC, w_fast: float, w_slow: float, final=None) -> ModalResponse:
    """Weight w_fast of v_dd on the R*C mode, w_slow on R*(C + 3*C_c)."""
    rates = np.array([1.0 / line.tau_ground, 1.0 / line.tau_coupled])
    return ModalResponse(rates, line.v_dd * np.array([[w_fast, w_slow]]), final)


def _victim_response(mode: CrosstalkMode, line: LineRC) -> ModalResponse:
    w = (1.0 + 2.0 * AGGRESSOR_STEP[mode]) / 3.0
    return _lump_response(line, w, 1.0 - w)


def _at(response: ModalResponse, t):
    """The one-row response at t >= 0, a scalar (a float back) or an array."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise ValueError("t must be >= 0")
    flat = t.ravel()  # at needs ascending times: sorted here only if they are not
    order = np.argsort(flat) if np.any(flat[1:] < flat[:-1]) else slice(None)
    out = np.empty(flat.shape)
    out[order] = response.at(flat[order])[:, 0]
    return out.reshape(t.shape) if t.shape else float(out[0])


def step_response_victim(mode: CrosstalkMode, line: LineRC, t):
    """Exact victim node voltage at time t for a rising step in the given mode.

    Accepts a scalar or an ndarray of times (seconds, >= 0) and returns
    volts with the same shape. See the module docstring for the form.
    """
    return _at(_victim_response(mode, line), t)


def published_out_of_phase_response(line: LineRC, t):
    """The paper's linearized out-of-phase victim waveform,
    v_dd * (1 + (2/3) exp(-t/(R*C)) - (2/3) exp(-t/(R*(C + 3*C_c)))).

    It equals v_dd at t = 0, an artifact of the linearization; the exact
    response is step_response_victim(CrosstalkMode.OUT_OF_PHASE, ...). Its
    residues sum to 0, so it holds its final value, v_dd, explicitly.
    """
    return _at(_lump_response(line, -2.0 / 3.0, 2.0 / 3.0, np.array([line.v_dd])), t)


def threshold_delay(
    mode: CrosstalkMode, line: LineRC, threshold_fraction: float = 0.5
) -> float:
    """Time at which the exact victim response reaches threshold_fraction * v_dd.

    The response starts at 0 and crosses once (out-of-phase first dips
    below 0 when C_c > C). 1 - V/v_dd is at most (|w| + |1 - w|) e^(-t/
    tau_coupled) <= (5/3) e^(-t/tau_coupled), so the crossing lies in
    [0, tau_coupled * ln(5 / (3 (1 - f)))], located to float resolution.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must be in (0, 1)")
    hi = line.tau_coupled * math.log(5.0 / (3.0 * (1.0 - threshold_fraction)))
    return _victim_response(mode, line).crossing(threshold_fraction * line.v_dd, 0.0, hi)


def first_order_delay(mode: CrosstalkMode, line: LineRC) -> float:
    """Half-swing delay of the linearized victim response.

    Expanding each exponential to first order (and folding C into the
    slow term's 3*C_c, which assumes C_c dominates C) gives

        in-phase:      (R*C) / 2
        quiet:         (1/2) / (1/(3*R*C) + 2/(9*R*C_c))
        out-of-phase:  (1/2) / (2/(3*R*C) - 2/(9*R*C_c))

    The quiet and out-of-phase forms require c_c > 0. The out-of-phase
    denominator changes sign when 3*C_c <= C; there the linearized model
    has no half-swing crossing.

    Raises:
        DegenerateDelayError: out-of-phase with a non-positive denominator.
    """
    rc = line.tau_ground
    if mode is CrosstalkMode.IN_PHASE:
        return rc / 2.0
    if line.c_c <= 0.0:
        raise ValueError(f"{mode.value} linearized delay requires c_c > 0")
    rcc = line.r * line.c_c
    if mode is CrosstalkMode.QUIET:
        return 0.5 / (1.0 / (3.0 * rc) + 2.0 / (9.0 * rcc))
    if mode is CrosstalkMode.OUT_OF_PHASE:
        denom = 2.0 / (3.0 * rc) - 2.0 / (9.0 * rcc)
        if denom <= 0.0:
            raise DegenerateDelayError(
                f"out-of-phase linearized delay is undefined for "
                f"c_c <= c/3 (c={line.c!r}, c_c={line.c_c!r})"
            )
        return 0.5 / denom
    raise ValueError(f"unknown mode {mode!r}")


def taylor_inversion_reference(mode: CrosstalkMode, line: LineRC) -> float:
    """Linearized delay doubled, i.e. the delay whose pair inversion by the
    extraction formulas returns (c, c_c) unchanged; in-phase it is r * c.
    Used by the forward model that synthesizes measurement records.
    """
    return 2.0 * first_order_delay(mode, line)
