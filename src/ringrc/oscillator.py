"""Ring-oscillator test-structure algebra and measurement synthesis.

The structure is an n-stage ring oscillator whose stage wires run next to
aggressor wires; a two-bit select chooses whether the aggressors switch
with the victim, against it, or stay quiet. The oscillator output feeds a
divide-by-m counter, so one counter period spans 2*n*m stage delays:

    f_stage = 1 / (2 n t_s)        t_osc = 2 n m t_s

A stage charging a load C through its driver obeys t_s = C V / I, or with
distinct pull-up / pull-down currents t_s = C V (1/I_dp + 1/I_dn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .capacitance import CrosstalkMode, effective_capacitance
from .errors import InvalidSelectCodeError
from .lumpmodel import LineRC, taylor_inversion_reference


class Fanout(Enum):
    """Load variant of the ring oscillator: one or two gate loads per stage."""

    FO1 = "FO1"
    FO2 = "FO2"


#: Aggressor-select decoding. The remaining code "10" is reserved.
_SELECT_CODES = {
    "00": CrosstalkMode.IN_PHASE,
    "01": CrosstalkMode.OUT_OF_PHASE,
    "11": CrosstalkMode.QUIET,
}


@dataclass(frozen=True)
class RoConfig:
    """Ring-oscillator and counter parameters.

    n is the stage count, m the counter division ratio, v_dd the supply
    (volts). geometry / fanout describe one concrete instance and are
    informational for the pure algebra.
    """

    n: int
    m: int
    v_dd: float
    fanout: Fanout = Fanout.FO1
    geometry: str = ""

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not (math.isfinite(self.v_dd) and self.v_dd > 0.0):
            raise ValueError(f"v_dd must be finite and > 0, got {self.v_dd!r}")

    @property
    def period_scale(self) -> int:
        """Stage delays per counter period, 2 * n * m."""
        return 2 * self.n * self.m


@dataclass(frozen=True)
class DeviceParams:
    """Average drive currents of one stage (amps)."""

    i_dp: float
    i_dn: float

    def __post_init__(self):
        if not self.i_dp > 0.0 or not self.i_dn > 0.0:
            raise ValueError("drive currents must be > 0")

    @classmethod
    def from_average_current(cls, i_avg: float) -> "DeviceParams":
        """Symmetric device with a single average current: t_s = C V / i_avg."""
        return cls(2.0 * i_avg, 2.0 * i_avg)


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured oscillation: counter period plus supply current.

    t_osc is in seconds, currents in amps. When i_dda / i_ddq (active and
    quiescent supply currents) are given, i_eff is their difference.
    """

    geometry: str
    fanout: Fanout
    mode: CrosstalkMode
    t_osc: float
    i_eff: float
    i_dda: float | None = None
    i_ddq: float | None = None
    die: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.t_osc) and self.t_osc > 0.0):
            raise ValueError(f"t_osc must be finite and > 0, got {self.t_osc!r}")
        if not (math.isfinite(self.i_eff) and self.i_eff > 0.0):
            raise ValueError(f"i_eff must be finite and > 0, got {self.i_eff!r}")
        if (self.i_dda is None) != (self.i_ddq is None):
            raise ValueError("i_dda and i_ddq must be given together")
        if self.i_dda is not None:
            if not (math.isfinite(self.i_dda) and math.isfinite(self.i_ddq)):
                raise ValueError(
                    f"i_dda and i_ddq must be finite, got "
                    f"{self.i_dda!r} and {self.i_ddq!r}"
                )
            derived = self.i_dda - self.i_ddq
            if abs(derived - self.i_eff) > 1e-12 * max(self.i_eff, 1e-30):
                raise ValueError("i_eff must equal i_dda - i_ddq")

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.die, self.geometry, self.fanout.value, self.mode.value)

    def label(self) -> str:
        parts = [self.geometry, self.fanout.value, self.mode.value]
        if self.die:
            parts.insert(0, self.die)
        return "/".join(parts)


def mux_decode(code: str) -> CrosstalkMode:
    """Decode the two-bit aggressor-select code.

    "00" drives the aggressors with the victim, "01" against it, and
    "11" holds them quiet. "10" is reserved and rejected.
    """
    if code == "10":
        raise InvalidSelectCodeError(
            'select code "10" is reserved and must not be used'
        )
    try:
        return _SELECT_CODES[code]
    except KeyError:
        raise ValueError(
            f"select code must be one of 00, 01, 11 (10 is reserved), got {code!r}"
        ) from None


def stage_delay_from_current(c_load: float, v: float, params: DeviceParams) -> float:
    """Stage delay t_s = C V (1/I_dp + 1/I_dn)."""
    if not c_load > 0.0 or not v > 0.0:
        raise ValueError("c_load and v must be > 0")
    return c_load * v * (1.0 / params.i_dp + 1.0 / params.i_dn)


def osc_frequency(n: int, t_s: float) -> float:
    """Oscillation frequency of an n-stage ring, 1 / (2 n t_s)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not t_s > 0.0:
        raise ValueError(f"t_s must be > 0, got {t_s!r}")
    return 1.0 / (2.0 * n * t_s)


def counter_period(config: RoConfig, t_s: float) -> float:
    """Counter output period, 2 * n * m * t_s."""
    if not t_s > 0.0:
        raise ValueError(f"t_s must be > 0, got {t_s!r}")
    return config.period_scale * t_s


def stage_delay_from_period(config: RoConfig, t_osc: float) -> float:
    """Invert counter_period: t_s = t_osc / (2 n m)."""
    if not t_osc > 0.0:
        raise ValueError(f"t_osc must be > 0, got {t_osc!r}")
    return t_osc / config.period_scale


@dataclass(frozen=True)
class SynthesisTruth:
    """Ground-truth parameters for the forward model (ohms / farads)."""

    r_sw: float
    c_gate: float
    c_int: float
    c_c: float

    def __post_init__(self):
        if not self.r_sw > 0.0:
            raise ValueError("r_sw must be > 0")
        for name in ("c_gate", "c_int", "c_c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


def synthesize_measurements(
    truth: SynthesisTruth,
    config: RoConfig,
    modes: tuple[CrosstalkMode, ...] = (
        CrosstalkMode.IN_PHASE,
        CrosstalkMode.OUT_OF_PHASE,
        CrosstalkMode.QUIET,
    ),
    fanouts: tuple[Fanout, ...] = (Fanout.FO1, Fanout.FO2),
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[MeasurementRecord]:
    """Forward-model measurement records from known parasitics.

    Per fanout the stage ground load aggregates the interconnect and one
    (FO1) or two (FO2) gate capacitances. In-phase records use the plain
    charge-balance delay t_s = r_sw * load, which the period-difference
    extraction inverts exactly. Quiet and out-of-phase records use the
    delay form whose pair inversion by the coupling extraction returns
    (load, c_c) exactly (see lumpmodel.taylor_inversion_reference), so a
    zero-noise round trip through extract_all recovers the truth.

    The effective supply current is v_dd / (2 * r_sw) on every record.
    noise_sigma applies independent multiplicative Gaussian noise to each
    period and current.
    """
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma!r}")
    if noise_sigma > 0.0 and rng is None:
        rng = np.random.default_rng()

    def perturb(value: float) -> float:
        if noise_sigma == 0.0:
            return value
        return value * (1.0 + noise_sigma * rng.standard_normal())

    i_eff = config.v_dd / (2.0 * truth.r_sw)
    records = []
    for fanout in fanouts:
        gate_count = 1 if fanout is Fanout.FO1 else 2
        load = truth.c_int + gate_count * truth.c_gate
        line = LineRC(r=truth.r_sw, c=load, c_c=truth.c_c, v_dd=config.v_dd)
        for mode in modes:
            if mode is CrosstalkMode.IN_PHASE:
                t_s = truth.r_sw * effective_capacitance(mode, load, truth.c_c)
            else:
                t_s = taylor_inversion_reference(mode, line)
            records.append(
                MeasurementRecord(
                    geometry=config.geometry,
                    fanout=fanout,
                    mode=mode,
                    t_osc=perturb(counter_period(config, t_s)),
                    i_eff=perturb(i_eff),
                )
            )
    return records
