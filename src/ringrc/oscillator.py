"""Ring-oscillator test-structure algebra and measurement synthesis.

The structure is an n-stage ring oscillator whose stage wires run next to
aggressor wires; a two-bit select chooses whether the aggressors switch
with the victim, against it, or stay quiet. The oscillator output feeds a
divide-by-m counter, so one counter period spans 2*n*m stage delays:

    f_stage = 1 / (2 n t_s)        t_osc = 2 n m t_s

A stage charging a load C through its driver obeys t_s = C V / I, or with
distinct pull-up / pull-down currents t_s = C V (1/I_dp + 1/I_dn).
No command calls mux_decode, osc_frequency, stage_delay_from_current or
DeviceParams: they stay as these equations of the paper, pinned by tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .capacitance import CrosstalkMode
from .errors import InvalidSelectCodeError, _finite_positive
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
    (volts). geometry names the records synthesize_measurements produces;
    the period algebra does not read it.
    """

    n: int
    m: int
    v_dd: float
    geometry: str = ""

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if 2 * self.n * self.m > sys.float_info.max:  # an int-float comparison is exact
            raise ValueError(f"2 * n * m must not exceed the largest float, "
                             f"{sys.float_info.max!r}: the period algebra divides by it")
        _finite_positive(v_dd=self.v_dd)

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
        _finite_positive(**vars(self))

    @classmethod
    def from_average_current(cls, i_avg: float) -> "DeviceParams":
        """Symmetric device with a single average current: t_s = C V / i_avg."""
        return cls(2.0 * i_avg, 2.0 * i_avg)


def record_label(die: str, geometry: str, fanout: Fanout, mode: CrosstalkMode) -> str:
    """A record's name, die/geometry/fanout/mode, without a blank die."""
    parts = (geometry, fanout.value, mode.value)
    return "/".join((die, *parts) if die else parts)


class MeasurementRecord(NamedTuple):
    """One row of a Measurements table, as iterating the table yields it."""

    geometry: str
    fanout: Fanout
    mode: CrosstalkMode
    t_osc: float
    i_eff: float
    die: str = ""

    def label(self) -> str:
        return record_label(self.die, self.geometry, self.fanout, self.mode)


@dataclass(frozen=True)
class Measurements:
    """Measured oscillations, column by column: die and geometry strings
    and fanout and mode members (object arrays), t_osc in seconds and
    i_eff in amps (float64). Rows are checked once, where they are made."""

    die: np.ndarray
    geometry: np.ndarray
    fanout: np.ndarray
    mode: np.ndarray
    t_osc: np.ndarray
    i_eff: np.ndarray

    @classmethod
    def from_columns(cls, die, geometry, fanout, mode, t_osc, i_eff):
        """A table from one sequence per column."""
        labels = [np.array(c, dtype=object) for c in (die, geometry, fanout, mode)]
        return cls(*labels, np.array(t_osc, dtype=np.float64),
                   np.array(i_eff, dtype=np.float64))

    @classmethod
    def from_records(cls, records: Iterable[MeasurementRecord]) -> "Measurements":
        """A table of rows whose t_osc and i_eff are finite and > 0, else ValueError."""
        rows = list(records)
        for row in rows:
            _finite_positive(t_osc=row.t_osc, i_eff=row.i_eff)
        geometry, fanout, mode, t_osc, i_eff, die = zip(*rows) if rows else [()] * 6
        return cls.from_columns(die, geometry, fanout, mode, t_osc, i_eff)

    def __len__(self) -> int:
        return len(self.t_osc)

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return map(MeasurementRecord._make, zip(
            self.geometry, self.fanout, self.mode, self.t_osc.tolist(),
            self.i_eff.tolist(), self.die))

    def take(self, rows: np.ndarray) -> "Measurements":
        """The given rows, in the given order."""
        return Measurements(*(column[rows] for column in vars(self).values()))

    def where(self, field: str, value) -> "Measurements":
        """The rows whose field equals value, in table order."""
        return self.take(np.flatnonzero(getattr(self, field) == value))


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
    _finite_positive(c_load=c_load, v=v)
    return c_load * v * (1.0 / params.i_dp + 1.0 / params.i_dn)


def osc_frequency(n: int, t_s: float) -> float:
    """Oscillation frequency of an n-stage ring, 1 / (2 n t_s)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _finite_positive(t_s=t_s)
    return 1.0 / (2.0 * n * t_s)


def counter_period(config: RoConfig, t_s: float) -> float:
    """Counter output period, 2 * n * m * t_s."""
    _finite_positive(t_s=t_s)
    return config.period_scale * t_s


def stage_delay_from_period(config: RoConfig, t_osc: float) -> float:
    """Invert counter_period: t_s = t_osc / (2 n m), elementwise on arrays."""
    _finite_positive(t_osc=t_osc)
    return t_osc / config.period_scale


@dataclass(frozen=True)
class SynthesisTruth:
    """Ground-truth parameters for the forward model (ohms / farads)."""

    r_sw: float
    c_gate: float
    c_int: float
    c_c: float

    def __post_init__(self):
        _finite_positive(**vars(self))


def synthesize_measurements(
    truth: SynthesisTruth,
    config: RoConfig,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Measurements:
    """Forward-model measurement records from known parasitics.

    Returns a table of six records: FO1 then FO2, each in-phase, out-of-phase and
    quiet. Per fanout the stage ground load aggregates the interconnect
    and one (FO1) or two (FO2) gate capacitances. Every record uses the
    delay form whose inversion by the extraction returns the truth
    exactly (see lumpmodel.taylor_inversion_reference): in-phase records
    use the plain charge-balance delay t_s = r_sw * load, which the
    period-difference extraction inverts, and the quiet / out-of-phase
    pair inverts to (load, c_c) in the coupling extraction. So a
    zero-noise round trip through extract_all recovers the truth.

    The effective supply current is v_dd / (2 * r_sw) on every record.
    noise_sigma applies independent multiplicative Gaussian noise to each
    period and current.
    """
    _finite_positive(noise_sigma=noise_sigma, zero_ok=True)
    if noise_sigma > 0.0 and rng is None:
        rng = np.random.default_rng()

    def perturb(value: float) -> float:
        if noise_sigma == 0.0:
            return value
        return value * (1.0 + noise_sigma * rng.standard_normal())

    i_eff = config.v_dd / (2.0 * truth.r_sw)
    records = []
    for fanout, gate_count in ((Fanout.FO1, 1), (Fanout.FO2, 2)):
        load = truth.c_int + gate_count * truth.c_gate
        line = LineRC(r=truth.r_sw, c=load, c_c=truth.c_c, v_dd=config.v_dd)
        for mode in (
            CrosstalkMode.IN_PHASE,
            CrosstalkMode.OUT_OF_PHASE,
            CrosstalkMode.QUIET,
        ):
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
    return Measurements.from_records(records)
