"""Parasitic extraction from ring-oscillator period and current measurements.

Working from counter periods t_osc and effective supply currents i_eff
(canonically in-phase records, where coupling cancels and the stage load
is purely capacitive):

    r_sw    = v_dd / (2 i_eff)
    c_s     = t_osc * i_eff / (2 n m v_dd)        stage-load diagnostic
    c_gate  = (t_osc_fo2 - t_osc_fo1) / (2 n m r_sw)
    c_int   = (2 t_osc_fo1 - t_osc_fo2) / (2 n m r_sw)
    c_total = c_gate + c_int

The coupling path uses the per-stage out-of-phase and quiet delays
t_o, t_q (counter periods divided by 2 n m) through the inversion of the
linearized coupled-line delays, scaled by the 1/2 lump-to-distributed
factor:

    c   = t_o t_q / (r (t_o + t_q))
    c_c = 2 t_o t_q / (3 r (2 t_o - t_q))

Both carry that 1/2 factor; on data synthesized from the matching
forward model they return the stage load and coupling exactly, while on
silicon data c lands near half the in-phase stage load. Every formula
takes scalars or per-die arrays alike.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .capacitance import CrosstalkMode
from .errors import ExtractionDomainError, MissingRecordError, NumericError
from .errors import ValidationError
from .oscillator import Fanout, Measurements, RoConfig, record_label
from .oscillator import stage_delay_from_period


@dataclass(frozen=True)
class ParasiticSet:
    """Extracted or published parasitics for one geometry.

    Capacitances in farads, resistance in ohms; missing entries are None.
    """

    c_total: float | None = None
    c_gate: float | None = None
    c_int: float | None = None
    c_c: float | None = None
    r_sw: float | None = None

    def as_dict(self) -> dict[str, float | None]:
        """Every field by name, in declaration order."""
        return dict(vars(self))


@dataclass(frozen=True)
class SpecTable:
    """Per-geometry design-target parasitics."""

    values: Mapping[str, ParasiticSet]

    def for_geometry(self, geometry: str) -> ParasiticSet:
        try:
            return self.values[geometry]
        except KeyError:
            raise ValidationError(
                f"no design targets for geometry {geometry!r}; "
                f"known: {sorted(self.values)}"
            ) from None


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """One geometry's extraction, column by column: the die labels ("" if
    unlabelled) in sorted order and one float64 column per extracted
    value, named as in VALUES. One die is the length-1 case."""

    geometry: str
    die: np.ndarray
    r_sw: np.ndarray
    c_s: np.ndarray
    c_gate: np.ndarray
    c_int: np.ndarray
    c_total: np.ndarray
    c_ground: np.ndarray
    c_c: np.ndarray

    def _only_die(self) -> str:
        if len(self.die) != 1:
            raise ValueError(f"the {self.geometry} extraction holds {len(self.die)} dies, "
                             f"not one")
        return self.die[0]

    def one(self) -> dict[str, float]:
        """The one die's values by name; ValueError unless there is one die."""
        self._only_die()
        return {value.name: getattr(self, value.name).item() for value in VALUES}

    @property
    def provenance(self) -> dict[str, tuple[str, ...]]:
        """The one die's source record labels by value name; ValueError
        unless there is one die."""
        die = self._only_die()
        labels = [record_label(die, self.geometry, *pair) for pair in _REQUIRED]
        return {value.name: tuple([labels[i] for i in value.sources]) for value in VALUES}


@dataclass(frozen=True)
class ErrorReport:
    """Relative errors of one parasitic set against design targets.

    param_errors maps parameter name to |value - target| / target;
    delay_product_error compares r_sw * c_total the same way. Errors are
    fractions (0.12 means 12 percent). Parameters missing on either side
    are omitted. targets is the set the errors were taken against.
    """

    param_errors: dict[str, float]
    delay_product_error: float | None
    targets: ParasiticSet


def _check(holds, error: type, message: str, *values) -> None:
    """Raise error(message) unless holds is all true, filled with the values
    (as floats) where it first is not; works on scalars and arrays alike.
    A scalar skips np.all: without that, a one-die report takes x1.23."""
    if holds is not True and holds is not np.True_ and not np.all(holds):
        holds = np.asarray(holds)
        first = int(np.argmin(holds.ravel()))
        at = [float(np.broadcast_to(v, holds.shape).flat[first]) for v in values]
        raise error(message.format(*at))


def _in_range(names: Sequence[str], values: Iterable, units: Sequence[str]) -> None:
    """Raise ExtractionDomainError naming the first of values (each a value
    or a column per die, in its unit) that is not finite and > 0: the
    measurements were so large or small that a formula over- or underflowed
    (r_sw = v_dd / (2 i_eff) is 0 for i_eff = 1e308 A), or its value in
    that unit overflows."""
    for name, value, unit in zip(names, values, units):
        _check((value > 0.0) & (value < np.inf), ExtractionDomainError,
               f"{name} = {{!r}}: the measurements over- or underflow its formula"
               f" (it must be finite and > 0 in {unit})", value)


def switching_resistance(i_eff: float, v_dd: float) -> float:
    """Driver switching resistance r_sw = v_dd / (2 i_eff)."""
    _check(i_eff > 0.0, ValueError, "i_eff must be > 0, got {!r}", i_eff)
    _check(v_dd > 0.0, ValueError, "v_dd must be > 0, got {!r}", v_dd)
    return v_dd / (2.0 * i_eff)


def stage_capacitance(t_osc: float, i_eff: float, config: RoConfig) -> float:
    """Stage load from charge balance, c_s = t_osc * i_eff / (2 n m v_dd)."""
    _check((t_osc > 0.0) & (i_eff > 0.0), ValueError,
           "t_osc and i_eff must be > 0")
    return t_osc * i_eff / (config.period_scale * config.v_dd)


def gate_capacitance(
    t_osc_fo1: float, t_osc_fo2: float, r_sw: float, config: RoConfig
) -> float:
    """Gate load from the period increase of the double-loaded oscillator."""
    _check(t_osc_fo2 > t_osc_fo1, ExtractionDomainError,
           "FO2 period must exceed FO1 period, got {!r} <= {!r}", t_osc_fo2, t_osc_fo1)
    return (t_osc_fo2 - t_osc_fo1) / (config.period_scale * r_sw)


def interconnect_capacitance(
    t_osc_fo1: float, t_osc_fo2: float, r_sw: float, config: RoConfig
) -> float:
    """Interconnect load left after removing the gate contribution."""
    _check(2.0 * t_osc_fo1 > t_osc_fo2, ExtractionDomainError,
           "2 * FO1 period must exceed FO2 period, got 2 * {!r} <= {!r}",
           t_osc_fo1, t_osc_fo2)
    return (2.0 * t_osc_fo1 - t_osc_fo2) / (config.period_scale * r_sw)


def ground_capacitance(t_o: float, t_q: float, r: float) -> float:
    """Stage ground load from the out-of-phase / quiet stage-delay pair.

    c = t_o t_q / (r (t_o + t_q)); includes the 1/2 lump-to-distributed
    scaling relative to the exact inversion of the linearized delays.
    """
    _check((t_o > 0.0) & (t_q > 0.0), ValueError, "stage delays must be > 0")
    _check(r > 0.0, ValueError, "r must be > 0, got {!r}", r)
    return t_o * t_q / (r * (t_o + t_q))


def coupling_capacitance(t_o: float, t_q: float, r: float) -> float:
    """Coupling load from the same delay pair.

    c_c = 2 t_o t_q / (3 r (2 t_o - t_q)), with the same 1/2 scaling.
    """
    _check((t_o > 0.0) & (t_q > 0.0), ValueError, "stage delays must be > 0")
    _check(r > 0.0, ValueError, "r must be > 0, got {!r}", r)
    _check(2.0 * t_o > t_q, ExtractionDomainError,
           "2 * t_o must exceed t_q, got 2 * {!r} <= {!r}", t_o, t_q)
    return 2.0 * t_o * t_q / (3.0 * r * (2.0 * t_o - t_q))


def _cell(fanout, mode):
    """Index of a (fanout, mode) pair among a die's six; elementwise on columns."""
    return (3 * (fanout == Fanout.FO2) + (mode == CrosstalkMode.OUT_OF_PHASE)
            + 2 * (mode == CrosstalkMode.QUIET))


#: _cell of every pair, for rows taken one at a time.
_CELLS = {(fanout, mode): _cell(fanout, mode) for fanout in Fanout for mode in CrosstalkMode}

#: The (fanout, mode) records every die needs, in the order they are required.
_REQUIRED = (
    (Fanout.FO1, CrosstalkMode.IN_PHASE), (Fanout.FO2, CrosstalkMode.IN_PHASE),
    (Fanout.FO1, CrosstalkMode.OUT_OF_PHASE), (Fanout.FO1, CrosstalkMode.QUIET),
)
_REQUIRED_CELLS = [_CELLS[pair] for pair in _REQUIRED]


class Value(NamedTuple):
    """One extracted value: its name (in every report, and as the column of
    ExtractionResult), display unit, SI-to-unit scale and the records it is
    computed from, as indices into _REQUIRED."""

    name: str
    unit: str
    scale: float
    sources: tuple[int, ...]


#: Every extracted value, in report order, which is also ExtractionResult's
#: column order. A value with a design target is named
#: as the ParasiticSet field; its config key is spec.<geometry>.<name>_<unit>.
VALUES = (
    Value("r_sw", "ohm", 1.0, (0,)),
    Value("c_s", "fF", 1e15, (0,)),
    Value("c_gate", "fF", 1e15, (0, 1)),
    Value("c_int", "fF", 1e15, (0, 1)),
    Value("c_total", "fF", 1e15, (0, 1)),
    Value("c_ground", "fF", 1e15, (2, 3, 0)),
    Value("c_c", "fF", 1e15, (2, 3, 0)),
)
#: The values with a design target, in ParasiticSet's field order.
COMPARED = tuple(value for field in fields(ParasiticSet) for value in VALUES
                 if value.name == field.name)


def extract_all(measurements: Measurements, config: RoConfig) -> ExtractionResult:
    """Extract every die of one geometry's records, running the formulas
    once over per-die columns; one die is the length-1 case.

    Each die needs in-phase FO1 and FO2, out-of-phase and quiet FO1
    records; r_sw comes from the FO1 in-phase current, whose purely
    capacitive load the charge balance assumes. Every value must be finite
    and > 0 in its display unit. Returns one ExtractionResult of the dies'
    values as columns, in sorted die order. A failing lot raises what its
    first failing die raises alone, naming the die when there are several.
    """
    if not len(measurements):
        raise ValidationError("no records given")
    geometries = set(measurements.geometry)
    if len(geometries) > 1:
        raise ValidationError(
            f"records span several geometries {sorted(geometries)}; "
            f"extract one geometry at a time"
        )
    dies = sorted(set(measurements.die))
    position = {die: 6 * index for index, die in enumerate(dies)}
    count = len(measurements)
    # keys[row] = 6 * die + _cell(fanout, mode); in a loop for one die, as arrays
    # for more: swapped, a one-die report takes x1.06, a 4 000-die binning x1.08
    if len(dies) == 1:
        columns = zip(measurements.die, measurements.fanout, measurements.mode)
        keys = [position[die] + _CELLS[fanout, mode] for die, fanout, mode in columns]
    else:
        keys = (np.fromiter(map(position.__getitem__, measurements.die), np.int64, count)
                + _cell(measurements.fanout, measurements.mode)).tolist()
    if len(set(keys)) < count:
        first: dict[int, int] = {}
        row = next(r for r, cell in enumerate(keys) if first.setdefault(cell, r) != r)
        earlier, later = measurements.take(np.array([first[keys[row]], row]))
        raise ValidationError(f"duplicate ({later.fanout.value}, {later.mode.value}) "
                              f"records {earlier.label()!r} and {later.label()!r}")
    # grid[6 * die + _cell(fanout, mode)]: the row holding that record, or -1
    grid = [-1] * (6 * len(dies))
    for row, key in enumerate(keys):
        grid[key] = row
    # rows[slot][die]: the row holding that die's _REQUIRED[slot] record, or -1
    rows = [grid[cell::6] for cell in _REQUIRED_CELLS]

    def name(die: str) -> str:
        return f"die {die or '<blank>'}: " if len(dies) > 1 else ""

    def run(start: int, stop: int) -> tuple:
        """Every value of dies[start:stop], with the checks in order."""
        picked = [slot[start:stop] for slot in rows]
        t_osc, i_eff = measurements.t_osc[picked], measurements.i_eff[picked]
        if stop - start == 1:  # one die: as length-1 arrays a report takes x1.30
            t_osc, i_eff = t_osc[:, 0], i_eff[:, 0]
        inp_fo1, inp_fo2, oop_fo1, quiet_fo1 = t_osc
        r_sw = switching_resistance(i_eff[0], config.v_dd)
        c_s = stage_capacitance(inp_fo1, i_eff[0], config)
        c_gate = gate_capacitance(inp_fo1, inp_fo2, r_sw, config)
        c_int = interconnect_capacitance(inp_fo1, inp_fo2, r_sw, config)
        t_o = stage_delay_from_period(config, oop_fo1)
        t_q = stage_delay_from_period(config, quiet_fo1)
        _in_range(("r_sw", "stage delay t_o", "stage delay t_q"), (r_sw, t_o, t_q),
                  ("ohm", "s", "s"))
        c_ground = ground_capacitance(t_o, t_q, r_sw)
        c_c = coupling_capacitance(t_o, t_q, r_sw)
        values = r_sw, c_s, c_gate, c_int, c_gate + c_int, c_ground, c_c
        # every report shows the values in display units: those must be finite too
        _in_range([value.name for value in VALUES],
                  (x * value.scale for x, value in zip(values, VALUES)),
                  [value.unit for value in VALUES])
        return values

    # The dies before the first one with a missing record run the formulas
    # together; if a check fails, they rerun one at a time to find which.
    # numpy arithmetic, also on one die's scalars, over- and underflows to
    # inf, 0 or nan where Python floats would raise; _in_range catches those.
    usable = next((d for d, found in enumerate(zip(*rows)) if -1 in found), len(dies))
    with np.errstate(all="ignore"):
        try:
            values = run(0, usable)
        except (NumericError, ValueError):
            for index, die in enumerate(dies[:usable]):
                try:
                    run(index, index + 1)
                except (NumericError, ValueError) as exc:
                    raise type(exc)(f"{name(die)}{exc}") from None
            raise
    if usable < len(dies):
        fanout, mode = _REQUIRED[[slot[usable] for slot in rows].index(-1)]
        raise MissingRecordError(f"{name(dies[usable])}required record "
                                 f"({fanout.value}, {mode.value}) is missing")

    columns = np.array(values).reshape(len(values), -1)
    return ExtractionResult(geometries.pop(), np.array(dies, dtype=object), *columns)


def compare_to_spec(values: Mapping[str, float | None], spec: ParasiticSet) -> ErrorReport:
    """Relative errors of values by name (an extraction's `one()`, or a
    ParasiticSet's `as_dict()`) against targets, for the COMPARED names.

    The delay-product error compares r_sw * c_total between the two sets
    and is None when either side lacks one of the factors. An error that
    is not finite in percent (a value ~1e300 times its target, or a target
    product that underflows to 0.0) raises NumericError.
    """

    def relative(name: str, value: float, target: float) -> float:
        error = abs(value - target) / target if target else np.inf
        if not error * 100.0 < np.inf:
            raise NumericError(f"{name} = {value!r} is too far from its target "
                               f"{target!r} for a finite error in percent")
        return error

    targets = spec.as_dict()
    param_errors = {}
    for name in (value.name for value in COMPARED):
        value, target = values.get(name), targets[name]
        if value is None or target is None:
            continue
        if target == 0.0:
            raise ValueError(f"target {name} is zero; relative error undefined")
        param_errors[name] = relative(name, value, target)

    delay_error = None
    r_sw, c_total = values.get("r_sw"), values.get("c_total")
    if None not in (r_sw, c_total, spec.r_sw, spec.c_total):
        delay_error = relative("r_sw * c_total", r_sw * c_total, spec.r_sw * spec.c_total)

    return ErrorReport(
        param_errors=param_errors,
        delay_product_error=delay_error,
        targets=spec,
    )
