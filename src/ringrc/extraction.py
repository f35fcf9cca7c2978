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
silicon data c lands near half the in-phase stage load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .capacitance import CrosstalkMode
from .errors import ExtractionDomainError, MissingRecordError, ValidationError
from .oscillator import Fanout, MeasurementRecord, RoConfig, stage_delay_from_period


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
        return {
            "c_total": self.c_total,
            "c_gate": self.c_gate,
            "c_int": self.c_int,
            "c_c": self.c_c,
            "r_sw": self.r_sw,
        }


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


@dataclass(frozen=True)
class ExtractionResult:
    """Full extraction for one geometry, with per-value record provenance."""

    geometry: str
    r_sw: float
    c_s: float
    c_gate: float
    c_int: float
    c_total: float
    c_ground: float
    c_coupling: float
    provenance: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def parasitics(self) -> ParasiticSet:
        return ParasiticSet(
            c_total=self.c_total,
            c_gate=self.c_gate,
            c_int=self.c_int,
            c_c=self.c_coupling,
            r_sw=self.r_sw,
        )


@dataclass(frozen=True)
class ErrorReport:
    """Relative errors of one parasitic set against design targets.

    param_errors maps parameter name to |value - target| / target;
    delay_product_error compares r_sw * c_total the same way. Errors are
    fractions (0.12 means 12 percent). Parameters missing on either side
    are omitted.
    """

    geometry: str
    param_errors: dict[str, float]
    delay_product_error: float | None


def switching_resistance(i_eff: float, v_dd: float) -> float:
    """Driver switching resistance r_sw = v_dd / (2 i_eff)."""
    if not i_eff > 0.0:
        raise ValueError(f"i_eff must be > 0, got {i_eff!r}")
    if not v_dd > 0.0:
        raise ValueError(f"v_dd must be > 0, got {v_dd!r}")
    return v_dd / (2.0 * i_eff)


def stage_capacitance(t_osc: float, i_eff: float, config: RoConfig) -> float:
    """Stage load from charge balance, c_s = t_osc * i_eff / (2 n m v_dd)."""
    if not t_osc > 0.0 or not i_eff > 0.0:
        raise ValueError("t_osc and i_eff must be > 0")
    return t_osc * i_eff / (config.period_scale * config.v_dd)


def gate_capacitance(
    t_osc_fo1: float, t_osc_fo2: float, r_sw: float, config: RoConfig
) -> float:
    """Gate load from the period increase of the double-loaded oscillator."""
    if not t_osc_fo2 > t_osc_fo1:
        raise ExtractionDomainError(
            f"FO2 period must exceed FO1 period, got "
            f"{t_osc_fo2!r} <= {t_osc_fo1!r}"
        )
    return (t_osc_fo2 - t_osc_fo1) / (config.period_scale * r_sw)


def interconnect_capacitance(
    t_osc_fo1: float, t_osc_fo2: float, r_sw: float, config: RoConfig
) -> float:
    """Interconnect load left after removing the gate contribution."""
    if not 2.0 * t_osc_fo1 > t_osc_fo2:
        raise ExtractionDomainError(
            f"2 * FO1 period must exceed FO2 period, got "
            f"2 * {t_osc_fo1!r} <= {t_osc_fo2!r}"
        )
    return (2.0 * t_osc_fo1 - t_osc_fo2) / (config.period_scale * r_sw)


def ground_capacitance(t_o: float, t_q: float, r: float) -> float:
    """Stage ground load from the out-of-phase / quiet stage-delay pair.

    c = t_o t_q / (r (t_o + t_q)); includes the 1/2 lump-to-distributed
    scaling relative to the exact inversion of the linearized delays.
    """
    if not t_o > 0.0 or not t_q > 0.0:
        raise ValueError("stage delays must be > 0")
    if not r > 0.0:
        raise ValueError(f"r must be > 0, got {r!r}")
    return t_o * t_q / (r * (t_o + t_q))


def coupling_capacitance(t_o: float, t_q: float, r: float) -> float:
    """Coupling load from the same delay pair.

    c_c = 2 t_o t_q / (3 r (2 t_o - t_q)), with the same 1/2 scaling.
    """
    if not t_o > 0.0 or not t_q > 0.0:
        raise ValueError("stage delays must be > 0")
    if not r > 0.0:
        raise ValueError(f"r must be > 0, got {r!r}")
    if not 2.0 * t_o > t_q:
        raise ExtractionDomainError(
            f"2 * t_o must exceed t_q, got 2 * {t_o!r} <= {t_q!r}"
        )
    return 2.0 * t_o * t_q / (3.0 * r * (2.0 * t_o - t_q))


def _index_records(
    records: list[MeasurementRecord],
) -> dict[tuple[Fanout, CrosstalkMode], MeasurementRecord]:
    geometries = {rec.geometry for rec in records}
    if len(geometries) > 1:
        raise ValidationError(
            f"records span several geometries {sorted(geometries)}; "
            f"extract one geometry at a time"
        )
    index = {}
    for rec in records:
        key = (rec.fanout, rec.mode)
        if key in index:
            raise ValidationError(
                f"duplicate ({rec.fanout.value}, {rec.mode.value}) records "
                f"{index[key].label()!r} and {rec.label()!r}; "
                f"extract one die at a time"
            )
        index[key] = rec
    return index


def _require(
    index: dict[tuple[Fanout, CrosstalkMode], MeasurementRecord],
    fanout: Fanout,
    mode: CrosstalkMode,
) -> MeasurementRecord:
    try:
        return index[(fanout, mode)]
    except KeyError:
        raise MissingRecordError(
            f"required record ({fanout.value}, {mode.value}) is missing"
        ) from None


def extract_all(
    records: list[MeasurementRecord],
    config: RoConfig,
    rsw_mode: CrosstalkMode = CrosstalkMode.IN_PHASE,
) -> ExtractionResult:
    """Run the full extraction on one geometry's records.

    Needs in-phase FO1 and FO2 records (periods and the FO1 current) plus
    out-of-phase and quiet FO1 records. rsw_mode selects which FO1
    record's current feeds the switching resistance; in-phase is the
    default because its purely capacitive stage load matches the charge
    balance behind the formula.

    Returns an ExtractionResult whose provenance maps each extracted
    value to the records it came from. Raises ValidationError when two
    records share a (fanout, mode), as happens when dies are mixed.
    """
    if not records:
        raise ValidationError("no records given")
    index = _index_records(records)

    inp_fo1 = _require(index, Fanout.FO1, CrosstalkMode.IN_PHASE)
    inp_fo2 = _require(index, Fanout.FO2, CrosstalkMode.IN_PHASE)
    oop_fo1 = _require(index, Fanout.FO1, CrosstalkMode.OUT_OF_PHASE)
    quiet_fo1 = _require(index, Fanout.FO1, CrosstalkMode.QUIET)
    rsw_rec = _require(index, Fanout.FO1, rsw_mode)

    r_sw = switching_resistance(rsw_rec.i_eff, config.v_dd)
    c_s = stage_capacitance(inp_fo1.t_osc, inp_fo1.i_eff, config)
    c_gate = gate_capacitance(inp_fo1.t_osc, inp_fo2.t_osc, r_sw, config)
    c_int = interconnect_capacitance(inp_fo1.t_osc, inp_fo2.t_osc, r_sw, config)
    t_o = stage_delay_from_period(config, oop_fo1.t_osc)
    t_q = stage_delay_from_period(config, quiet_fo1.t_osc)
    c_ground = ground_capacitance(t_o, t_q, r_sw)
    c_coupling = coupling_capacitance(t_o, t_q, r_sw)

    geometry = records[0].geometry
    pair = (inp_fo1.label(), inp_fo2.label())
    provenance = {
        "r_sw": (rsw_rec.label(),),
        "c_s": (inp_fo1.label(),),
        "c_gate": pair,
        "c_int": pair,
        "c_total": pair,
        "c_ground": (oop_fo1.label(), quiet_fo1.label(), rsw_rec.label()),
        "c_coupling": (oop_fo1.label(), quiet_fo1.label(), rsw_rec.label()),
    }
    return ExtractionResult(
        geometry=geometry,
        r_sw=r_sw,
        c_s=c_s,
        c_gate=c_gate,
        c_int=c_int,
        c_total=c_gate + c_int,
        c_ground=c_ground,
        c_coupling=c_coupling,
        provenance=provenance,
    )


def compare_to_spec(
    values: ParasiticSet | ExtractionResult,
    spec: ParasiticSet,
    geometry: str = "",
) -> ErrorReport:
    """Relative errors of extracted (or published) values against targets.

    The delay-product error compares r_sw * c_total between the two sets
    and is None when either side lacks one of the factors.
    """
    if isinstance(values, ExtractionResult):
        if geometry and geometry != values.geometry:
            raise ValidationError(
                f"geometry mismatch: result is {values.geometry!r}, "
                f"targets are {geometry!r}"
            )
        geometry = values.geometry
        values = values.parasitics

    param_errors = {}
    for name, value in values.as_dict().items():
        target = spec.as_dict()[name]
        if value is None or target is None:
            continue
        if target == 0.0:
            raise ValueError(f"target {name} is zero; relative error undefined")
        param_errors[name] = abs(value - target) / target

    delay_error = None
    if None not in (values.r_sw, values.c_total, spec.r_sw, spec.c_total):
        ours = values.r_sw * values.c_total
        target = spec.r_sw * spec.c_total
        delay_error = abs(ours - target) / target

    return ErrorReport(
        geometry=geometry,
        param_errors=param_errors,
        delay_product_error=delay_error,
    )
