"""Coupled-RC interconnect crosstalk modeling and ring-oscillator
parasitic extraction.

The package models three parallel interconnect lines driven through
identical switching resistances, with each outer line capacitively
coupled to the center (victim) line. It provides:

* a capacitance algebra for the elementary plate/fringe/coupling
  components and the per-mode effective load (`capacitance`),
* closed-form Laplace transfer functions, step responses and threshold
  delays for the single-lump line model (`lumpmodel`),
* an independent, exact state-space transient oracle, with optional
  line segmentation, for validating the closed forms (`simulator`),
* a ring-oscillator forward model and parasitic extraction from
  oscillation periods and supply currents (`oscillator`, `extraction`),
* file formats, reports, multi-die clock binning and a command-line
  interface (`files`, `reporting`, `cli`).

The package root re-exports the library API the README lists, and no
more: the computations a script calls, the types it builds or reads by
name, the paper-equation helpers and the exceptions. Renderers, file
writing, the oracle's one-line wrappers and types that only come back
from a call are imported from their modules.
"""

from .capacitance import (
    AGGRESSOR_STEP,
    CapacitanceSet,
    CrosstalkMode,
    effective_capacitance,
)
from .errors import (
    DegenerateDelayError,
    ExtractionDomainError,
    InvalidSelectCodeError,
    MissingRecordError,
    NoCrossingError,
    NumericError,
    ParseError,
    PoleProximityError,
    RingRcError,
    ValidationError,
)
from .extraction import (
    ExtractionResult,
    ParasiticSet,
    compare_to_spec,
    coupling_capacitance,
    extract_all,
    gate_capacitance,
    ground_capacitance,
    interconnect_capacitance,
    stage_capacitance,
    switching_resistance,
)
from .files import (
    parse_config,
    parse_measurements,
    parse_report,
    read_config,
    read_measurements,
)
from .lumpmodel import (
    DrivePattern,
    LineRC,
    first_order_delay,
    lump_coefficients,
    published_out_of_phase_response,
    step_response_victim,
    taylor_inversion_reference,
    threshold_delay,
    transfer_eval,
)
from .oscillator import (
    DeviceParams,
    Fanout,
    MeasurementRecord,
    Measurements,
    RoConfig,
    SynthesisTruth,
    counter_period,
    mux_decode,
    osc_frequency,
    stage_delay_from_current,
    stage_delay_from_period,
    synthesize_measurements,
)
from .reporting import monitor_binning, run_validation, validate_geometry
from .simulator import SimulationResult, build_network, frequency_response, victim_delay

__version__ = "0.1.0"

__all__ = [
    "AGGRESSOR_STEP",
    "CapacitanceSet",
    "CrosstalkMode",
    "DegenerateDelayError",
    "DeviceParams",
    "DrivePattern",
    "ExtractionDomainError",
    "ExtractionResult",
    "Fanout",
    "InvalidSelectCodeError",
    "LineRC",
    "MeasurementRecord",
    "Measurements",
    "MissingRecordError",
    "NoCrossingError",
    "NumericError",
    "ParasiticSet",
    "ParseError",
    "PoleProximityError",
    "RingRcError",
    "RoConfig",
    "SimulationResult",
    "SynthesisTruth",
    "ValidationError",
    "build_network",
    "compare_to_spec",
    "counter_period",
    "coupling_capacitance",
    "effective_capacitance",
    "extract_all",
    "first_order_delay",
    "frequency_response",
    "gate_capacitance",
    "ground_capacitance",
    "interconnect_capacitance",
    "lump_coefficients",
    "monitor_binning",
    "mux_decode",
    "osc_frequency",
    "parse_config",
    "parse_measurements",
    "parse_report",
    "published_out_of_phase_response",
    "read_config",
    "read_measurements",
    "run_validation",
    "stage_capacitance",
    "stage_delay_from_current",
    "stage_delay_from_period",
    "step_response_victim",
    "switching_resistance",
    "synthesize_measurements",
    "taylor_inversion_reference",
    "threshold_delay",
    "transfer_eval",
    "validate_geometry",
    "victim_delay",
]
