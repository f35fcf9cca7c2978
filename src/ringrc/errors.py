"""Exception hierarchy shared across the toolkit.

Three branches matter to callers (and map to distinct CLI exit codes):
ParseError for malformed input files, ValidationError for semantically
bad data or configuration, and NumericError for math that cannot be
carried out on otherwise well-formed inputs. Every value type and formula
input checks its quantities with _finite_positive: finite and > 0, or >= 0
where zero is physical, else ValueError naming the first that is not.
"""

from __future__ import annotations

import math


class RingRcError(Exception):
    """Base class for all toolkit errors."""


class ParseError(RingRcError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(RingRcError):
    """Well-formed input that violates a semantic requirement."""


class MissingRecordError(ValidationError):
    """A required (fanout, mode) measurement record is absent."""


class InvalidSelectCodeError(ValidationError):
    """Reserved or unknown aggressor-select code."""


class NumericError(RingRcError):
    """A computation cannot proceed on the given values."""


class NoCrossingError(NumericError):
    """A waveform or response never reaches the requested threshold."""


class DegenerateDelayError(NumericError):
    """Linearized delay form has a non-positive denominator."""


class PoleProximityError(NumericError):
    """Transfer-function evaluation requested too close to a pole."""


class ExtractionDomainError(NumericError):
    """Measurements outside an extraction formula's domain: periods out of
    the order it requires, or values so large or small that it over- or
    underflows."""


def _finite_positive(*, zero_ok: bool = False, **values: float) -> None:
    """Raise ValueError naming the first of values, in order, that is not
    finite and > 0 (>= 0 if zero_ok)."""
    for name, value in values.items():
        if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
            raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, "
                             f"got {value!r}")
