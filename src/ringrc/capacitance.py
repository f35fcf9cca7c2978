"""Interconnect capacitance decomposition and crosstalk-mode algebra.

A victim wire running between a plate above and a plate below, with one
neighbour on each side, sees five elementary capacitances: the area terms
to the top and bottom plates (c_ta, c_ba), the fringe terms to those
plates (c_ft, c_fb), and the lateral coupling to each neighbour (c_c).

All values are in farads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import _finite_positive


class CrosstalkMode(Enum):
    """Aggressor activity relative to the victim wire."""

    QUIET = "quiet"
    IN_PHASE = "in_phase"
    OUT_OF_PHASE = "out_of_phase"


#: sigma, the aggressor step relative to the victim's, per mode: all a mode
#: changes in the three-line network. Listed from the fastest victim
#: response to the slowest.
AGGRESSOR_STEP = {
    CrosstalkMode.IN_PHASE: 1.0,
    CrosstalkMode.QUIET: 0.0,
    CrosstalkMode.OUT_OF_PHASE: -1.0,
}


@dataclass(frozen=True)
class CapacitanceSet:
    """Elementary capacitance components of one victim wire.

    c_ta / c_ba are the area capacitances to the top / bottom plane,
    c_ft / c_fb the fringe capacitances to those planes, and c_c the
    lateral coupling capacitance to one adjacent wire (the victim has
    one such neighbour on each side).
    """

    c_ta: float
    c_ba: float
    c_ft: float
    c_fb: float
    c_c: float

    def __post_init__(self):
        _finite_positive(**vars(self), zero_ok=True)

    @property
    def c_top(self) -> float:
        """Capacitance to the top plane: area term plus both fringe edges."""
        return self.c_ta + 2.0 * self.c_ft

    @property
    def c_bottom(self) -> float:
        """Capacitance to the bottom plane: area term plus both fringe edges."""
        return self.c_ba + 2.0 * self.c_fb

    @property
    def c_ground(self) -> float:
        """Total capacitance to static planes, c_top + c_bottom."""
        return self.c_top + self.c_bottom

    @property
    def c_total(self) -> float:
        """Worst-case total load, c_ground + 2 * c_c (both neighbours)."""
        return self.c_ground + 2.0 * self.c_c


def effective_capacitance(mode: CrosstalkMode, c_ground: float, c_c: float) -> float:
    """Switching-load capacitance seen by the victim driver in a given mode.

    Each coupling capacitor swings by (1 - sigma) times the victim's
    swing, so the load is c_ground + 2 (1 - sigma) c_c: neighbours held
    static add both coupling capacitances, neighbours switching with the
    victim remove them, and neighbours switching against it double them.

    Args:
        mode: aggressor activity pattern.
        c_ground: capacitance to static planes (farads).
        c_c: coupling capacitance to one neighbour (farads).

    Returns:
        Effective capacitance in farads.
    """
    _finite_positive(c_ground=c_ground, c_c=c_c, zero_ok=True)
    return c_ground + 2.0 * (1.0 - AGGRESSOR_STEP[mode]) * c_c
