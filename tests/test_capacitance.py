"""Tests for the capacitance decomposition and crosstalk-mode algebra."""

import math

import numpy as np
import pytest

from ringrc import CapacitanceSet, CrosstalkMode, effective_capacitance

FF = 1e-15


class TestCapacitanceSet:
    def test_component_sums(self):
        """Top/bottom/ground/total aggregate the elementary components."""
        cs = CapacitanceSet(
            c_ta=2.0 * FF, c_ba=3.0 * FF, c_ft=0.8 * FF, c_fb=0.5 * FF, c_c=7.91 * FF
        )
        assert cs.c_top == pytest.approx(3.6 * FF, rel=1e-12, abs=0.0)
        assert cs.c_bottom == pytest.approx(4.0 * FF, rel=1e-12, abs=0.0)
        assert cs.c_ground == pytest.approx(7.6 * FF, rel=1e-12, abs=0.0)
        assert cs.c_total == pytest.approx(23.42 * FF, rel=1e-12, abs=0.0)

    def test_ground_is_top_plus_bottom(self):
        cs = CapacitanceSet(c_ta=1.0, c_ba=2.0, c_ft=0.25, c_fb=0.75, c_c=0.0)
        assert cs.c_ground == cs.c_top + cs.c_bottom

    def test_zero_components_allowed(self):
        cs = CapacitanceSet(c_ta=0.0, c_ba=0.0, c_ft=0.0, c_fb=0.0, c_c=0.0)
        assert cs.c_total == 0.0

    @pytest.mark.parametrize("field", ["c_ta", "c_ba", "c_ft", "c_fb", "c_c"])
    def test_negative_component_rejected(self, field):
        values = dict(c_ta=1.0, c_ba=1.0, c_ft=1.0, c_fb=1.0, c_c=1.0)
        values[field] = -1e-18
        with pytest.raises(ValueError, match=field):
            CapacitanceSet(**values)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["c_ta", "c_ba", "c_ft", "c_fb", "c_c"])
    def test_non_finite_component_rejected(self, field, value):
        values = dict(c_ta=1.0, c_ba=1.0, c_ft=1.0, c_fb=1.0, c_c=1.0)
        values[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CapacitanceSet(**values)

    def test_frozen(self):
        cs = CapacitanceSet(c_ta=1.0, c_ba=1.0, c_ft=1.0, c_fb=1.0, c_c=1.0)
        with pytest.raises(AttributeError):
            cs.c_ta = 2.0


class TestEffectiveCapacitance:
    """Per-mode switching load seen by the victim driver."""

    def test_quiet_adds_both_couplings(self):
        assert effective_capacitance(CrosstalkMode.QUIET, 5.0, 2.0) == 9.0

    def test_in_phase_cancels_coupling(self):
        assert effective_capacitance(CrosstalkMode.IN_PHASE, 5.0, 2.0) == 5.0

    def test_out_of_phase_doubles_coupling(self):
        assert effective_capacitance(CrosstalkMode.OUT_OF_PHASE, 5.0, 2.0) == 13.0

    def test_quiet_equals_total(self):
        """The static-aggressor load is exactly the total capacitance."""
        cs = CapacitanceSet(
            c_ta=1.2 * FF, c_ba=0.9 * FF, c_ft=0.3 * FF, c_fb=0.4 * FF, c_c=2.5 * FF
        )
        eff = effective_capacitance(CrosstalkMode.QUIET, cs.c_ground, cs.c_c)
        assert eff == cs.c_total

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            effective_capacitance(CrosstalkMode.QUIET, -1.0, 0.0)
        with pytest.raises(ValueError):
            effective_capacitance(CrosstalkMode.QUIET, 1.0, -1.0)

    @pytest.mark.parametrize("trial", range(20))
    def test_mode_ordering_random(self, trial):
        """in-phase <= quiet <= out-of-phase load for any components."""
        rng = np.random.default_rng(1000 + trial)
        c_ground = float(rng.uniform(0.1, 30.0)) * FF
        c_c = float(rng.uniform(0.0, 30.0)) * FF
        loads = {
            mode: effective_capacitance(mode, c_ground, c_c)
            for mode in CrosstalkMode
        }
        assert loads[CrosstalkMode.IN_PHASE] <= loads[CrosstalkMode.QUIET]
        assert loads[CrosstalkMode.QUIET] <= loads[CrosstalkMode.OUT_OF_PHASE]
        assert loads[CrosstalkMode.QUIET] - loads[CrosstalkMode.IN_PHASE] == (
            pytest.approx(2.0 * c_c, rel=1e-12, abs=0.0)
        )
        assert loads[CrosstalkMode.OUT_OF_PHASE] - loads[
            CrosstalkMode.QUIET
        ] == pytest.approx(2.0 * c_c, rel=1e-12, abs=0.0)
