import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biphoton_sim import (
    BeamField,
    DetectionConfig,
    beam_profile,
    density_prefactor,
)
from biphoton_sim.params import _RANGES, RangeError

from conftest import MHZ, make_coupling, make_medium


class TestAtPower:
    def test_identity(self):
        beam = make_coupling(rabi_mhz=14.5, power=2.3e-3)
        assert beam.at_power(2.3e-3) == beam

    def test_quadruple_power_doubles(self):
        beam = make_coupling(rabi_mhz=5.0 / MHZ, power=1.0)
        scaled = beam.at_power(4.0)
        assert scaled.peak_rabi == pytest.approx(10.0, rel=1e-12)
        assert (scaled.power, scaled.waist, scaled.detuning) == (4.0, beam.waist, beam.detuning)

    def test_degenerate_pump_anchor(self):
        # 150 mW vs 100 mW at equal waist is a sqrt(1.5) step, and the two
        # quoted operating points sit on that curve: 178.5 -> 218.6 (2pi MHz)
        beam = make_coupling(rabi_mhz=178.5, waist=1.6e-3, power=100e-3)
        scaled = beam.at_power(150e-3).peak_rabi
        assert scaled == pytest.approx(178.5 * MHZ * math.sqrt(1.5), rel=1e-12)
        assert scaled == pytest.approx(218.6 * MHZ, rel=2e-4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(RangeError, match="^power must be finite and > 0, got "):
            make_coupling().at_power(bad)

    @pytest.mark.parametrize("attr, beam", [("power", make_coupling(power=0.0)),
                                            ("peak_rabi", make_coupling(rabi_mhz=0.0))])
    def test_rejects_zero_reference_naming_the_field(self, attr, beam):
        with pytest.raises(RangeError, match=f"^{attr} must be > 0, got 0.0$") as info:
            beam.at_power(1.0)
        assert info.value.attr == attr


class TestDensityPrefactor:
    def test_s1_degenerate_value(self):
        medium = make_medium(od=150.0)
        expected = 150.0 * (3.0 * MHZ) / ((2.0 * math.pi / 795e-9) * 0.017)
        beta = density_prefactor(medium)
        assert beta == pytest.approx(expected, rel=1e-12)
        assert beta == pytest.approx(2.1044e4, rel=1e-4)

    def test_transparent_medium(self):
        assert density_prefactor(make_medium(od=0.0)) == 0.0

    def test_linear_in_od(self):
        b1 = density_prefactor(make_medium(od=75.0))
        b2 = density_prefactor(make_medium(od=150.0))
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_inverse_in_length(self):
        b1 = density_prefactor(make_medium(length=0.017))
        b2 = density_prefactor(make_medium(length=0.034))
        assert b1 == pytest.approx(2.0 * b2, rel=1e-12)


class TestBeamProfile:
    def _beam(self, waist=1.6e-3):
        return BeamField(waist=waist, detuning=0.0)

    def test_center(self):
        assert beam_profile(self._beam(), 0.0, math.radians(3.0)) == 1.0

    def test_waist_offset_is_inverse_e(self):
        beam = self._beam(waist=1.6e-3)
        theta = math.radians(3.0)
        z = beam.waist / math.sin(theta)
        assert beam_profile(beam, z, theta) == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_collinear_beam_is_flat(self):
        z = np.linspace(-0.5, 0.5, 11)
        assert np.all(beam_profile(self._beam(), z, 0.0) == 1.0)

    @given(st.floats(-0.02, 0.02))
    def test_even_in_z(self, z):
        beam = self._beam()
        theta = math.radians(3.0)
        assert beam_profile(beam, z, theta) == beam_profile(beam, -z, theta)

    def test_monotone_nonincreasing_in_abs_z(self):
        z = np.linspace(0.0, 0.05, 200)
        vals = beam_profile(self._beam(), z, math.radians(3.0))
        assert np.all(np.diff(vals) <= 0.0)


class TestInvariants:
    def test_medium_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_medium(od=-1.0)
        with pytest.raises(ValueError):
            make_medium(length=0.0)
        with pytest.raises(ValueError):
            make_medium(g13_mhz=0.0)
        with pytest.raises(ValueError):
            make_medium(theta_deg=95.0)

    def test_range_error_names_the_attribute_in_si_units(self):
        with pytest.raises(ValueError, match=r"^length must be > 0, got -0\.005$") as info:
            make_medium(length=-0.005)
        assert (info.value.attr, info.value.rule) == ("length", "must be > 0")

    def test_nan_is_outside_every_range(self):
        with pytest.raises(ValueError, match="^od must be >= 0, got nan$"):
            make_medium(od=math.nan)

    def test_detection_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DetectionConfig(duty_cycle=0.0, joint_efficiency=0.049,
                            bin_width=2e-9, collection_time=600.0)
        with pytest.raises(ValueError):
            DetectionConfig(duty_cycle=0.04, joint_efficiency=0.049,
                            bin_width=2e-9, collection_time=600.0,
                            accidental_floor=-1.0)


def test_every_range_rule_rejects_nan():
    # each rule is a comparison that nan fails; one written as `not v < 0`
    # would let nan through every guard that states it
    assert not [rule for rule, test in _RANGES.items() if test(math.nan)]
    assert not [rule for rule, test in _RANGES.items()
                if rule.startswith("finite") and (test(math.inf) or test(-math.inf))]


def test_power_of_two_rules_hold_integers_only():
    # a float grid size died in the rules' `v & (v - 1)` with a TypeError
    rules = [rule for rule in _RANGES if rule.startswith("a power of two")]
    assert len(rules) == 2
    assert not [rule for rule in rules if _RANGES[rule](1024.0)]
    assert all(_RANGES[rule](np.int64(1024)) for rule in rules)
