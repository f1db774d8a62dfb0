import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biphoton_sim import (
    InterferometerConfig,
    SpectralGrid,
    beat_correlation,
    extract_beat_frequency,
    hom_residual_factor,
    psi_analytic_rect,
    visibility_ideal,
    visibility_with_noise,
)

from conftest import make_coupling, make_medium, make_pump


@pytest.fixture()
def psi0():
    """Exchange-symmetric rectangle waveform, 4.88 ns steps over +-10 us."""
    grid = SpectralGrid(2 ** 12, 20e-6)
    return psi_analytic_rect(grid, make_medium(g12_mhz=0.0), make_pump(det_mhz=0.0),
                             make_coupling())


class TestBeatCorrelation:
    def test_balanced_splitter_modulation(self, psi0):
        cfg = InterferometerConfig(reflectance=0.5, shift_delta=11e6)
        g34 = beat_correlation(psi0, cfg)
        expected = 0.5 * (1.0 - np.cos(2 * math.pi * 11e6 * psi0.tau)) * psi0.intensity
        assert np.allclose(g34, expected, rtol=1e-12, atol=0.0)

    def test_perfect_hom_supression(self, psi0):
        cfg = InterferometerConfig(reflectance=0.5, shift_delta=0.0)
        g34 = beat_correlation(psi0, cfg)
        peak = psi0.intensity.max()
        assert np.all(np.abs(g34) <= 1e-12 * peak)

    def test_imbalanced_residual(self, psi0):
        cfg = InterferometerConfig(reflectance=0.7, shift_delta=0.0)
        g34 = beat_correlation(psi0, cfg)
        support = psi0.intensity > 0
        ratio = g34[support] / psi0.intensity[support]
        assert np.allclose(ratio, 0.16, rtol=1e-12)
        assert hom_residual_factor(0.7) == pytest.approx(0.16, rel=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 30e6))
    def test_nonnegative(self, r, delta):
        grid = SpectralGrid(2 ** 11, 20e-6)  # Nyquist frequency 51.2 MHz
        wave = psi_analytic_rect(grid, make_medium(g12_mhz=0.0), make_pump(det_mhz=0.0),
                                 make_coupling())
        cfg = InterferometerConfig(reflectance=r, shift_delta=delta)
        assert np.all(beat_correlation(wave, cfg) >= 0.0)

    def test_envelope_recovered_at_beat_maxima(self, psi0):
        for r in (0.3, 0.5, 0.7):
            cfg = InterferometerConfig(reflectance=r, shift_delta=11e6)
            g34 = beat_correlation(psi0, cfg)
            support = psi0.intensity > 0
            ratio = g34[support] / psi0.intensity[support]
            # (R + (1-R))^2 = 1 at the maxima; grid sampling misses the exact
            # crest by at most half a step
            assert ratio.max() == pytest.approx(1.0, abs=0.02)
            assert ratio.max() <= 1.0 + 1e-12

    def test_warns_on_asymmetric_input(self, psi0):
        lopsided = np.where(psi0.tau > 0, 2.0, 1.0) * psi0.amplitude
        from biphoton_sim import Waveform

        wave = Waveform(psi0.grid, lopsided)
        cfg = InterferometerConfig(reflectance=0.5, shift_delta=11e6)
        with pytest.warns(UserWarning, match="exchange symmetry"):
            beat_correlation(wave, cfg)


class TestVisibility:
    def test_balanced_maximum(self):
        assert visibility_ideal(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_imbalanced_value(self):
        assert visibility_ideal(0.7) == pytest.approx(21.0 / 29.0, rel=1e-12)
        assert visibility_ideal(0.7) == pytest.approx(0.7241, abs=1e-4)

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_single_port_has_no_interference(self, r):
        assert visibility_ideal(r) == 0.0

    def test_noiseless_limit(self):
        assert visibility_with_noise(0.7, 0.0, 100.0, 10.0) == pytest.approx(
            visibility_ideal(0.7), rel=1e-12)

    def test_half_visibility_point(self):
        # at R = 1/2, 2 cc_n = cc_max - cc_min halves the visibility
        assert visibility_with_noise(0.5, 45.0, 100.0, 10.0) == pytest.approx(0.5)

    def test_quoted_visibility_exceeds_imbalance_bound(self):
        # inverting the noise correction for V = 0.78 at R = 0.7 demands a
        # negative noise level, so that visibility is unreachable here
        v0 = visibility_ideal(0.7)
        required = (1.0 / 0.78 - 1.0 / v0) / 2.0
        assert required == pytest.approx(-0.0494505494505, rel=1e-9)
        assert required < 0.0

    @given(st.floats(0.0, 200.0), st.floats(0.0, 200.0))
    def test_monotone_decreasing_in_noise(self, n1, n2):
        lo, hi = sorted((n1, n2))
        v_lo = visibility_with_noise(0.6, lo, 500.0, 20.0)
        v_hi = visibility_with_noise(0.6, hi, 500.0, 20.0)
        assert v_hi <= v_lo + 1e-15

    def test_rejects_degenerate_count_range(self):
        # a flat trace under noise has the limit 0; a reversed range, or a
        # flat one without noise, has no visibility
        assert visibility_with_noise(0.5, 1.0, 10.0, 10.0) == 0.0
        with pytest.raises(ValueError):
            visibility_with_noise(0.5, 1.0, 10.0, 20.0)
        with pytest.raises(ValueError):
            visibility_with_noise(0.5, 0.0, 10.0, 10.0)


class TestBeatFrequency:
    def test_period_anchor(self):
        assert 1.0 / 11e6 == pytest.approx(90.909e-9, rel=1e-4)

    def test_extraction_within_one_bin(self, psi0):
        cfg = InterferometerConfig(reflectance=0.7, shift_delta=11e6)
        g34 = beat_correlation(psi0, cfg)
        freq = extract_beat_frequency(psi0.tau, g34, psi0.intensity, 0.7)
        bin_hz = 1.0 / (len(psi0.tau) * (psi0.tau[1] - psi0.tau[0]))
        assert abs(freq - 11e6) <= bin_hz

    def test_unmodulated_trace_reports_zero(self, psi0):
        cfg = InterferometerConfig(reflectance=0.7, shift_delta=0.0)
        g34 = beat_correlation(psi0, cfg)
        assert extract_beat_frequency(psi0.tau, g34, psi0.intensity, 0.7) == 0.0
