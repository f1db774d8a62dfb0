import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biphoton_sim import (
    InsufficientSignalError,
    SpectralGrid,
    cauchy_schwarz_factor,
    coherence_scan,
    extract_coherence_time,
    load_preset,
    measure_coherence,
    psi_full,
)

from conftest import make_coupling, make_medium


class TestExtractCoherenceTime:
    def test_rectangle_full_width(self):
        taus = np.linspace(0.0, 4e-6, 4001)
        trace = np.where(np.abs(taus - 1.5e-6) <= 0.5e-6, 10.0, 0.0)
        rep = extract_coherence_time(trace, taus)
        assert rep.e_inverse_width == pytest.approx(1.0e-6, rel=2e-3)

    def test_synthetic_exponential_recovery(self):
        taus = np.linspace(0.0, 4e-6, 4001)
        trace = np.exp(-taus / 340e-9)
        rep = extract_coherence_time(trace, taus)
        assert rep.exp_tau == pytest.approx(340e-9, rel=0.01)
        assert rep.fit_rmse < 1e-9

    def test_fit_recovery_with_floor(self):
        taus = np.linspace(0.0, 4e-6, 4001)
        trace = 50.0 * np.exp(-taus / 340e-9) + 3.0
        rep = extract_coherence_time(trace, taus, floor=3.0)
        assert rep.exp_tau == pytest.approx(340e-9, rel=0.01)

    def test_scale_invariance(self):
        taus = np.linspace(0.0, 4e-6, 2001)
        trace = np.exp(-((taus - 1.2e-6) / 400e-9) ** 2)
        r1 = extract_coherence_time(trace, taus)
        r2 = extract_coherence_time(1e7 * trace, taus)
        assert r2.e_inverse_width == pytest.approx(r1.e_inverse_width, rel=1e-9)

    def test_insufficient_signal(self):
        taus = np.linspace(0.0, 1e-6, 101)
        trace = np.full_like(taus, 4.0)
        with pytest.raises(InsufficientSignalError):
            extract_coherence_time(trace, taus, floor=1.0)

    def test_dead_trace_reports_zero_width(self):
        taus = np.linspace(0.0, 1e-6, 101)
        rep = extract_coherence_time(np.zeros_like(taus), taus)
        assert rep.e_inverse_width == 0.0
        assert rep.exp_tau is None

    def test_rising_tail_reports_width_only(self):
        taus = np.linspace(0.0, 4e-6, 2001)
        trace = 1.0 + np.cos(2 * math.pi * taus / 2.1e-6)
        rep = extract_coherence_time(trace, taus)
        assert rep.exp_tau is None


class TestCauchySchwarz:
    def test_quoted_violation(self):
        factor = cauchy_schwarz_factor(30.0, 2.0, 2.0)
        assert factor == pytest.approx(225.0, rel=1e-12)
        assert 219.0 - 171.0 <= factor <= 219.0 + 171.0

    def test_classical_boundary(self):
        assert cauchy_schwarz_factor(2.0, 2.0, 2.0) == pytest.approx(1.0)

    def test_no_violation(self):
        assert cauchy_schwarz_factor(1.0, 2.0, 2.0) == pytest.approx(0.25)

    @given(st.floats(1.0, 50.0), st.floats(1.0, 50.0))
    def test_monotone_in_peak(self, a, b):
        lo, hi = sorted((a, b))
        assert (cauchy_schwarz_factor(hi, 2.0, 2.0)
                >= cauchy_schwarz_factor(lo, 2.0, 2.0))


@pytest.mark.parametrize("preset", [
    "fig2d",
    # The counts sample |psi|^2 every d_tau times the bin width, so a finer
    # grid picks up more of the transient at tau = 0, which lifts the smoothed
    # peak that sets the 1/e threshold: 1267.99 -> 1231.80 ns.  Exact bin
    # integrals are to mend it.
    pytest.param("fig3f", marks=pytest.mark.xfail(
        strict=True, reason="the sampled counts pick up the tau = 0 transient")),
])
def test_width_converges_as_n_omega_goes_x4(preset):
    # at a fixed 80 us span, so the tau step shrinks 4x and the band widens 4x
    cfg = load_preset(preset)
    widths = []
    for n_omega in (16384, 65536):
        wave = psi_full(SpectralGrid(n_omega, 80e-6), 64, cfg.medium, cfg.pump, cfg.coupling,
                        cfg.mode, scale=cfg.kappa_scale)
        widths.append(measure_coherence(wave, cfg.detection)[1].e_inverse_width)
    assert widths[1] == pytest.approx(widths[0], rel=0.01)


class TestCoherenceScan:
    def test_formula_endpoints_reproduce_quoted_range(self):
        medium = make_medium(od=150.0, g12_mhz=0.0039722893)
        points = coherence_scan([2.50711615e-3, 0.45750295e-3], medium, make_coupling())
        assert points[0].t_coh_formula == pytest.approx(1.25e-6, rel=1e-6)
        assert points[-1].t_coh_formula == pytest.approx(6.85e-6, rel=1e-6)

    def test_line_is_linear_in_x(self):
        medium = make_medium(od=150.0)
        powers = [0.5e-3, 1.0e-3, 2.0e-3]
        points = coherence_scan(powers, medium, make_coupling())
        slope = 4.0 * medium.od / medium.gamma13
        for p in points:
            assert p.t_coh_formula == pytest.approx(slope * p.x, rel=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            coherence_scan([0.0], make_medium(), make_coupling())
