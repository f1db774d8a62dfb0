import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from biphoton_sim import (
    GenerationMode,
    PTRegime,
    chi_linear,
    density_prefactor,
    eit_absorption_loss,
    eit_transmission,
    gamma12_for_absorption,
    group_delay_estimate,
    group_delay_numeric,
    load_preset,
    pt_mode_analysis,
)
from biphoton_sim.dispersion import eit_bandwidth_proxy, eit_denominator, pair_wavenumbers
from biphoton_sim.params import beam_profile

from conftest import MHZ, make_medium

C_LIGHT = 299792458.0


class TestChiLinear:
    def test_perfect_transparency_on_resonance(self):
        medium = make_medium(g12_mhz=0.0)
        assert chi_linear(0.0, 14.5 * MHZ, medium) == 0.0

    def test_two_level_resonant_absorption(self):
        medium = make_medium(od=150.0, g12_mhz=0.1)
        beta = density_prefactor(medium)
        chi = chi_linear(0.0, 0.0, medium)
        assert chi == pytest.approx(1j * beta / medium.gamma13, rel=1e-12)

    def test_high_precision_oracle_value(self):
        # frozen from a 50-digit mpmath evaluation of the closed form at
        # OD=150, Omega_c=2pi 14.5 MHz, gamma12=2pi 4 kHz, gamma13=2pi 3 MHz,
        # omega=2pi 1 MHz, L=17 mm, lambda0=795 nm
        medium = make_medium(od=150.0, g12_mhz=0.004)
        chi = chi_linear(1.0 * MHZ, 14.5 * MHZ, medium)
        assert chi.real == pytest.approx(6.4705879863989187e-5, rel=1e-12)
        assert chi.imag == pytest.approx(4.0286103500290009e-6, rel=1e-12)

    @given(st.floats(-80.0, 80.0), st.floats(0.001, 0.5), st.floats(1.0, 40.0))
    def test_passive_medium(self, omega_mhz, g12_mhz, oc_mhz):
        medium = make_medium(g12_mhz=g12_mhz)
        chi = chi_linear(omega_mhz * MHZ, oc_mhz * MHZ, medium)
        assert chi.imag >= 0.0


def pair_q(omega, oc, medium, mode=GenerationMode.DEGENERATE):
    """Carrier-subtracted (q1, q2) at detuning(s) omega for coupling Rabi oc."""
    om = np.asarray(omega, dtype=float)
    return pair_wavenumbers(om, 1.0 / eit_denominator(om, oc ** 2, medium), medium, mode)


class TestWavenumber:
    def test_vacuum_limit(self):
        medium = make_medium(od=0.0)
        q1, _ = pair_q(2.0 * MHZ, 14.5 * MHZ, medium)
        k = q1 + medium.omega0 / C_LIGHT
        assert k == pytest.approx((medium.omega0 + 2.0 * MHZ) / C_LIGHT, rel=1e-14)
        assert q1.imag == 0.0

    def test_degenerate_mirror_identity_bitwise(self):
        medium = make_medium()
        grid = np.linspace(-40.0, 40.0, 257) * MHZ
        q1_mirror, _ = pair_q(-grid, 14.5 * MHZ, medium)
        _, q2 = pair_q(grid, 14.5 * MHZ, medium)
        assert np.all(q1_mirror == q2)

    def test_nondegenerate_partner_is_lossless(self):
        medium = make_medium(od=88.0, g12_mhz=0.2)
        omega = np.linspace(-20.0, 20.0, 41) * MHZ
        _, q2 = pair_q(omega, 12.2 * MHZ, medium, GenerationMode.NONDEGENERATE)
        assert np.all(q2.imag == 0.0)
        assert np.all(np.diff(q2.real) < 0.0)  # minus omega over c

    def test_resonant_field_loss_matches_absorption_exponent(self):
        # Im k1(0) * L equals the quoted absorption exponent alpha L
        medium = make_medium(od=88.0, g12_mhz=0.2)
        oc = 12.2 * MHZ
        q1, _ = pair_q(0.0, oc, medium)
        alpha_l = eit_absorption_loss(medium, oc)
        assert q1.imag * medium.length == pytest.approx(alpha_l, rel=0.02)

    @pytest.mark.parametrize("preset", ["fig3d", "fig2e"])
    def test_against_40_digit_evaluation(self, preset):
        # q = (omega0 + omega)/c sqrt(1 + chi) - omega0/c at 40 digits, from
        # the same float inputs taken as exact, at line centre, inside the
        # transparency window, on both Autler-Townes peaks and at the grid
        # edges (|chi| ~ 1e-7 there), with the coupling Rabi frequency of the
        # beam centre and of the beam edge at z = L/2
        cfg = load_preset(preset)
        medium, coupling = cfg.medium, cfg.coupling
        edge = beam_profile(coupling, medium.length / 2.0, medium.theta)
        w_max = cfg.numerics.grid().omega_max
        for oc in (coupling.peak_rabi, coupling.peak_rabi * edge):
            window = eit_bandwidth_proxy(medium, oc)
            detunings = np.array([0.0, 0.3 * window, oc / 2.0, w_max])
            q1, q2 = pair_q(detunings, oc, medium)
            with mpmath.workdps(40):
                mpf = mpmath.mpf
                c, g12, g13 = mpf(C_LIGHT), mpf(medium.gamma12), mpf(medium.gamma13)
                w0 = 2 * mpmath.pi * c / mpf(medium.lambda0)
                beta = (mpf(medium.od) * g13
                        / (2 * mpmath.pi / mpf(medium.lambda0) * mpf(medium.length)))
                for om, got in [*zip(detunings, q1), *zip(-detunings, q2)]:
                    om = mpf(om)
                    d = mpf(oc) ** 2 - 4 * (om + 1j * g13) * (om + 1j * g12)
                    chi = 4 * beta * (om + 1j * g12) / d
                    exact = (w0 + om) / c * mpmath.sqrt(1 + chi) - w0 / c
                    assert abs(got - exact) <= 1e-14 * abs(exact), (preset, float(om))

    @given(st.floats(-60.0, 60.0), st.floats(0.001, 0.5))
    def test_passivity_of_k1(self, omega_mhz, g12_mhz):
        medium = make_medium(g12_mhz=g12_mhz)
        q1, _ = pair_q(omega_mhz * MHZ, 14.5 * MHZ, medium)
        assert q1.imag >= 0.0


class TestEitTransmission:
    def test_good_eit_resonance(self):
        medium = make_medium(od=88.0, g12_mhz=0.0042)
        t0 = eit_transmission(0.0, 12.2 * MHZ, medium)
        assert t0 == pytest.approx(0.97, abs=0.02)

    def test_transparent_for_zero_od(self):
        medium = make_medium(od=0.0)
        omega = np.linspace(-30.0, 30.0, 61) * MHZ
        assert np.all(eit_transmission(omega, 12.2 * MHZ, medium) == 1.0)

    def test_bad_eit_resonance_reports_both_conventions(self):
        # The quoted exponent pair (alpha L = 0.71, transmission 24%) is
        # consistent with T = exp(-2 alpha L); exp(-alpha L) is the field
        # amplitude factor.  Both numbers are exposed, not reconciled.
        medium = make_medium(od=88.0, g12_mhz=0.20)
        oc = 12.2 * MHZ
        t0 = eit_transmission(0.0, oc, medium)
        alpha_l = eit_absorption_loss(medium, oc)
        assert t0 == pytest.approx(math.exp(-2.0 * alpha_l), rel=0.02)
        assert t0 == pytest.approx(0.248, abs=0.01)  # the quoted 24%
        assert math.exp(-alpha_l) == pytest.approx(0.497, abs=0.01)

    def test_consistency_with_absorption_exponent_good_eit(self):
        # over the quoted operating range the two diagnostics agree within 2%
        for od, g12_mhz, oc_mhz in [(88.0, 0.0042, 12.2), (150.0, 0.004, 14.5)]:
            medium = make_medium(od=od, g12_mhz=g12_mhz)
            t0 = eit_transmission(0.0, oc_mhz * MHZ, medium)
            alpha_l = eit_absorption_loss(medium, oc_mhz * MHZ)
            assert abs(t0 - math.exp(-alpha_l)) / t0 < 0.02


class TestGroupDelay:
    def test_degenerate_round_trip_delay(self):
        medium = make_medium(od=150.0)
        two_delay = 2.0 * group_delay_estimate(medium, 14.5 * MHZ)
        assert two_delay == pytest.approx(1.36e-6, rel=0.05)
        assert two_delay == pytest.approx(1350e-9, rel=0.05)

    def test_nondegenerate_delay_matches_coherence_time(self):
        medium = make_medium(od=88.0)
        delay = group_delay_estimate(medium, 12.2 * MHZ)
        assert delay == pytest.approx(555e-9, rel=0.05)

    def test_inverse_square_scaling(self):
        medium = make_medium()
        d1 = group_delay_estimate(medium, 10.0 * MHZ)
        d2 = group_delay_estimate(medium, 40.0 * MHZ)
        assert d1 == pytest.approx(16.0 * d2, rel=1e-12)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            group_delay_estimate(make_medium(), 0.0)

    def test_formula_matches_numeric_slope(self):
        medium = make_medium(od=150.0, g12_mhz=0.004)
        est = group_delay_estimate(medium, 14.5 * MHZ)
        num = group_delay_numeric(medium, 14.5 * MHZ)
        assert est == pytest.approx(num, rel=0.05)


class TestAbsorptionLoss:
    def test_bad_eit_value(self):
        medium = make_medium(od=88.0, g12_mhz=0.20)
        assert eit_absorption_loss(medium, 12.2 * MHZ) == pytest.approx(0.71, rel=0.03)

    def test_perfect_eit(self):
        assert eit_absorption_loss(make_medium(g12_mhz=0.0), 14.5 * MHZ) == 0.0

    def test_inversion_closed_form(self):
        medium = make_medium(od=150.0)
        g12 = gamma12_for_absorption(0.017, medium, 14.5 * MHZ)
        assert g12 == pytest.approx(0.0040 * MHZ, rel=0.01)
        tuned = make_medium(od=150.0, g12_mhz=g12 / MHZ)
        assert eit_absorption_loss(tuned, 14.5 * MHZ) == pytest.approx(0.017, rel=1e-9)

    def test_inversion_against_root_finder(self):
        medium = make_medium(od=150.0)
        oc = 14.5 * MHZ

        def residual(g12_mhz):
            m = make_medium(od=150.0, g12_mhz=g12_mhz)
            return eit_absorption_loss(m, oc) - 0.85

        root = brentq(residual, 1e-6, 10.0, xtol=1e-12)
        closed = gamma12_for_absorption(0.85, medium, oc) / MHZ
        assert closed == pytest.approx(root, rel=1e-6)


class TestPTModes:
    def test_lossless_coupling_is_unbroken(self):
        res = pt_mode_analysis(0.0, 1.0)
        assert res.regime is PTRegime.UNBROKEN
        assert res.eigenvalues[0] == pytest.approx(1.0)
        assert res.eigenvalues[1] == pytest.approx(-1.0)

    def test_decoupled_lossy_modes_are_broken(self):
        res = pt_mode_analysis(1.0, 0.0)
        assert res.regime is PTRegime.BROKEN
        assert res.eigenvalues[0] == pytest.approx(1j)
        assert res.eigenvalues[1] == pytest.approx(-1j)

    def test_exceptional_point(self):
        res = pt_mode_analysis(0.5, 0.5)
        assert res.regime is PTRegime.EXCEPTIONAL
        assert res.eigenvalues == (0.0, 0.0)

    @given(st.floats(0.0, 5.0), st.floats(-5.0, 5.0))
    def test_matches_dense_eigensolver(self, alpha, kappa):
        res = pt_mode_analysis(alpha, kappa)
        lam1, lam2 = res.eigenvalues
        assert lam1 == -lam2  # exact by construction
        matrix = np.array([[-1j * alpha, -kappa], [-kappa, 1j * alpha]])
        d1, d2 = np.linalg.eigvals(matrix)
        direct = abs(lam1 - d1) + abs(lam2 - d2)
        swapped = abs(lam1 - d2) + abs(lam2 - d1)
        assert min(direct, swapped) < 1e-9

    @given(st.floats(0.0, 5.0), st.floats(-5.0, 5.0))
    def test_regime_classification(self, alpha, kappa):
        res = pt_mode_analysis(alpha, kappa)
        if kappa ** 2 > alpha ** 2:
            assert res.regime is PTRegime.UNBROKEN
            assert res.eigenvalues[0].imag == 0.0
        elif kappa ** 2 < alpha ** 2:
            assert res.regime is PTRegime.BROKEN
            assert res.eigenvalues[0].real == 0.0
        else:
            assert res.regime is PTRegime.EXCEPTIONAL
