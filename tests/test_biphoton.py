import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from biphoton_sim import (
    GenerationMode,
    GridError,
    SpectralGrid,
    coincidence_counts,
    eit_absorption_loss,
    gamma12_for_absorption,
    group_delay_estimate,
    kappa,
    psi_analytic_exp,
    psi_analytic_rect,
    psi_full,
    psi_reference,
    psi_uniform_spectrum,
    spectrum_to_waveform,
)
from biphoton_sim import biphoton
from biphoton_sim.dispersion import eit_denominator, pair_wavenumbers
from biphoton_sim.params import C_LIGHT, DetectionConfig, beam_profile

from conftest import MHZ, make_coupling, make_medium, make_pump

DEG = GenerationMode.DEGENERATE
NONDEG = GenerationMode.NONDEGENERATE


def small_grid(n=2 ** 9, span=20e-6):
    return SpectralGrid.from_numerics(n, span)


class TestChi3:
    """Third-order response chi3 = scale / ((Delta_p + i gamma_up) D(omega)).

    chi3 has no function of its own: its pole structure lives in the EIT
    denominator D and its value reaches the pipelines only through kappa,
    which at z = 0 and omega = 0 equals -i (omega0 / c) chi3(0).
    """

    def test_dressed_state_poles_for_zero_dephasing(self):
        medium = make_medium(g12_mhz=0.0, g13_mhz=1e-9)
        oc = make_coupling().peak_rabi
        at_pole = eit_denominator(oc / 2.0, oc ** 2, medium)
        off_pole = eit_denominator(oc / 4.0, oc ** 2, medium)
        assert abs(at_pole) < 1e-4 * abs(off_pole)

    def test_pump_detuning_halves_magnitude(self):
        medium = make_medium(g14_mhz=0.003)  # gamma14 << Delta_p
        pump = make_pump(det_mhz=200.0)
        pump2 = make_pump(det_mhz=400.0)
        coupling = make_coupling(rabi_mhz=12.2)
        v1 = kappa(0.0, 0.0, medium, pump, coupling, NONDEG)
        v2 = kappa(0.0, 0.0, medium, pump2, coupling, NONDEG)
        assert abs(v2) == pytest.approx(abs(v1) / 2.0, rel=1e-3)

    def test_high_precision_oracle_value(self):
        # chi3(0) frozen from a 50-digit mpmath evaluation at omega=0, z=0
        # with the degenerate operating point (Delta_p = 2pi 6.8 GHz,
        # Omega_c = 2pi 14.5 MHz, gamma12 pinned to alpha L = 0.017, upper
        # dephasing gamma13)
        medium = make_medium(od=150.0, g12_mhz=0.0039722893)
        pump, coupling = make_pump(det_mhz=6800.0), make_coupling(rabi_mhz=14.5)
        chi3 = complex(2.8191419361964214e-27, -1.2437390894984212e-30)
        expected = -1j * (medium.omega0 / C_LIGHT) * chi3
        val = kappa(0.0, 0.0, medium, pump, coupling, DEG)
        assert val.real == pytest.approx(expected.real, rel=1e-12)
        assert val.imag == pytest.approx(expected.imag, rel=1e-12)

    def test_scale_is_linear(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        v1 = kappa(MHZ, 0.0, medium, pump, coupling, DEG, scale=1.0)
        v2 = kappa(MHZ, 0.0, medium, pump, coupling, DEG, scale=3.5)
        assert v2 == pytest.approx(3.5 * v1, rel=1e-12)


class TestKappa:
    def test_detuning_symmetry_exact(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        omega = (np.arange(512) - 256) * (0.1 * MHZ)
        val = kappa(omega, 0.2 * medium.length, medium, pump, coupling, DEG)
        mirrored = val[1:][::-1]
        assert np.all(val[1:] == mirrored)

    def test_flat_beams_are_position_independent(self):
        medium = make_medium(theta_deg=0.0)
        pump, coupling = make_pump(), make_coupling()
        v0 = kappa(2.0 * MHZ, 0.0, medium, pump, coupling, DEG)
        v1 = kappa(2.0 * MHZ, 0.4 * medium.length, medium, pump, coupling, DEG)
        assert v0 == v1

    def test_dressed_state_suppression_ratio(self):
        # the symmetrized sum nearly cancels at the dressed-state resonance;
        # ratio frozen from a 50-digit evaluation of the closed form
        medium = make_medium(od=150.0, g12_mhz=0.0039722893, theta_deg=0.0)
        pump, coupling = make_pump(), make_coupling(rabi_mhz=14.5)
        center = kappa(0.0, 0.0, medium, pump, coupling, DEG)
        pole = kappa(coupling.peak_rabi / 2.0, 0.0, medium, pump, coupling, DEG)
        assert abs(pole) / abs(center) == pytest.approx(0.0013208959303597165,
                                                        rel=1e-9)


class TestSpectralTransform:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid.from_numerics(1000, 20e-6)  # not a power of two
        with pytest.raises(ValueError):
            SpectralGrid.from_numerics(1024, -1.0)
        omega = SpectralGrid.from_numerics(8, 1e-6).omega.copy()
        omega[5] *= 1.0 + 1e-12  # uniform to 1e-9, but no longer an exact mirror
        with pytest.raises(ValueError, match="mirror"):
            SpectralGrid(omega=omega, d_omega=omega[5] - omega[4])

    def test_tau_grid_relation(self):
        grid = small_grid(n=2 ** 10, span=20e-6)
        assert grid.d_tau == pytest.approx(2.0 * math.pi / (grid.n * grid.d_omega),
                                           rel=1e-15)
        assert grid.tau[grid.n // 2] == 0.0

    def test_transform_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        grid = small_grid(n=2 ** 8, span=4e-6)
        spec = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        wave = spectrum_to_waveform(grid, spec)
        direct = np.array([
            np.sum(spec * np.exp(-1j * grid.omega * t)) for t in grid.tau
        ]) * grid.d_omega / (2.0 * math.pi)
        assert np.allclose(wave.amplitude, direct, rtol=1e-9, atol=1e-12)

    def test_parseval(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = small_grid(n=2 ** 10)
        spec = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
        wave = spectrum_to_waveform(grid, spec)
        e_tau = np.sum(np.abs(wave.amplitude) ** 2) * grid.d_tau
        e_omega = np.sum(np.abs(spec) ** 2) * grid.d_omega / (2.0 * math.pi)
        assert abs(e_tau - e_omega) / e_omega < 1e-6


class TestPsiFull:
    def test_matches_slow_reference(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = small_grid(n=2 ** 9)
        fast = psi_full(grid, 128, medium, pump, coupling, DEG)
        slow = psi_reference(grid, 129, medium, pump, coupling, DEG)
        rel = (np.linalg.norm(fast.amplitude - slow.amplitude)
               / np.linalg.norm(slow.amplitude))
        assert rel < 0.01

    def test_matches_reference_nondegenerate(self):
        medium = make_medium(od=88.0, g12_mhz=0.2, theta_deg=3.0)
        pump = make_pump(rabi_mhz=3.6, det_mhz=200.0, waist=2.9e-3, wavelength=780e-9)
        coupling = make_coupling(rabi_mhz=12.2, waist=2.9e-3)
        grid = small_grid(n=2 ** 9)
        fast = psi_full(grid, 128, medium, pump, coupling, NONDEG)
        slow = psi_reference(grid, 129, medium, pump, coupling, NONDEG)
        rel = (np.linalg.norm(fast.amplitude - slow.amplitude)
               / np.linalg.norm(slow.amplitude))
        assert rel < 0.01

    def test_panel_doubling_converges(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid.from_numerics(2 ** 12, 40e-6)
        coarse = psi_full(grid, 256, medium, pump, coupling, DEG)
        fine = psi_full(grid, 512, medium, pump, coupling, DEG)
        rel = abs(np.linalg.norm(fine.amplitude) - np.linalg.norm(coarse.amplitude))
        assert rel / np.linalg.norm(fine.amplitude) < 0.005

    def test_exchange_symmetry_symmetric_configuration(self):
        # no pump-coupling offset: |psi(tau)| = |psi(-tau)| to grid accuracy
        medium = make_medium()
        pump = make_pump(det_mhz=0.0)
        coupling = make_coupling()
        grid = SpectralGrid.from_numerics(2 ** 12, 40e-6)
        wave = psi_full(grid, 128, medium, pump, coupling, DEG)
        mag = np.abs(wave.amplitude)
        asym = np.max(np.abs(mag[1:] - mag[1:][::-1])) / mag.max()
        assert asym < 1e-9

    def test_thread_count_does_not_change_bytes(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = small_grid(n=2 ** 9)
        serial = psi_full(grid, 128, medium, pump, coupling, DEG, threads=1)
        threaded = psi_full(grid, 128, medium, pump, coupling, DEG, threads=3)
        assert np.all(serial.amplitude == threaded.amplitude)

    def test_nyquist_violation_raises_with_suggestion(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid.from_numerics(2 ** 10, 1e-3)  # very coarse d_tau
        with pytest.raises(GridError) as err:
            psi_full(grid, 128, medium, pump, coupling, DEG)
        assert err.value.suggested_n_omega is not None
        assert err.value.suggested_n_omega > 2 ** 10

    def test_rejects_bad_z_panels(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = small_grid()
        with pytest.raises(ValueError):
            psi_full(grid, 32, medium, pump, coupling, DEG)
        with pytest.raises(ValueError):
            psi_full(grid, 129, medium, pump, coupling, DEG)

    def test_working_set_stays_small(self):
        # numpy reports its data buffers to tracemalloc; the spectrum, the
        # waveform and one chunk's working arrays fit well inside 8 MB
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid.from_numerics(2 ** 12, 40e-6)
        tracemalloc.start()
        try:
            psi_full(grid, 256, medium, pump, coupling, DEG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_nondegenerate_width_shrinks_with_loss(self):
        from biphoton_sim import extract_coherence_time

        widths = []
        grid = SpectralGrid.from_numerics(2 ** 13, 40e-6)
        for g12_mhz in (0.004, 0.08, 0.20):
            medium = make_medium(od=88.0, g12_mhz=g12_mhz)
            pump = make_pump(rabi_mhz=3.6, det_mhz=200.0, waist=2.9e-3,
                             wavelength=780e-9)
            coupling = make_coupling(rabi_mhz=12.2, waist=2.9e-3)
            wave = psi_full(grid, 128, medium, pump, coupling, NONDEG, threads=2)
            rep = extract_coherence_time(wave.intensity, wave.tau)
            widths.append(rep.e_inverse_width)
        assert widths[0] > widths[1] > widths[2]


def direct_spectrum(grid, m, medium, pump, coupling, mode):
    """S(omega) evaluated row by row over the full z grid, with no symmetry used.

    The same formulas as psi_full, all rows in one block, with each phase
    argument built from cumulative trapezoid sums and exponentiated on every
    node: psi_full's mirrored, paired, chunked running product must stay
    within rounding of it.
    """
    h = medium.length / m
    z = (np.arange(m + 1) - m / 2.0) * h
    simpson = np.ones(m + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0
    gp = beam_profile(pump, z, medium.theta)
    gc = beam_profile(coupling, z, medium.theta)
    oc_sq = (coupling.peak_rabi * gc) ** 2
    om = grid.omega[:, None]
    recip = 1.0 / eit_denominator(om, oc_sq[None, :], medium)
    q1, q2 = pair_wavenumbers(om, recip, medium, mode)
    kap = biphoton._coupling(recip, (gp * gc)[None, :], medium, pump, mode, 1.0)
    cum1, cum2 = (np.concatenate([np.zeros((grid.n, 1), complex),
                                  np.cumsum(0.5 * (q[:, 1:] + q[:, :-1]) * h, axis=1)],
                                 axis=1)
                  for q in (q1, q2))
    delta0 = biphoton._residual_wavevector(medium, pump, coupling, mode)
    phase = np.exp(1j * ((cum1[:, -1:] - cum1) + cum2 + z[None, :] * delta0))
    return (kap * phase) @ simpson


def mp_spectrum(grid, rows, m, medium, pump, coupling, mode):
    """S(omega) on the given grid rows at 40 significant digits.

    The discretization of psi_full - its float z nodes, cumulative-trapezoid
    phases and Simpson weights - evaluated from the configuration's floats,
    taken as exact, with every physics formula re-derived here in mpmath.
    The nodes are exact mirrors about z = 0, so the z-even factors (D, the
    wavenumbers, kappa) are formed on the z >= 0 nodes and reflected.
    """
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        c = mpf(C_LIGHT)
        h = mpf(medium.length / m)
        z = [mpf(v) for v in (np.arange(m + 1) - m / 2.0) * (medium.length / m)]
        weights = [h / 3 * (1 if j in (0, m) else 4 if j % 2 else 2) for j in range(m + 1)]
        lambda0 = mpf(medium.lambda0)
        w0 = 2 * mpmath.pi * c / lambda0
        beta = mpf(medium.od) * mpf(medium.gamma13) / (2 * mpmath.pi / lambda0
                                                        * mpf(medium.length))
        g12, g13 = mpf(medium.gamma12), mpf(medium.gamma13)
        g_up = g13 if mode is DEG else mpf(medium.gamma14)
        prefactor = -1j * w0 / (2 * c) / (mpf(pump.detuning) + 1j * g_up)
        delta0 = 0
        if mode is DEG:
            delta0 = ((mpf(pump.detuning) - mpf(coupling.detuning)) / c
                      * mpmath.cos(mpf(medium.theta)))
        sin_t = mpmath.sin(mpf(medium.theta))
        half = z[m // 2:]
        gp = [mpmath.exp(-(v * sin_t / mpf(pump.waist)) ** 2) for v in half]
        gc = [mpmath.exp(-(v * sin_t / mpf(coupling.waist)) ** 2) for v in half]

        def den(om, g):
            return (mpf(coupling.peak_rabi) * g) ** 2 - 4 * (om + 1j * g13) * (om + 1j * g12)

        def wavenumber(om, d):
            return (w0 + om) / c * mpmath.sqrt(1 + 4 * beta * (om + 1j * g12) / d) - w0 / c

        def reflect(values):
            return values[:0:-1] + values

        out = []
        for i in rows:
            om = mpf(grid.omega[i])
            d_plus = [den(om, g) for g in gc]
            d_minus = [den(-om, g) for g in gc]
            q1 = reflect([wavenumber(om, d) for d in d_plus])
            if mode is DEG:
                q2 = reflect([wavenumber(-om, d) for d in d_minus])
            else:
                q2 = [-om / c] * (m + 1)
            kap = reflect([prefactor * p * g * (1 / dp + 1 / dm)
                           for p, g, dp, dm in zip(gp, gc, d_plus, d_minus)])
            cum1, cum2 = [0], [0]
            for j in range(1, m + 1):
                cum1.append(cum1[-1] + (q1[j] + q1[j - 1]) * h / 2)
                cum2.append(cum2[-1] + (q2[j] + q2[j - 1]) * h / 2)
            out.append(complex(mpmath.fsum(
                weights[j] * kap[j] * mpmath.exp(1j * (cum1[m] - cum1[j] + cum2[j]
                                                       + z[j] * delta0))
                for j in range(m + 1))))
    return np.array(out)


def psi_full_spectrum(monkeypatch, *args, **kwargs):
    """S(omega) as psi_full hands it to the FFT."""
    captured = []

    def capture(grid, spectrum):
        captured.append(spectrum.copy())
        return spectrum_to_waveform(grid, spectrum)

    monkeypatch.setattr(biphoton, "spectrum_to_waveform", capture)
    psi_full(*args, **kwargs)
    return captured[0]


def assert_kernel_contract(spectrum, direct, reference):
    """psi_full's contract: every row within 1e-12 of max|S| of the direct
    evaluation, and the bits of the reference evaluation."""
    err = np.max(np.abs(spectrum - direct))
    assert err <= 1e-12 * np.max(np.abs(direct))
    assert np.array_equal(spectrum.view(np.uint64), reference.view(np.uint64))


class TestPsiFullMirrorEvaluation:
    """psi_full against ``direct_spectrum``, its row-by-row evaluation.

    psi_full forms each phase factor as a running product of per-panel
    factors that are mirrored about z = 0, and in the degenerate scheme takes
    each -omega row from the +omega row's kappa-phase block with a second
    weight vector (the exchange identity).  Both hold in exact arithmetic, not
    for the rounded cumulative sums of the direct evaluation, so every row is
    held to 1e-12 of max|S| of it, far below the z-quadrature error (about
    1e-7).  Every chunk size and thread count gives the threads-1
    default-chunk bits.  Against a 40-digit evaluation of the same
    discretization both evaluations are held to 1e-13 of max|S|: about
    4 M eps, the rounding a running sum or product over the M = 128 panels
    can gather once the wavenumbers themselves are accurate to a few eps.
    """

    M = 128

    @pytest.fixture(scope="class", params=[DEG, NONDEG], ids=["degenerate", "nondegenerate"])
    def case(self, request):
        # theta = 3 deg and finite waists make the drive envelopes z-dependent;
        # the degenerate pump offset gives a nonzero residual wavevector
        medium = make_medium(od=88.0, g12_mhz=0.2, theta_deg=3.0)
        pump = make_pump(waist=1.6e-3)
        coupling = make_coupling(waist=2.3e-3)
        mode = request.param
        assert mode is NONDEG or biphoton._residual_wavevector(medium, pump, coupling,
                                                               mode) != 0.0
        grid = small_grid(n=2 ** 9)
        direct = direct_spectrum(grid, self.M, medium, pump, coupling, mode)
        with pytest.MonkeyPatch.context() as mp:
            reference = psi_full_spectrum(mp, grid, self.M, medium, pump, coupling, mode)
        return grid, medium, pump, coupling, mode, direct, reference

    # 2, 4 and 64 row pairs per chunk divide the 257 representative rows
    # (rows 0 .. n/2) with one left over, 5 with two; 1 asks for one-row
    # blocks; 3 leaves the first chunk (rows 0, n/2, 1) one mirror row;
    # 10 ** 6 is one chunk
    @pytest.mark.parametrize("pairs", [1, 2, 3, 4, 5, 64, 10 ** 6])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_any_chunking_matches_direct_evaluation(self, case, monkeypatch, pairs, threads):
        grid, medium, pump, coupling, mode, direct, reference = case
        monkeypatch.setattr(biphoton, "_CHUNK_ELEMENTS", pairs * 2 * (self.M + 1))
        spectrum = psi_full_spectrum(monkeypatch, grid, self.M, medium, pump,
                                     coupling, mode, threads=threads)
        assert_kernel_contract(spectrum, direct, reference)

    def test_default_chunks_on_two_threads(self, case, monkeypatch):
        # with two workers a default chunk holds 1016 row pairs at M = 128, so
        # on a grid of 2 ** 11 rows (1025 representatives) the workers claim
        # a full chunk and a short one
        _, medium, pump, coupling, mode, _, _ = case
        grid = small_grid(n=2 ** 11)
        cells = biphoton._SHARED_CHUNK_FACTOR * biphoton._CHUNK_ELEMENTS
        assert cells // (2 * (self.M + 1)) < grid.n // 2 + 1
        direct = direct_spectrum(grid, self.M, medium, pump, coupling, mode)
        reference = psi_full_spectrum(monkeypatch, grid, self.M, medium, pump,
                                      coupling, mode, threads=1)
        spectrum = psi_full_spectrum(monkeypatch, grid, self.M, medium, pump,
                                     coupling, mode, threads=2)
        assert_kernel_contract(spectrum, direct, reference)

    def test_error_against_40_digit_evaluation(self, case):
        # The wavenumbers carry no cancellation (q is formed without
        # subtracting omega0/c from k1), so what is left is the rounding of
        # the phase sums or running product over M panels, bounded by about
        # 4 M eps of max|S|.  Rows: the ends, the centre and +-omega pairs
        # through the transparency window.
        grid, medium, pump, coupling, mode, direct, reference = case
        n = grid.n
        rows = np.r_[0, n // 2 + np.array([0, 3, -3, 15, -15, 63, -63, 255])]
        exact = mp_spectrum(grid, rows, self.M, medium, pump, coupling, mode)
        bound = 1e-13 * np.max(np.abs(direct))
        assert np.max(np.abs(reference[rows] - exact)) <= bound
        assert np.max(np.abs(direct[rows] - exact)) <= bound


class TestUniformSpectrum:
    def test_flat_beam_route_equivalence(self):
        medium = make_medium(theta_deg=0.0)
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid.from_numerics(2 ** 12, 40e-6)
        spec = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
        uni = spectrum_to_waveform(grid, spec)
        full = psi_full(grid, 256, medium, pump, coupling, DEG)
        rel = (np.linalg.norm(full.amplitude - uni.amplitude)
               / np.linalg.norm(uni.amplitude))
        assert rel < 1e-6

    def test_matched_center_magnitude_is_absorption_factor(self):
        # with no pump-coupling offset the mismatch vanishes at line center,
        # so |Phi(0)| = |S(0) / (kappa(0) L)| = exp(-alpha L)
        medium = make_medium(od=88.0, g12_mhz=0.2, theta_deg=0.0)
        pump = make_pump(det_mhz=0.0)
        coupling = make_coupling(rabi_mhz=12.2)
        grid = small_grid(n=2 ** 10)
        spec = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
        kap0 = kappa(0.0, 0.0, medium, pump, coupling, DEG)
        phi0 = spec[grid.n // 2] / (kap0 * medium.length)
        alpha_l = eit_absorption_loss(medium, 12.2 * MHZ)
        assert abs(phi0) == pytest.approx(math.exp(-alpha_l), rel=1e-6)

    def test_phase_matching_zeros_at_sinc_roots(self):
        # lossless symmetric case: mismatch = 2 omega / V_g, so |Phi| vanishes
        # near omega_n = n pi V_g / L
        medium = make_medium(g12_mhz=0.0, theta_deg=0.0)
        pump = make_pump(det_mhz=0.0)
        coupling = make_coupling()
        grid = SpectralGrid.from_numerics(2 ** 14, 160e-6)
        spec = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
        delay = group_delay_estimate(medium, coupling.peak_rabi)
        omega_root = math.pi / delay
        window = (grid.omega > 0.8 * omega_root) & (grid.omega < 1.2 * omega_root)
        dip = grid.omega[window][np.argmin(np.abs(spec[window]))]
        assert dip == pytest.approx(omega_root, rel=0.02)


class TestAnalyticLimits:
    def test_rect_support_and_amplitude(self):
        medium = make_medium(g12_mhz=0.0)
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10)
        wave = psi_analytic_rect(grid, medium, coupling, DEG, kappa0=2.0 + 0j)
        delay = group_delay_estimate(medium, coupling.peak_rabi)
        inside = np.abs(grid.tau) <= delay
        assert np.all(wave.amplitude[~inside] == 0.0)
        assert np.allclose(np.abs(wave.amplitude[inside]), 2.0 * medium.length)

    def test_loss_rescales_amplitude_not_width(self):
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10)
        lossless = make_medium(g12_mhz=0.0)
        lossy_g12 = gamma12_for_absorption(0.85, lossless, coupling.peak_rabi)
        lossy = make_medium(g12_mhz=lossy_g12 / MHZ)
        w0 = psi_analytic_rect(grid, lossless, coupling, DEG, kappa0=1.0)
        w1 = psi_analytic_rect(grid, lossy, coupling, DEG, kappa0=1.0)
        support0 = np.abs(w0.amplitude) > 0
        support1 = np.abs(w1.amplitude) > 0
        assert np.all(support0 == support1)
        ratio = np.max(np.abs(w1.amplitude)) / np.max(np.abs(w0.amplitude))
        assert ratio == pytest.approx(math.exp(-0.85), rel=1e-9)

    def test_rect_magnitude_even_without_offset(self):
        medium = make_medium()
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10)
        wave = psi_analytic_rect(grid, medium, coupling, DEG, kappa0=1.0)
        mag = np.abs(wave.amplitude)
        assert np.all(mag[1:] == mag[1:][::-1])

    def test_rect_rejects_nondegenerate(self):
        with pytest.raises(ValueError):
            psi_analytic_rect(small_grid(), make_medium(), make_coupling(),
                              NONDEG, kappa0=1.0)

    def test_exp_decay_constant(self):
        # alpha = 41.8 1/m and V_g = 3.0e4 m/s give an intensity constant
        # 1/(2 alpha V_g) of 399 ns
        medium = make_medium()
        grid = SpectralGrid.from_numerics(2 ** 12, 8e-6)
        alpha, vg = 41.8, 3.0e4
        wave = psi_analytic_exp(alpha, vg, medium, grid)
        intensity = wave.intensity
        sel = (wave.tau > 0) & (wave.tau < 0.9 * medium.length / vg) & (intensity > 0)
        slope = np.polyfit(wave.tau[sel], np.log(intensity[sel]), 1)[0]
        assert -1.0 / slope == pytest.approx(1.0 / (2 * alpha * vg), rel=1e-6)
        assert -1.0 / slope == pytest.approx(400e-9, rel=0.01)

    def test_exp_lossless_is_flat(self):
        medium = make_medium()
        grid = small_grid(n=2 ** 10, span=8e-6)
        wave = psi_analytic_exp(0.0, 3.0e4, medium, grid)
        support = (wave.tau >= 0) & (wave.tau <= medium.length / 3.0e4)
        assert np.all(wave.amplitude[support] == 1.0)
        assert np.all(wave.amplitude[~support] == 0.0)

    def test_exp_vanishes_outside_medium(self):
        medium = make_medium()
        grid = small_grid(n=2 ** 10, span=8e-6)
        wave = psi_analytic_exp(41.8, 3.0e4, medium, grid)
        beyond = wave.tau > medium.length / 3.0e4
        assert np.all(wave.amplitude[beyond] == 0.0)


class TestCoincidenceCounts:
    def _det(self, floor=0.0):
        return DetectionConfig(duty_cycle=0.04, joint_efficiency=0.049,
                               bin_width=10e-9, collection_time=1200.0,
                               accidental_floor=floor)

    def test_zero_amplitude_gives_floor(self):
        grid = small_grid(n=2 ** 8)
        wave = psi_analytic_exp(0.0, 3.0e4, make_medium(), grid)
        dead = psi_analytic_exp(0.0, 3.0e4, make_medium(), grid)
        object.__setattr__(dead, "amplitude", np.zeros_like(wave.amplitude))
        counts = coincidence_counts(dead, self._det(floor=2.5))
        assert np.all(counts == 2.5)

    def test_linear_in_collection_time(self):
        grid = small_grid(n=2 ** 8)
        wave = psi_analytic_exp(41.8, 3.0e4, make_medium(), grid)
        det1 = self._det()
        det2 = DetectionConfig(duty_cycle=0.04, joint_efficiency=0.049,
                               bin_width=10e-9, collection_time=2400.0)
        assert np.allclose(coincidence_counts(wave, det2),
                           2.0 * coincidence_counts(wave, det1), rtol=1e-12)

    def test_quoted_efficiency_scale(self):
        # eta_d = 4% and eta_c = 4.9% give 1.96e-3 per |psi|^2 dt T unit
        grid = small_grid(n=2 ** 8)
        wave = psi_analytic_exp(0.0, 3.0e4, make_medium(), grid)
        det = DetectionConfig(duty_cycle=0.04, joint_efficiency=0.049,
                              bin_width=1.0, collection_time=1.0)
        counts = coincidence_counts(wave, det)
        peak = counts.max()
        assert peak == pytest.approx(1.96e-3, rel=1e-9)
