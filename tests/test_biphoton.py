import ast
import dataclasses
import inspect
import json
import math
import os
import re
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biphoton_sim import (
    CouplingField,
    GenerationMode,
    GridError,
    NumericsConfig,
    SpectralGrid,
    Waveform,
    coincidence_counts,
    dump_config,
    eit_absorption_loss,
    group_delay_estimate,
    kappa,
    load_preset,
    parse_config,
    psi_analytic_exp,
    psi_analytic_rect,
    psi_full,
    psi_uniform_spectrum,
    run_waveform,
    spectrum_to_waveform,
)
from biphoton_sim import biphoton, reference
from biphoton_sim.cli import main
from biphoton_sim.dispersion import eit_denominator, slow_wavenumbers
from biphoton_sim.params import C_LIGHT, DetectionConfig, beam_profile
from biphoton_sim.reference import psi_reference

from conftest import MHZ, make_coupling, make_medium, make_pump

DEG = GenerationMode.DEGENERATE
NONDEG = GenerationMode.NONDEGENERATE
# equal pump and coupling detunings: the rectangle has no residual linear phase
FLAT_PUMP = make_pump(det_mhz=0.0)


def small_grid(n=2 ** 9, span=20e-6):
    return SpectralGrid(n, span)


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


class TestPartnerWavenumber:
    """Photon 2: the slow photon at -omega, or a vacuum photon at -omega/c."""

    @staticmethod
    def slow_q(omega, medium):
        return slow_wavenumbers(omega, 1.0 / eit_denominator(omega, (12.2 * MHZ) ** 2, medium),
                                medium)

    def test_degenerate_partner_is_the_mirror_slow_photon(self):
        medium = make_medium(od=88.0, g12_mhz=0.2)
        omega = np.linspace(-20.0, 20.0, 41) * MHZ
        _, q_mirror = self.slow_q(omega, medium)
        assert biphoton._partner_wavenumber(q_mirror, omega, DEG) is q_mirror

    def test_nondegenerate_partner_is_lossless(self):
        medium = make_medium(od=88.0, g12_mhz=0.2)
        omega = np.linspace(-20.0, 20.0, 41) * MHZ
        _, q_mirror = self.slow_q(omega, medium)
        q2 = biphoton._partner_wavenumber(q_mirror, omega, NONDEG)
        assert np.all(q2.imag == 0.0)
        assert np.all(np.diff(q2.real) < 0.0)  # minus omega over c


class TestSpectralTransform:
    @pytest.mark.parametrize("n, span", [
        (1000, 20e-6), (1, 20e-6),  # not a power of two >= 2
        (1024, 0.0), (1024, -1.0), (1024, math.inf), (1024, math.nan),
    ])
    def test_grid_validation(self, n, span):
        with pytest.raises(ValueError):
            SpectralGrid(n, span)

    def test_grid_is_its_two_numbers(self):
        grid = SpectralGrid(1024, 20e-6)
        assert grid == SpectralGrid(1024, 20e-6)
        assert hash(grid) == hash(SpectralGrid(1024, 20e-6))
        assert grid != SpectralGrid(2048, 20e-6)
        assert grid != SpectralGrid(1024, 40e-6)

    @pytest.mark.parametrize("n", [2, 8, 2 ** 10, 2 ** 20])
    def test_axes_are_exact_mirrors(self, n):
        grid = SpectralGrid(n, 80e-6)
        idx = np.arange(n) - n // 2
        for axis, step in ((grid.omega, grid.d_omega), (grid.tau, grid.d_tau)):
            assert np.array_equal(axis, idx * step)
            assert axis[n // 2] == 0.0
            assert np.array_equal(axis[:0:-1], -axis[1:])

    def test_axes_are_read_only(self):
        grid = SpectralGrid(8, 1e-6)
        with pytest.raises(ValueError, match="read-only"):
            grid.omega[5] *= 1.0 + 1e-12
        with pytest.raises(ValueError, match="read-only"):
            grid.tau[0] = 0.0

    def test_waveform_length_must_match_its_grid(self):
        grid = SpectralGrid(8, 1e-6)
        with pytest.raises(ValueError, match="grid"):
            Waveform(grid, np.zeros(16, complex))
        with pytest.raises(ValueError, match="grid"):
            spectrum_to_waveform(grid, np.zeros(4, complex))
        wave = Waveform(grid, np.zeros(8, complex))
        assert wave.tau is grid.tau

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
        fast = spectrum_to_waveform(grid, psi_full(grid, 128, medium, pump, coupling, DEG))
        slow = psi_reference(grid, 129, medium, pump, coupling, DEG)
        rel = (np.linalg.norm(fast.amplitude - slow.amplitude)
               / np.linalg.norm(slow.amplitude))
        assert rel < 0.01

    def test_matches_reference_nondegenerate(self):
        medium = make_medium(od=88.0, g12_mhz=0.2, theta_deg=3.0)
        pump = make_pump(det_mhz=200.0, waist=2.9e-3)
        coupling = make_coupling(rabi_mhz=12.2, waist=2.9e-3)
        grid = small_grid(n=2 ** 9)
        fast = spectrum_to_waveform(grid, psi_full(grid, 128, medium, pump, coupling, NONDEG))
        slow = psi_reference(grid, 129, medium, pump, coupling, NONDEG)
        rel = (np.linalg.norm(fast.amplitude - slow.amplitude)
               / np.linalg.norm(slow.amplitude))
        assert rel < 0.01

    def test_panel_doubling_converges(self):
        # the difference of the spectra, not of their norms, which a phase
        # error leaves unchanged
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid(2 ** 12, 40e-6)
        coarse = psi_full(grid, 256, medium, pump, coupling, DEG)
        fine = psi_full(grid, 512, medium, pump, coupling, DEG)
        assert np.linalg.norm(fine - coarse) / np.linalg.norm(fine) < 0.005

    def test_exchange_symmetry_symmetric_configuration(self):
        # no pump-coupling offset: |psi(tau)| = |psi(-tau)| to grid accuracy
        medium = make_medium()
        pump = make_pump(det_mhz=0.0)
        coupling = make_coupling()
        grid = SpectralGrid(2 ** 12, 40e-6)
        wave = spectrum_to_waveform(grid, psi_full(grid, 128, medium, pump, coupling, DEG))
        mag = np.abs(wave.amplitude)
        asym = np.max(np.abs(mag[1:] - mag[1:][::-1])) / mag.max()
        assert asym < 1e-9

    def test_thread_count_does_not_change_bytes(self, monkeypatch):
        monkeypatch.setattr(biphoton, "_usable_cpus", lambda: 3)  # three workers on any host
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = small_grid(n=2 ** 9)
        serial = psi_full(grid, 128, medium, pump, coupling, DEG, threads=1)
        threaded = psi_full(grid, 128, medium, pump, coupling, DEG, threads=3)
        assert serial.tobytes() == threaded.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_more_workers_than_usable_cpus(self, monkeypatch, cpus):
        # 16 or more chunks, so only the CPU set caps the 8 workers asked for
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(biphoton, "_CHUNK_ELEMENTS", 16 * 2 * 129)
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        psi_full(small_grid(), 128, make_medium(), make_pump(), make_coupling(), DEG, threads=8)
        assert len(started) == cpus - 1

    def test_every_chunk_claimed_once_under_contention(self, monkeypatch):
        # eight workers on 128 two-row chunks, switching threads every
        # microsecond: a chunk claimed twice adds a call, one left out leaves
        # its rows unwritten
        medium, pump, coupling = make_medium(), make_pump(), make_coupling()
        grid = small_grid()
        serial = psi_full(grid, 128, medium, pump, coupling, DEG, threads=1)
        monkeypatch.setattr(biphoton, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(biphoton, "_CHUNK_ELEMENTS", 2 * 129)
        firsts = []

        def denominator(omega, *args, **kwargs):
            firsts.append(omega[0, 0])
            return eit_denominator(omega, *args, **kwargs)

        monkeypatch.setattr(biphoton, "eit_denominator", denominator)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = psi_full(grid, 128, medium, pump, coupling, DEG, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(firsts) == list(grid.omega[0:256:2])
        assert serial.tobytes() == threaded.tobytes()

    @pytest.mark.parametrize("failing", ["started-thread", "caller"])
    def test_worker_failure_is_reraised_after_every_worker_stops(self, monkeypatch, failing):
        # Two workers over 8 chunks of 32 rows, one eit_denominator call a
        # chunk.  Both workers' first calls meet, so each holds a chunk; then
        # the failing worker's call raises, and the other worker ends its
        # chunk after the failure is recorded (the caller joins the started
        # thread; the started thread waits for the GIL the failing caller
        # holds), so it may claim no other.
        monkeypatch.setattr(biphoton, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(biphoton, "_CHUNK_ELEMENTS", 16 * 2 * 129)
        caller = threading.current_thread()
        meet = threading.Barrier(2, timeout=60)
        calls, raised = [], []

        def denominator(*args, **kwargs):
            me = threading.current_thread()
            calls.append(me)
            if calls.count(me) == 1:
                meet.wait()
                if (me is caller) == (failing == "caller"):
                    raised.append(ZeroDivisionError(f"{failing} fails"))
                    raise raised[0]
                if me is caller:
                    next(thread for thread in calls if thread is not caller).join(timeout=60)
            return eit_denominator(*args, **kwargs)

        monkeypatch.setattr(biphoton, "eit_denominator", denominator)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=f"^{failing} fails$") as err:
            psi_full(small_grid(), 128, make_medium(), make_pump(), make_coupling(), DEG,
                     threads=2)
        assert err.value is raised[0]
        assert threading.active_count() == before
        assert len(calls) == 2 and len(set(calls)) == 2

    def test_nyquist_violation_raises_with_suggestion(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid(2 ** 10, 1e-3)  # very coarse d_tau
        with pytest.raises(GridError) as err:
            psi_full(grid, 128, medium, pump, coupling, DEG)
        window = re.search(r"set numerics\.tau_span_ns to (\S+) \(n_omega 1024 kept\)$",
                           str(err.value))
        psi_full(SpectralGrid(2 ** 10, float(window.group(1)) * 1e-9), 128, medium, pump,
                 coupling, DEG)

    def test_rejects_bad_z_panels(self):
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = small_grid()
        with pytest.raises(ValueError):
            psi_full(grid, 32, medium, pump, coupling, DEG)
        with pytest.raises(ValueError):
            psi_full(grid, 129, medium, pump, coupling, DEG)
        # past the parser's 2^16 panels: refused before anything is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^z_panels must be an even count in "):
                psi_full(grid, 2 ** 16 + 2, medium, pump, coupling, DEG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_rejects_negative_threads(self):
        # a negative count used to run the auto-sized pool, while the CLI exits 2
        with pytest.raises(ValueError, match="threads must be an integer >= 0"):
            psi_full(small_grid(), 64, make_medium(), make_pump(), make_coupling(), DEG,
                     threads=-3)

    @pytest.mark.parametrize("mode", [DEG, NONDEG], ids=["degenerate", "nondegenerate"])
    @pytest.mark.parametrize("threads, cells", [(1, 2 ** 18), (2, 2 ** 18), (2, None)],
                             ids=["1", "2", "2-default-chunks"])
    def test_working_set_stays_small(self, monkeypatch, mode, threads, cells):
        # numpy reports its data buffers to tracemalloc.  Each worker holds
        # 80 B per (row, z >= 0 node) in both schemes, and the peak adds the
        # spectrum and less than 1 MB per worker of numpy's iterator buffers
        # and small arrays.  A full-z working array would add 32 B per cell,
        # 2.1 MB per worker with chunks of 510 rows, four times the default,
        # at which the workspace outweighs the buffers.  At the default chunk
        # size two workers each hold a 2^17-cell chunk's workspace.
        monkeypatch.setattr(biphoton, "_usable_cpus", lambda: 2)
        if cells:
            monkeypatch.setattr(biphoton, "_CHUNK_ELEMENTS", cells)
            monkeypatch.setattr(biphoton, "_SHARED_CHUNK_FACTOR", 1)
        medium = make_medium()
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid(2 ** 12, 40e-6)
        m = 256
        rows = (cells or 2 ** 17) // (2 * (m + 1))
        assert 2 * rows < grid.n // 2 + 1  # each worker runs a full chunk
        bound = (80 * rows * (m // 2 + 1) + 1e6) * threads + 16 * (grid.n + 1)
        tracemalloc.start()
        try:
            psi_full(grid, m, medium, pump, coupling, mode, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_nondegenerate_width_shrinks_with_loss(self):
        from biphoton_sim import extract_coherence_time

        widths = []
        grid = SpectralGrid(2 ** 13, 40e-6)
        for g12_mhz in (0.004, 0.08, 0.20):
            medium = make_medium(od=88.0, g12_mhz=g12_mhz)
            pump = make_pump(det_mhz=200.0, waist=2.9e-3)
            coupling = make_coupling(rabi_mhz=12.2, waist=2.9e-3)
            wave = spectrum_to_waveform(
                grid, psi_full(grid, 128, medium, pump, coupling, NONDEG, threads=2))
            rep = extract_coherence_time(wave.intensity, wave.tau)
            widths.append(rep.e_inverse_width)
        assert widths[0] > widths[1] > widths[2]


# One distinct configuration per medium and scheme; spans from past the
# optical carrier (n_omega lambda0 / 2c is 0.0014 ns at 2^10 points and
# 1.4 ns at 2^20) to a second; couplings from a group delay of 1e293 s,
# through the 2^53 ns past which no window is suggested, past the scale of
# about 1.3e4 at which 8 EIT linewidths reach the optical carrier, and up to
# the carrier itself.
SWEEP_PRESETS = ("fig2c", "fig2e", "fig3c", "fig3e", "fig5")
SWEEP_N = [2 ** k for k in range(10, 21)]
SWEEP_SPANS_NS = (1e-3, 0.5, 2.0, 40.0, 300.0, 2e3, 2e4, 8e4, 1e6, 1e9)
SWEEP_COUPLING = (1e-150, 1e-20, 1e-5, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 30.0, 100.0,
                  1e3, 1e4, 1.2e4, 1.3e4, 3e4, 1e5, 1e7)
# the broken rule and its window, or the refusal
GRID_MESSAGE = re.compile(r"no admissible grid resolves this run: .+"
                          r"|.*(optical carrier|8 EIT linewidths|4 group delays).*; "
                          r"set numerics\.tau_span_ns to (\S+) \(n_omega (\d+) kept\)")


def grid_verdict(n, span_ns, medium, *couplings):
    """check_grid's message on ``n`` points over ``span_ns``, or None if the grid passes.

    ``span_ns`` is taken to seconds as the parser does, times 1e-9.
    """
    try:
        biphoton.check_grid(SpectralGrid(n, span_ns * 1e-9), medium, *couplings)
    except GridError as exc:
        return str(exc)
    return None


def test_every_grid_suggestion_is_workable():
    # a failing grid is told one window at its own n_omega, which passes once
    # parsed back; a run is refused only where no window passes: its 8 EIT
    # linewidths reach the optical carrier, or 8 group delays reach 2^53 ns
    seen = set()
    for name in SWEEP_PRESETS:
        cfg = load_preset(name)
        for scale in SWEEP_COUPLING:
            coupling = dataclasses.replace(cfg.coupling,
                                           peak_rabi=cfg.coupling.peak_rabi * scale)
            if coupling.peak_rabi >= cfg.medium.omega0:
                continue
            delay = group_delay_estimate(cfg.medium, coupling.peak_rabi)
            for n in SWEEP_N:
                for span_ns in SWEEP_SPANS_NS:
                    message = grid_verdict(n, span_ns, cfg.medium, coupling)
                    if message is None:
                        continue
                    case = (name, scale, n, span_ns, message)
                    match = GRID_MESSAGE.fullmatch(message)
                    assert match, case
                    rule, window, kept = match.groups()
                    seen.add(rule)
                    if rule is None:
                        assert 8.0 >= cfg.medium.omega0 * delay or 8e9 * delay >= 2 ** 53, case
                        continue
                    assert int(kept) == n, case
                    assert grid_verdict(n, float(window), cfg.medium, coupling) is None, case
    assert seen == {None, "optical carrier", "8 EIT linewidths", "4 group delays"}


# no window spans the weakest power's delays and the strongest's linewidths
SCAN_REFUSAL = re.compile(r"no admissible grid resolves this run: no tau window at n_omega "
                          r"\d+ spans 4 group delays of coupling power \S+ mW \(\S+ ns\) and "
                          r"holds 8 EIT linewidths of coupling power \S+ mW \(at most \S+ ns\)")


def test_every_scan_grid_suggestion_suits_every_power():
    # a scan's powers share one grid: a failing grid is told one window at its
    # own n_omega that passes at every power, and a scan is refused only where
    # some power has no window alone, or 4 group delays of the weakest power
    # exceed n pi tau_g / 8 of the strongest
    seen = set()
    for name in ("fig2c", "fig5"):
        cfg = load_preset(name)
        beams = [dataclasses.replace(cfg.coupling, peak_rabi=cfg.coupling.peak_rabi * scale)
                 for scale in SWEEP_COUPLING]
        beams = [beam for beam in beams if beam.peak_rabi < cfg.medium.omega0]
        for i, weak in enumerate(beams):
            for strong in beams[i + 1:]:
                pair = (strong, weak)
                delays = [group_delay_estimate(cfg.medium, b.peak_rabi) for b in pair]
                for n in (2 ** 10, 2 ** 14, 2 ** 18):
                    for span_ns in SWEEP_SPANS_NS:
                        message = grid_verdict(n, span_ns, cfg.medium, *pair)
                        case = (name, strong.peak_rabi, weak.peak_rabi, n, span_ns, message)
                        if message is None:
                            assert all(grid_verdict(n, span_ns, cfg.medium, b) is None
                                       for b in pair), case
                            continue
                        match = GRID_MESSAGE.fullmatch(message)
                        assert match, case
                        if SCAN_REFUSAL.fullmatch(message):
                            seen.add("refused together")
                            assert 32.0 * delays[1] > n * math.pi * delays[0] * (1 - 1e-6), case
                        elif match.group(1) is None:
                            seen.add("refused alone")
                            assert any(biphoton.derived_window(n, cfg.medium, b) is None
                                       for b in pair), case
                        else:
                            seen.add("window")
                            assert all(grid_verdict(n, float(match.group(2)), cfg.medium, b)
                                       is None for b in pair), case
    assert seen == {"window", "refused alone", "refused together"}


@pytest.mark.parametrize("engine, mode", [
    ("full", DEG), ("uniform", DEG), ("analytic", DEG), ("analytic", NONDEG),
], ids=["full", "uniform", "analytic-rect", "analytic-exp"])
def test_every_engine_refuses_a_window_below_4_group_delays(engine, mode):
    # OD 5000 gives a 45 us formula coherence time; on a 4 us window the
    # uniform and rectangle engines returned the whole window as the
    # width, and the exponential half of it
    cfg = load_preset("fig3d")
    cfg = dataclasses.replace(cfg, mode=mode, medium=dataclasses.replace(cfg.medium, od=5000.0),
                              numerics=NumericsConfig(16384, 64, 4000e-9))
    with pytest.raises(GridError) as err:
        run_waveform(cfg, engine)
    assert str(err.value) == ("tau window 4000 ns is below 4 group delays (90837.5 ns); "
                              "set numerics.tau_span_ns to 2e+05 (n_omega 16384 kept)")


def test_near_carrier_coupling_gets_a_sub_ns_window(tmp_path):
    # 8 EIT linewidths of a 1.9e5 MHz coupling lie just below the carrier; each
    # rule's whole-ns fix used to send the run to the next rule and end in "no
    # admissible grid", though 1024 points over a sub-ns window pass
    data = dump_config(load_preset("fig3d"))
    data["coupling"]["peak_rabi_mhz"] = 1.9e5
    data["numerics"] = {"n_omega": 1024, "z_panels": 64, "tau_span_ns": 0.002}
    cfg = parse_config(json.dumps(data))
    message = grid_verdict(2 ** 10, 0.002, cfg.medium, cfg.coupling)
    window = re.search(r"set numerics\.tau_span_ns to (\S+) \(n_omega 1024 kept\)$", message)
    assert grid_verdict(2 ** 10, float(window.group(1)), cfg.medium, cfg.coupling) is None
    data["numerics"]["tau_span_ns"] = float(window.group(1))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["waveform", "--engine", "uniform", "--config", str(path),
                 "--out", str(tmp_path / "x.csv")]) == 0


def test_coupling_whose_square_underflows_has_no_grid():
    # the group delay overflows to inf: no window is suggested
    cfg = load_preset("fig3d")
    coupling = dataclasses.replace(cfg.coupling, peak_rabi=1e-160)
    for span_ns in (1e-3, 8e4):
        message = grid_verdict(2 ** 14, span_ns, cfg.medium, coupling)
        assert message.startswith("no admissible grid resolves this run: "), message


# The oracle's domain, stated before any draw: both schemes, OD 1-500,
# gamma12 0-1 MHz, gamma13 and gamma14 1-10 MHz, theta 0-10 deg, waists
# 0.2-5 mm, pump detuning +-10 GHz, coupling detuning +-10 MHz, Omega_c
# 2-60 MHz, length 5-30 mm.
ORACLE_DRAW = st.fixed_dictionaries({
    "mode": st.sampled_from([DEG, NONDEG]),
    "od": st.floats(1.0, 500.0),
    "g12_mhz": st.floats(0.0, 1.0),
    "g13_mhz": st.floats(1.0, 10.0),
    "g14_mhz": st.floats(1.0, 10.0),
    "theta_deg": st.floats(0.0, 10.0),
    "pump_waist_mm": st.floats(0.2, 5.0),
    "coupling_waist_mm": st.floats(0.2, 5.0),
    "pump_det_mhz": st.floats(-1e4, 1e4),
    "coupling_det_mhz": st.floats(-10.0, 10.0),
    "rabi_mhz": st.floats(2.0, 60.0),
    "length_mm": st.floats(5.0, 30.0),
})


@settings(max_examples=12, derandomize=True, deadline=None)
@given(draw=ORACLE_DRAW)
def test_psi_full_matches_the_oracle_across_the_input_domain(draw):
    # psi_full (256 panels) against the trapezoid oracle at 257 z points,
    # within twice the oracle's own O(h^2) error, read from 513 points, on
    # 512 points over the derived window
    medium = make_medium(od=draw["od"], length=draw["length_mm"] * 1e-3,
                         g12_mhz=draw["g12_mhz"], g13_mhz=draw["g13_mhz"],
                         g14_mhz=draw["g14_mhz"], theta_deg=draw["theta_deg"])
    pump = make_pump(det_mhz=draw["pump_det_mhz"], waist=draw["pump_waist_mm"] * 1e-3)
    coupling = CouplingField(power=2.3e-3, waist=draw["coupling_waist_mm"] * 1e-3,
                             detuning=draw["coupling_det_mhz"] * MHZ,
                             peak_rabi=draw["rabi_mhz"] * MHZ)
    grid = SpectralGrid(2 ** 9, float(biphoton.derived_window(2 ** 9, medium, coupling)) * 1e-9)
    inputs = (medium, pump, coupling, draw["mode"])
    full = spectrum_to_waveform(grid, psi_full(grid, 256, *inputs)).amplitude
    ref, finer = (psi_reference(grid, z, *inputs).amplitude for z in (257, 513))
    assert (np.linalg.norm(full - ref)
            <= 2.0 * np.linalg.norm(ref - finer) + 1e-9 * np.linalg.norm(ref))


def test_the_oracle_imports_no_production_formula():
    # the oracle is independent only while it takes nothing from the package
    # but the grid and the parameter containers
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(reference))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["biphoton_sim" * bool(node.level), node.module]))
            names.update(f"{module}.{a.name}" for a in node.names)
    package = {(name + ".").split(".")[1] for name in names
               if name.split(".")[0] == "biphoton_sim"}
    assert package <= {"grids", "params"}, package


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
    q1, q_mirror = slow_wavenumbers(om, recip, medium)
    q2 = biphoton._partner_wavenumber(q_mirror, om, mode)
    constant = biphoton._coupling_constant(medium, pump, mode, 1.0)
    kap = 2.0 * constant * (gp * gc)[None, :] * recip.real
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
        reference = psi_full(grid, self.M, medium, pump, coupling, mode)
        return grid, medium, pump, coupling, mode, direct, reference

    # Chunks are runs of rows 0 .. n/2 (257 here), each row taken with its
    # mirror n - i: 2, 4 and 64 rows per chunk leave one row over, which
    # joins the chunk before; 3 and 5 leave two, a chunk of their own; 1
    # asks for one-row chunks, which are raised to two; 10 ** 6 is one
    # chunk, where row 0 (whose mirror, +Omega_max, is dropped) and row n/2
    # (its own mirror) meet
    @pytest.mark.parametrize("pairs", [1, 2, 3, 4, 5, 64, 10 ** 6])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_any_chunking_matches_direct_evaluation(self, case, monkeypatch, pairs, threads):
        grid, medium, pump, coupling, mode, direct, reference = case
        monkeypatch.setattr(biphoton, "_usable_cpus", lambda: 3)  # three workers on any host
        monkeypatch.setattr(biphoton, "_CHUNK_ELEMENTS", pairs * 2 * (self.M + 1))
        spectrum = psi_full(grid, self.M, medium, pump, coupling, mode, threads=threads)
        assert_kernel_contract(spectrum, direct, reference)

    def test_default_chunks_on_two_threads(self, case, monkeypatch):
        # with two workers a default chunk holds 508 row pairs at M = 128, so
        # on a grid of 2 ** 11 rows (rows 0 .. n/2 are 1025) the workers
        # claim two full chunks and a short one
        _, medium, pump, coupling, mode, _, _ = case
        monkeypatch.setattr(biphoton, "_usable_cpus", lambda: 2)  # two workers on any host
        grid = small_grid(n=2 ** 11)
        cells = biphoton._SHARED_CHUNK_FACTOR * biphoton._CHUNK_ELEMENTS
        assert cells // (2 * (self.M + 1)) < grid.n // 2 + 1
        direct = direct_spectrum(grid, self.M, medium, pump, coupling, mode)
        reference = psi_full(grid, self.M, medium, pump, coupling, mode, threads=1)
        spectrum = psi_full(grid, self.M, medium, pump, coupling, mode, threads=2)
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


@pytest.mark.parametrize("engine", [
    lambda grid, *inputs: psi_full(grid, 64, *inputs),
    psi_uniform_spectrum,
], ids=["full", "uniform"])
def test_spectral_engines_return_their_spectrum(engine):
    # S(omega) on grid.omega; the caller takes it to psi(tau)
    grid = small_grid()
    spectrum = engine(grid, make_medium(), make_pump(), make_coupling(), DEG)
    assert type(spectrum) is np.ndarray
    assert spectrum.dtype == complex and spectrum.shape == (grid.n,)


class TestUniformSpectrum:
    def test_flat_beam_route_equivalence(self):
        medium = make_medium(theta_deg=0.0)
        pump, coupling = make_pump(), make_coupling()
        grid = SpectralGrid(2 ** 12, 40e-6)
        uni = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
        full = psi_full(grid, 256, medium, pump, coupling, DEG)
        assert np.linalg.norm(full - uni) / np.linalg.norm(uni) < 1e-6

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
        grid = SpectralGrid(2 ** 14, 160e-6)
        spec = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
        delay = group_delay_estimate(medium, coupling.peak_rabi)
        omega_root = math.pi / delay
        window = (grid.omega > 0.8 * omega_root) & (grid.omega < 1.2 * omega_root)
        dip = grid.omega[window][np.argmin(np.abs(spec[window]))]
        assert dip == pytest.approx(omega_root, rel=0.02)

    def test_working_set_is_the_spectrum_and_a_few_blocks(self):
        # numpy reports its data buffers to tracemalloc.  The spectrum and the
        # detuning axis take 24 B per row; each block's temporaries are a dozen
        # complex arrays of _UNIFORM_BLOCK_ROWS rows.  Evaluated whole, the
        # same formula held about 70 such arrays' worth (2.8 MB on this grid).
        cfg = load_preset("fig3f")
        grid = SpectralGrid(2 ** 14, cfg.numerics.tau_span)
        bound = 24 * grid.n + 16 * (16 * biphoton._UNIFORM_BLOCK_ROWS)
        tracemalloc.start()
        try:
            psi_uniform_spectrum(grid, cfg.medium, cfg.pump, cfg.coupling, cfg.mode,
                                 scale=cfg.kappa_scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("rows", [1000, 2 ** 15], ids=["ragged", "one-block"])
    def test_blocks_do_not_change_bits(self, monkeypatch, rows):
        cfg = load_preset("fig3d")
        grid = cfg.numerics.grid()
        args = (grid, cfg.medium, cfg.pump, cfg.coupling, cfg.mode, cfg.kappa_scale)
        blocked = psi_uniform_spectrum(*args)
        monkeypatch.setattr(biphoton, "_UNIFORM_BLOCK_ROWS", rows)
        assert psi_uniform_spectrum(*args).tobytes() == blocked.tobytes()


class TestAnalyticLimits:
    def test_rect_support_and_amplitude(self):
        medium = make_medium(g12_mhz=0.0)
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10)
        wave = psi_analytic_rect(grid, medium, FLAT_PUMP, coupling, scale=2.0)
        delay = group_delay_estimate(medium, coupling.peak_rabi)
        inside = np.abs(grid.tau) <= delay
        kappa0 = kappa(0.0, 0.0, medium, FLAT_PUMP, coupling, DEG, scale=2.0)
        assert np.all(wave.amplitude[~inside] == 0.0)
        assert np.allclose(np.abs(wave.amplitude[inside]), abs(kappa0) * medium.length,
                           rtol=1e-14, atol=0.0)

    def test_loss_rescales_amplitude_not_width(self):
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10)
        lossless = make_medium(g12_mhz=0.0)
        lossy = make_medium(g12_mhz=0.2)  # alpha L = 0.846
        w0 = psi_analytic_rect(grid, lossless, FLAT_PUMP, coupling)
        w1 = psi_analytic_rect(grid, lossy, FLAT_PUMP, coupling)
        support0 = np.abs(w0.amplitude) > 0
        support1 = np.abs(w1.amplitude) > 0
        assert np.all(support0 == support1)
        ratio = np.max(np.abs(w1.amplitude)) / np.max(np.abs(w0.amplitude))
        loss = eit_absorption_loss(lossy, coupling.peak_rabi)
        assert loss == pytest.approx(0.85, abs=0.01)
        # the ground-state dephasing also enters kappa0 through D(0)
        kappa_ratio = abs(kappa(0.0, 0.0, lossy, FLAT_PUMP, coupling, DEG)
                          / kappa(0.0, 0.0, lossless, FLAT_PUMP, coupling, DEG))
        assert ratio == pytest.approx(math.exp(-loss) * kappa_ratio, rel=1e-9)

    def test_rect_magnitude_even_without_offset(self):
        medium = make_medium()
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10)
        wave = psi_analytic_rect(grid, medium, FLAT_PUMP, coupling)
        mag = np.abs(wave.amplitude)
        assert np.all(mag[1:] == mag[1:][::-1])

    def test_exp_decay_constant(self):
        # alpha L = 0.846 and tau_g = 681 ns give an intensity constant
        # 1/(2 alpha V_g) = tau_g / (2 alpha L) of 402 ns
        medium = make_medium(g12_mhz=0.2)
        coupling = make_coupling()
        grid = SpectralGrid(2 ** 12, 8e-6)
        wave = psi_analytic_exp(grid, medium, coupling)
        delay = group_delay_estimate(medium, coupling.peak_rabi)
        intensity = wave.intensity
        sel = (wave.tau > 0) & (wave.tau < 0.9 * delay) & (intensity > 0)
        slope = np.polyfit(wave.tau[sel], np.log(intensity[sel]), 1)[0]
        alpha_l = eit_absorption_loss(medium, coupling.peak_rabi)
        assert -1.0 / slope == pytest.approx(delay / (2.0 * alpha_l), rel=1e-6)
        assert -1.0 / slope == pytest.approx(402e-9, rel=0.01)

    def test_exp_lossless_is_flat(self):
        medium = make_medium(g12_mhz=0.0)
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10, span=8e-6)
        wave = psi_analytic_exp(grid, medium, coupling)
        delay = group_delay_estimate(medium, coupling.peak_rabi)
        support = (wave.tau >= 0) & (wave.tau <= delay)
        assert np.all(wave.amplitude[support] == 1.0)
        assert np.all(wave.amplitude[~support] == 0.0)

    def test_exp_vanishes_outside_medium(self):
        medium = make_medium(g12_mhz=0.2)
        coupling = make_coupling()
        grid = small_grid(n=2 ** 10, span=8e-6)
        wave = psi_analytic_exp(grid, medium, coupling)
        beyond = wave.tau > group_delay_estimate(medium, coupling.peak_rabi)
        assert np.all(wave.amplitude[beyond] == 0.0)
        assert np.all(wave.amplitude[~beyond & (wave.tau >= 0)] > 0.0)


class TestCoincidenceCounts:
    def _det(self, floor=0.0):
        return DetectionConfig(duty_cycle=0.04, joint_efficiency=0.049,
                               bin_width=10e-9, collection_time=1200.0,
                               accidental_floor=floor)

    def test_zero_amplitude_gives_floor(self):
        grid = small_grid(n=2 ** 8)
        wave = psi_analytic_exp(grid, make_medium(), make_coupling())
        dead = psi_analytic_exp(grid, make_medium(), make_coupling())
        object.__setattr__(dead, "amplitude", np.zeros_like(wave.amplitude))
        counts = coincidence_counts(dead, self._det(floor=2.5))
        assert np.all(counts == 2.5)

    def test_linear_in_collection_time(self):
        grid = small_grid(n=2 ** 8)
        wave = psi_analytic_exp(grid, make_medium(g12_mhz=0.2), make_coupling())
        det1 = self._det()
        det2 = DetectionConfig(duty_cycle=0.04, joint_efficiency=0.049,
                               bin_width=10e-9, collection_time=2400.0)
        assert np.allclose(coincidence_counts(wave, det2),
                           2.0 * coincidence_counts(wave, det1), rtol=1e-12)

    def test_quoted_efficiency_scale(self):
        # eta_d = 4% and eta_c = 4.9% give 1.96e-3 per |psi|^2 dt T unit
        grid = small_grid(n=2 ** 8)
        wave = psi_analytic_exp(grid, make_medium(g12_mhz=0.0), make_coupling())
        det = DetectionConfig(duty_cycle=0.04, joint_efficiency=0.049,
                              bin_width=1.0, collection_time=1.0)
        counts = coincidence_counts(wave, det)
        peak = counts.max()
        assert peak == pytest.approx(1.96e-3, rel=1e-9)
