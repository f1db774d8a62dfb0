"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion; the preset waveforms are computed once per
session at their default numerics.
"""

import math
import time

import numpy as np
import pytest

from biphoton_sim import (
    InterferometerConfig,
    beat_correlation,
    cauchy_schwarz_factor,
    coherence_scan,
    eit_absorption_loss,
    eit_transmission,
    extract_beat_frequency,
    group_delay_estimate,
    hom_residual_factor,
    load_preset,
    pt_mode_analysis,
    visibility_ideal,
)
from biphoton_sim.dispersion import PTRegime
from biphoton_sim.selftest import (
    check_kappa_symmetry,
    check_parseval,
    check_rect_limit,
    check_reference_agreement,
    check_wavenumber_mirror,
    run_selftest,
)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


class TestCriterion1SymmetryProtectedWidth:
    def test_degenerate_widths_match_within_5_percent(self, preset_waveforms):
        w_good = preset_waveforms["fig3d"]["report"].e_inverse_width
        w_bad = preset_waveforms["fig3f"]["report"].e_inverse_width
        rel = abs(w_bad - w_good) / w_good
        report(f"criterion 1a: widths alphaL 0.017/0.85 = "
               f"{w_good * 1e9:.0f}/{w_bad * 1e9:.0f} ns, mismatch {rel:.1%} (<= 5%)")
        assert rel <= 0.05

    def test_degenerate_widths_near_quoted_value(self, preset_waveforms):
        for name in ("fig3d", "fig3f"):
            width = preset_waveforms[name]["report"].e_inverse_width
            report(f"criterion 1b: {name} width {width * 1e9:.0f} ns "
                   f"(1250 ns +- 10%)")
            assert width == pytest.approx(1250e-9, rel=0.10)

    def test_runtime_under_30_seconds(self, preset_waveforms):
        for name in ("fig3d", "fig3f"):
            seconds = preset_waveforms[name]["seconds"]
            report(f"criterion 1c: {name} full integral took {seconds:.1f} s (< 30 s)")
            assert seconds < 30.0


class TestCriterion2LossShortenedCoherence:
    def test_lossy_tail_constant_brackets_quoted_values(self, preset_waveforms):
        rep = preset_waveforms["fig2f"]["report"]
        assert rep.exp_tau is not None
        tail_ns = rep.exp_tau * 1e9
        report(f"criterion 2a: fig2f tail constant {tail_ns:.0f} ns (in [340, 400])")
        assert 340.0 <= tail_ns <= 400.0

    def test_good_eit_width_matches_group_delay(self, preset_waveforms):
        width = preset_waveforms["fig2d"]["report"].e_inverse_width
        report(f"criterion 2b: fig2d width {width * 1e9:.0f} ns (555 ns +- 10%)")
        assert width == pytest.approx(555e-9, rel=0.10)


class TestCriterion3EitDiagnostics:
    def test_bad_eit_absorption(self):
        cfg = load_preset("fig2e")
        alpha_l = eit_absorption_loss(cfg.medium, cfg.coupling.peak_rabi)
        report(f"criterion 3a: fig2e alpha L = {alpha_l:.3f} (0.71 +- 3%)")
        assert alpha_l == pytest.approx(0.71, rel=0.03)

    def test_degenerate_bad_eit_absorption_by_construction(self):
        cfg = load_preset("fig3e")
        alpha_l = eit_absorption_loss(cfg.medium, cfg.coupling.peak_rabi)
        report(f"criterion 3b: fig3e alpha L = {alpha_l:.6f} (0.85 pinned)")
        assert alpha_l == pytest.approx(0.85, rel=1e-6)

    def test_good_eit_transmission(self):
        cfg = load_preset("fig2c")
        t0 = eit_transmission(0.0, cfg.coupling.peak_rabi, cfg.medium)
        report(f"criterion 3c: fig2c T(0) = {t0:.3f} (0.97 +- 0.02)")
        assert t0 == pytest.approx(0.97, abs=0.02)

    def test_discrepant_conventions_reported_not_reconciled(self):
        # the quoted 24% transmission equals exp(-2 alpha L); exp(-alpha L)
        # would be 49%: both values are exposed and differ
        cfg = load_preset("fig2e")
        alpha_l = eit_absorption_loss(cfg.medium, cfg.coupling.peak_rabi)
        t0 = eit_transmission(0.0, cfg.coupling.peak_rabi, cfg.medium)
        report(f"criterion 3d: T(0)={t0:.3f} vs exp(-alphaL)={math.exp(-alpha_l):.3f}"
               " (reported both)")
        assert t0 == pytest.approx(math.exp(-2.0 * alpha_l), rel=0.02)
        assert abs(t0 - math.exp(-alpha_l)) > 0.2


class TestCriterion4GroupDelayFormula:
    def test_round_trip_delay(self):
        cfg = load_preset("fig3d")
        t_coh = 2.0 * group_delay_estimate(cfg.medium, cfg.coupling.peak_rabi)
        report(f"criterion 4a: 2L/Vg = {t_coh * 1e9:.0f} ns (1350 ns +- 5%)")
        assert t_coh == pytest.approx(1.36e-6, rel=0.05)
        assert t_coh == pytest.approx(1350e-9, rel=0.05)

    def test_scan_endpoints(self):
        cfg = load_preset("fig5")
        points = coherence_scan(list(cfg.scan_powers), cfg.medium, cfg.coupling)
        first = points[0].t_coh_formula
        last = points[-1].t_coh_formula
        report(f"criterion 4b: scan endpoints {first * 1e6:.2f} us / "
               f"{last * 1e6:.2f} us (1.25 / 6.85 +- 10%)")
        assert first == pytest.approx(1.25e-6, rel=0.10)
        assert last == pytest.approx(6.85e-6, rel=0.10)


class TestCriterion5InterferenceSuite:
    def test_beat_frequency_within_one_bin(self, preset_waveforms):
        wave = preset_waveforms["fig3d"]["wave"]
        itf = load_preset("fig4b").interferometer
        g34 = beat_correlation(wave, itf)
        freq = extract_beat_frequency(wave.tau, g34, wave.intensity,
                                      itf.reflectance)
        bin_hz = 1.0 / (len(wave.tau) * (wave.tau[1] - wave.tau[0]))
        report(f"criterion 5a: beat {freq / 1e6:.4f} MHz "
               f"(11 MHz +- {bin_hz / 1e6:.4f} MHz bin)")
        assert abs(freq - 11e6) <= bin_hz

    def test_closed_form_visibility(self):
        v0 = visibility_ideal(0.7)
        report(f"criterion 5b: V0(0.7) = {v0:.6f} (21/29 exactly)")
        assert v0 == pytest.approx(21.0 / 29.0, rel=1e-12)
        assert v0 == pytest.approx(0.7241, abs=5e-5)

    def test_hom_residual_factor(self):
        res = hom_residual_factor(0.7)
        report(f"criterion 5c: HOM residual (2R-1)^2 = {res:.6f} (0.16 exactly)")
        assert res == pytest.approx(0.16, rel=1e-12)

    def test_perfect_hom_suppression(self, preset_waveforms):
        wave = preset_waveforms["fig3d"]["wave"]
        cfg = InterferometerConfig(reflectance=0.5, shift_delta=0.0)
        g34 = beat_correlation(wave, cfg)
        worst = np.max(np.abs(g34)) / wave.intensity.max()
        report(f"criterion 5d: R=0.5, delta=0 residual {worst:.2e} (<= 1e-12)")
        assert worst <= 1e-12


class TestCriterion6OracleEquivalence:
    def test_full_vs_trapezoid_reference(self):
        res = check_reference_agreement()
        report(f"criterion 6a: full vs trapezoid reference {res.observed:.2e} (< 1%)")
        assert res.passed

    def test_full_vs_analytic_rect_group_delay_regime(self):
        res = check_rect_limit()
        report(f"criterion 6b: full vs analytic rectangle {res.observed:.1%} (< 3% RMS)")
        assert res.passed

    def test_parseval(self):
        res = check_parseval()
        report(f"criterion 6c: Parseval deviation {res.observed:.2e} (< 1e-6)")
        assert res.passed

    def test_selftest_runtime(self):
        start = time.perf_counter()
        code = run_selftest()
        elapsed = time.perf_counter() - start
        report(f"criterion 6d: selftest exit {code} in {elapsed:.1f} s (< 60 s)")
        assert code == 0
        assert elapsed < 60.0


class TestCriterion7ExactInvariants:
    def test_kappa_symmetry(self):
        res = check_kappa_symmetry()
        report(f"criterion 7a: kappa(w) - kappa(-w) worst {res.observed:.1e} (exact)")
        assert res.passed

    def test_wavenumber_mirror(self):
        res = check_wavenumber_mirror()
        report(f"criterion 7b: k2(w) - k1(-w) worst {res.observed:.1e} (exact)")
        assert res.passed

    def test_pt_eigenvalues_across_plane(self):
        grid_pts = [(a, k) for a in (0.0, 0.3, 1.0, 2.5) for k in (0.0, 0.3, 1.0, 2.5)]
        for alpha, kap in grid_pts:
            res = pt_mode_analysis(alpha, kap)
            lam = res.eigenvalues[0]
            assert res.eigenvalues[1] == -lam
            assert abs(lam ** 2 - (kap ** 2 - alpha ** 2)) < 1e-12
            if kap ** 2 > alpha ** 2:
                assert res.regime is PTRegime.UNBROKEN
            elif kap ** 2 < alpha ** 2:
                assert res.regime is PTRegime.BROKEN
            else:
                assert res.regime is PTRegime.EXCEPTIONAL
        report("criterion 7c: PT eigenvalues +-sqrt(k^2-a^2) with regime map "
               "incl. exceptional line")


class TestCriterion8CauchySchwarz:
    def test_violation_factor(self):
        factor = cauchy_schwarz_factor(30.0, 2.0, 2.0)
        report(f"criterion 8: factor(30, 2, 2) = {factor:.0f} "
               f"(225, inside 219 +- 171)")
        assert factor == pytest.approx(225.0, rel=1e-12)
        assert 48.0 <= factor <= 390.0
