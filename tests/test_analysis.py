import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biphoton_sim import (
    GenerationMode,
    InsufficientSignalError,
    InterferometerConfig,
    NumericsConfig,
    SpectralGrid,
    cauchy_schwarz_factor,
    coherence_scan,
    eit_absorption_loss,
    eit_transmission,
    extract_beat_frequency,
    extract_coherence_time,
    group_delay_estimate,
    hom_residual_factor,
    kappa,
    load_preset,
    measure_coherence,
    psi_analytic_rect,
    psi_full,
    psi_uniform_spectrum,
    pt_mode_analysis,
    spectrum_to_waveform,
    visibility_ideal,
    visibility_with_noise,
)

from conftest import MHZ, make_coupling, make_medium


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

    @pytest.mark.parametrize("sample", [math.nan, math.inf])
    def test_non_finite_trace_is_refused(self, sample):
        # one NaN sample gave width 0 and no fit; one inf died converting a
        # NaN window length to an integer in the smoothing
        taus = np.linspace(0.0, 4e-6, 2001)
        trace = np.exp(-((taus - 1.2e-6) / 400e-9) ** 2)
        trace[700] = sample
        with pytest.raises(ValueError, match="^cc must be finite: 1 of 2001 samples are not$"):
            extract_coherence_time(trace, taus)

    @pytest.mark.parametrize("seed", range(4))
    def test_tail_fit_is_the_least_squares_line(self, monkeypatch, seed):
        # the closed-form line agrees with polyfit's LAPACK least squares,
        # the reference here only, on the samples the fit reads
        rng = np.random.default_rng(seed)
        taus = np.linspace(-1e-6, 4e-6, 5001)
        tau_d = rng.uniform(200e-9, 600e-9)
        trace = (np.where(taus >= 0.0, np.exp(-taus / tau_d), 0.0)
                 * (1.0 + 0.02 * rng.standard_normal(taus.size)))
        logged, log = [], np.log
        monkeypatch.setattr(np, "log", lambda y: logged.append(y.copy()) or log(y))
        rep = extract_coherence_time(trace, taus)
        monkeypatch.undo()
        y = logged[0]
        start = np.flatnonzero(trace == y[0])[0]
        t, log_y = taus[start:start + len(y)], np.log(y)
        slope, intercept = np.polyfit(t, log_y, 1)
        assert rep.exp_tau == pytest.approx(-1.0 / slope, rel=1e-12)
        rmse = np.sqrt(np.mean((log_y - np.polyval((slope, intercept), t)) ** 2))
        assert rep.fit_rmse == pytest.approx(rmse, rel=1e-9)

    def test_rising_tail_reports_width_only(self):
        taus = np.linspace(0.0, 4e-6, 2001)
        trace = 1.0 + np.cos(2 * math.pi * taus / 2.1e-6)
        rep = extract_coherence_time(trace, taus)
        assert rep.exp_tau is None


def test_preset_tail_fit_needs_no_lapack(monkeypatch):
    # polyfit's LAPACK least squares cost every fitting command about 1 MB of
    # peak memory, and printed LAPACK's own lines to stderr on a NaN axis
    def lapack(*args, **kwargs):
        raise AssertionError("the tail fit called LAPACK")

    monkeypatch.setattr(np, "polyfit", lapack)
    monkeypatch.setattr(np.linalg, "lstsq", lapack)
    cfg = load_preset("fig3d")
    grid = cfg.numerics.grid()
    spectrum = psi_uniform_spectrum(grid, cfg.medium, cfg.pump, cfg.coupling, cfg.mode,
                                    scale=cfg.kappa_scale)
    report = measure_coherence(spectrum_to_waveform(grid, spectrum), cfg.detection)[1]
    assert report.exp_tau == pytest.approx(185.8067e-9, rel=1e-6)


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
        strict=True, raises=AssertionError,
        reason="the sampled counts pick up the tau = 0 transient")),
])
def test_width_converges_as_n_omega_goes_x4(preset):
    # at a fixed 80 us span, so the tau step shrinks 4x and the band widens 4x
    cfg = load_preset(preset)
    widths = []
    for n_omega in (16384, 65536):
        grid = SpectralGrid(n_omega, 80e-6)
        wave = spectrum_to_waveform(grid, psi_full(grid, 64, cfg.medium, cfg.pump, cfg.coupling,
                                                   cfg.mode, scale=cfg.kappa_scale))
        widths.append(measure_coherence(wave, cfg.detection)[1].e_inverse_width)
    assert widths[1] == pytest.approx(widths[0], rel=0.01)


@pytest.mark.parametrize("preset", [
    # At gamma12 0.25 MHz (alpha L 1.06) the width drops from 1232.4 to 11.9 ns:
    # the tau ~ 0 transient, not the rectangle, then holds the 1/e threshold.
    pytest.param("fig3d", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 11: the degenerate width collapses above alpha L ~ 1")),
    "fig2d",
])
def test_loss_sweep_shortens_only_the_nondegenerate_width(preset):
    # The paper's claim, as a loss sweep: gamma12 raises the EIT loss alpha L
    # at a fixed group delay.  The bounds come before any width definition:
    # between neighbouring points the log width moves at most 2 d(alpha L),
    # the nondegenerate width strictly falls, and the degenerate width stays
    # within 10% of its lowest-loss value.
    cfg = load_preset(preset)
    grid = SpectralGrid(4096, 5e-6)
    losses, widths = [], []
    for gamma12_mhz in (0.004, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5):
        medium = dataclasses.replace(cfg.medium, gamma12=gamma12_mhz * MHZ)
        wave = spectrum_to_waveform(grid, psi_full(grid, 64, medium, cfg.pump, cfg.coupling,
                                                   cfg.mode, scale=cfg.kappa_scale))
        losses.append(eit_absorption_loss(medium, cfg.coupling.peak_rabi))
        widths.append(measure_coherence(wave, cfg.detection)[1].e_inverse_width)
    assert np.all(np.abs(np.diff(np.log(widths))) <= 2.0 * np.diff(losses))
    if cfg.mode is GenerationMode.DEGENERATE:
        assert widths == pytest.approx([widths[0]] * len(widths), rel=0.1)
    else:
        assert np.all(np.diff(widths) < 0)


def _exp_trace(nan_at=None):
    """A 340 ns exponential and its increasing axis, with a NaN at tau ``nan_at`` s if given.

    The tail fit reads tau from about 55 to 395 ns.
    """
    taus = np.arange(-1000, 3000) * 1e-9
    trace = np.where(taus >= 0.0, np.exp(-taus / 340e-9), 0.0)
    if nan_at is not None:
        taus[np.argmin(np.abs(taus - nan_at))] = math.nan
    return trace, taus


def _fig3d():
    """fig3d's grid of 4096 points over 5 us, its medium, pump and coupling."""
    cfg = load_preset("fig3d")
    return SpectralGrid(4096, 5e-6), cfg.medium, cfg.pump, cfg.coupling


def _fig3d_psi_full(z_panels=64, **kwargs):
    """psi_full on fig3d at 4096 points over 5 us."""
    grid, *inputs = _fig3d()
    return psi_full(grid, z_panels, *inputs, GenerationMode.DEGENERATE, **kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: extract_coherence_time(np.ones(3), np.ones(4)), "same shape"),
    (lambda: extract_coherence_time(np.ones(0), np.ones(0)), "^need at least two samples$"),
    (lambda: extract_coherence_time(np.ones(1), np.ones(1)), "^need at least two samples$"),
    (lambda: extract_coherence_time(np.ones(3), np.arange(3.0), floor=-1.0),
     "floor must be >= 0"),
    (lambda: extract_coherence_time(np.ones(3), np.arange(3.0), floor=math.nan),
     "^floor must be >= 0, got nan$"),
    (lambda: cauchy_schwarz_factor(30.0, 0.0, 2.0), "^g11_0 must be > 0, got 0.0$"),
    (lambda: cauchy_schwarz_factor(30.0, math.nan, 2.0), "^g11_0 must be > 0, got nan$"),
    (lambda: eit_absorption_loss(make_medium(), -1.0), "omega_c must be >= 0"),
    (lambda: eit_absorption_loss(make_medium(), math.nan), "^omega_c must be >= 0, got nan$"),
    (lambda: group_delay_estimate(make_medium(), math.nan), "^omega_c must be > 0, got nan$"),
    (lambda: pt_mode_analysis(-1.0, 1.0), "alpha must be >= 0"),
    (lambda: pt_mode_analysis(math.nan, 1.0), "^alpha must be >= 0, got nan$"),
    (lambda: pt_mode_analysis(1.0, math.nan), "^kappa must be finite, got nan$"),
    (lambda: visibility_ideal(1.5), r"reflectance must be in \[0, 1\]"),
    (lambda: visibility_ideal(math.nan), r"^reflectance must be in \[0, 1\], got nan$"),
    (lambda: visibility_with_noise(0.5, -1.0, 2.0, 1.0), "cc_n must be >= 0"),
    (lambda: visibility_with_noise(0.5, math.nan, 2.0, 1.0), "^cc_n must be >= 0, got nan$"),
    (lambda: hom_residual_factor(-0.5), r"reflectance must be in \[0, 1\]"),
    (lambda: hom_residual_factor(math.nan), r"^reflectance must be in \[0, 1\], got nan$"),
    (lambda: extract_beat_frequency(np.zeros(1), np.zeros(1), np.zeros(1), 0.5),
     "need at least two samples"),
    (lambda: SpectralGrid(1024, math.nan), "^tau_span must be finite and > 0, got nan$"),
    (lambda: make_coupling().at_power(math.inf), "^power must be finite and > 0, got inf$"),
    (lambda: extract_coherence_time(*(values[::-1] for values in _exp_trace())),
     "^taus must be finite and strictly increasing$"),
    (lambda: extract_coherence_time(*_exp_trace(nan_at=200e-9)),
     "^taus must be finite and strictly increasing$"),
    (lambda: extract_coherence_time(*_exp_trace(nan_at=-900e-9)),
     "^taus must be finite and strictly increasing$"),
    (lambda: extract_beat_frequency(np.arange(4.0), np.ones(4), np.ones(4), 2.0),
     r"^reflectance must be in \[0, 1\], got 2.0$"),
    (lambda: extract_beat_frequency(np.arange(4.0), np.ones(4), np.ones(4), math.nan),
     r"^reflectance must be in \[0, 1\], got nan$"),
    (lambda: cauchy_schwarz_factor(-1.0, 2.0, 2.0), "^g12_max must be >= 0, got -1.0$"),
    (lambda: cauchy_schwarz_factor(math.nan, 1.0, 1.0), "^g12_max must be >= 0, got nan$"),
    (lambda: SpectralGrid(1024.0, 1e-6), "^n must be a power of two >= 2, got 1024.0$"),
    # a shorter axis read a 4x beat frequency or an index past its spectrum,
    # a reversed one a negative frequency
    (lambda: extract_beat_frequency(np.arange(1000) * 1e-9, np.ones(4000), np.ones(4000), 0.5),
     "^g34 and tau must have the same shape$"),
    (lambda: extract_beat_frequency(np.arange(4.0)[::-1], np.ones(4), np.ones(4), 0.5),
     "^tau must be finite and strictly increasing$"),
    (lambda: extract_beat_frequency(np.array([0.0, math.nan, 2.0, 3.0]), np.ones(4),
                                    np.ones(4), 0.5),
     "^tau must be finite and strictly increasing$"),
    # a float count used to reach numpy, which raised TypeError
    (lambda: _fig3d_psi_full(64.0),
     r"^z_panels must be an even count in \[64, 2\^16\], got 64.0$"),
    (lambda: NumericsConfig(n_omega=4096, z_panels=64.0, tau_span=5e-6),
     r"^z_panels must be an even count in \[64, 2\^16\], got 64.0$"),
    (lambda: _fig3d_psi_full(threads=2.0), r"^threads must be an integer >= 0, got 2.0$"),
    # an infinite shift used to overflow in beat_correlation's n_omega hint
    (lambda: InterferometerConfig(0.5, math.inf),
     "^shift_delta must be finite and >= 0, got inf$"),
    # each amplitude route returned all nan for a non-finite scale, all zeros for 0
    (lambda: _fig3d_psi_full(scale=math.nan), "^scale must be finite and > 0, got nan$"),
    (lambda: psi_uniform_spectrum(*_fig3d(), GenerationMode.DEGENERATE, scale=math.inf),
     "^scale must be finite and > 0, got inf$"),
    (lambda: psi_analytic_rect(*_fig3d(), scale=0.0), "^scale must be finite and > 0, got 0.0$"),
    (lambda: kappa(0.0, 0.0, *_fig3d()[1:], GenerationMode.DEGENERATE, scale=-1.0),
     "^scale must be finite and > 0, got -1.0$"),
    (lambda: eit_transmission(np.zeros(3), math.nan, make_medium()),
     "^omega_c must be >= 0, got nan$"),
], ids=["trace-shape", "trace-empty", "trace-one-sample", "floor-negative", "floor-nan",
        "autocorrelation-zero", "autocorrelation-nan", "rabi-negative", "rabi-nan",
        "delay-rabi-nan", "alpha-negative", "alpha-nan", "kappa-nan",
        "visibility-reflectance", "visibility-reflectance-nan", "noise-negative", "noise-nan",
        "hom-reflectance", "hom-reflectance-nan", "beat-one-sample", "tau-span-nan",
        "power-inf", "taus-decreasing", "taus-nan-in-tail", "taus-nan-elsewhere",
        "beat-reflectance", "beat-reflectance-nan", "g12-max-negative", "g12-max-nan",
        "grid-size-float", "beat-tau-shorter", "beat-tau-reversed", "beat-tau-nan",
        "z-panels-float", "numerics-z-panels-float", "threads-float", "shift-inf",
        "scale-nan", "scale-inf", "scale-zero", "scale-negative", "transmission-rabi-nan"])
def test_library_guard_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
