"""Observable extraction: a run's S(omega), psi(tau) and counts, and what they show.

The run pipeline (``run_waveform``, ``measure_run``), coherence-time measures
(threshold width and tail-fit time constant), the nonclassicality factor, and
the group-delay formula of the coherence-time-versus-coupling-power scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biphoton import (coincidence_counts, psi_analytic_exp, psi_analytic_rect, psi_full,
                       psi_uniform_spectrum)
from .config import RunConfig
from .dispersion import group_delay_estimate
from .grids import Waveform, check_axis, check_level, spectrum_to_waveform
from .params import CouplingField, DetectionConfig, GenerationMode, MediumConfig, check_range

# Width threshold referenced to a smoothed envelope; fit window anchored just
# below the post-peak shoulder, one e-fold deep.  See extract_coherence_time.
SMOOTH_FRACTION = 0.10
FIT_LEVEL_HIGH = 0.85
FIT_LEVEL_LOW = FIT_LEVEL_HIGH / np.e


class InsufficientSignalError(ValueError):
    """Trace peak does not stand far enough above the background floor."""


@dataclass(frozen=True)
class CoherenceReport:
    """Extracted coherence measures of one coincidence trace.

    ``e_inverse_width`` is the full width over which the background-subtracted
    trace stays above 1/e of its (envelope-referenced) peak; ``exp_tau`` is
    the fitted intensity decay constant of the trailing edge when one is
    identifiable, with ``fit_rmse`` the log-domain residual of that fit.
    """

    e_inverse_width: float
    exp_tau: float | None
    fit_rmse: float


def _smooth(trace: np.ndarray, n: int) -> np.ndarray:
    if n < 2:
        return trace
    if n % 2 == 0:
        n += 1
    return np.convolve(trace, np.full(n, 1.0 / n), mode="same")


def _width_at_threshold(taus: np.ndarray, trace: np.ndarray, threshold: float) -> float:
    # threshold is at most the peak over e, so the peak sample is above it,
    # and each crossing's two samples lie on opposite sides of it
    above = np.nonzero(trace >= threshold)[0]
    i0, i1 = above[0], above[-1]

    def interp(ia: int, ib: int) -> float:
        y0, y1 = trace[ia], trace[ib]
        return taus[ia] + (threshold - y0) * (taus[ib] - taus[ia]) / (y1 - y0)

    left = interp(i0 - 1, i0) if i0 > 0 else taus[0]
    right = interp(i1, i1 + 1) if i1 < len(taus) - 1 else taus[-1]
    return right - left


def extract_coherence_time(cc: np.ndarray, taus: np.ndarray,
                           floor: float = 0.0) -> CoherenceReport:
    """Coherence measures of a coincidence trace.

    The background floor is subtracted first.  The 1/e full width uses a
    threshold referenced to the peak of a lightly smoothed copy of the trace
    (smoothing window a fixed fraction of the width, iterated once), which
    makes the measure robust against the narrow precursor transient that
    rides on top of physical waveforms; the threshold crossings themselves
    are located on the raw trace, so clean shapes are measured exactly.

    If the smoothed trailing edge decays monotonically over at least a decade,
    the decay constant of exp(-tau/tau_d) is fitted by unweighted least
    squares on the log intensity over the first e-fold below the post-peak
    shoulder (and above three times the floor), matching the quoted-constant
    convention for near-exponential decays while ignoring the late, spectrally
    filtered part of the tail.

    A trace of another shape than ``taus``, of fewer than two samples or with
    a non-finite sample, a ``taus`` axis not finite and strictly increasing,
    or a ``floor`` not >= 0, raises :class:`ValueError`.
    """
    cc = np.asarray(cc, dtype=float)
    taus = np.asarray(taus, dtype=float)
    check_axis("taus", taus, cc=cc)
    if not (finite := np.isfinite(cc)).all():
        raise ValueError(f"cc must be finite: {np.sum(~finite)} of {cc.size} samples are not")
    check_range("floor", floor, ">= 0")
    if floor > 0 and cc.max() < 5.0 * floor:
        raise InsufficientSignalError(
            f"peak {cc.max():.3g} is below 5x floor ({5.0 * floor:.3g})")

    signal = cc - floor
    d_tau = taus[1] - taus[0]
    if signal.max() <= 0:
        return CoherenceReport(e_inverse_width=0.0, exp_tau=None, fit_rmse=0.0)

    width = _width_at_threshold(taus, signal, signal.max() / np.e)
    smoothed = signal
    for _ in range(2):
        n_win = max(1, int(round(width * SMOOTH_FRACTION / d_tau)))
        smoothed = _smooth(signal, n_win)
        width = _width_at_threshold(taus, signal, smoothed.max() / np.e)

    exp_tau = None
    fit_rmse = 0.0
    peak_idx = int(np.argmax(smoothed))
    peak = smoothed[peak_idx]
    tail = smoothed[peak_idx:]
    decade_end = np.nonzero(tail <= 0.1 * peak)[0]
    monotone = False
    if len(decade_end) > 0:
        seg = tail[:decade_end[0] + 1]
        rises = np.diff(seg)
        # tolerate residual precursor ringing, reject genuinely rising tails
        # and traces that revive after the first decade of decay
        monotone = len(seg) >= 3 and np.all(rises <= 0.05 * peak)
        if np.any(tail[decade_end[0]:] > 0.5 * peak):
            monotone = False
    if monotone:
        lo_level = max(FIT_LEVEL_LOW * peak, 3.0 * floor)
        after = np.arange(len(signal)) > peak_idx
        start_hits = np.nonzero(after & (smoothed <= FIT_LEVEL_HIGH * peak))[0]
        end_hits = np.nonzero(after & (smoothed <= lo_level))[0]
        if len(start_hits) and len(end_hits) and end_hits[0] > start_hits[0]:
            sel = slice(start_hits[0], end_hits[0] + 1)
            ok = signal[sel] > 0
            if ok.sum() >= 8:
                # past tau of about 1e154 s the sums overflow: a slope not finite is no fit
                t = taus[sel][ok] - taus[sel][ok].mean()
                log_y = np.log(signal[sel][ok])
                with np.errstate(over="ignore", invalid="ignore"):
                    slope = np.sum(t * (log_y - log_y.mean())) / np.sum(t * t)
                if -np.inf < slope < 0:
                    exp_tau = -1.0 / slope
                    resid = log_y - (log_y.mean() + slope * t)
                    fit_rmse = float(np.sqrt(np.mean(resid ** 2)))

    return CoherenceReport(e_inverse_width=float(width), exp_tau=exp_tau,
                           fit_rmse=fit_rmse)


def measure_coherence(wave: Waveform,
                      detection: DetectionConfig) -> tuple[np.ndarray, CoherenceReport]:
    """The detector's coincidence counts of ``wave`` and the coherence measures read off them.

    The one measurement of every coherence width the program reports.  Counts
    not finite or peaking below a normal double raise
    :class:`~biphoton_sim.grids.GridError` (``check_level``); a peak below 5x
    ``detection.accidental_floor`` raises :class:`InsufficientSignalError`.
    """
    counts = coincidence_counts(wave, detection)
    check_level(counts, "the coincidence trace")
    return counts, extract_coherence_time(counts, wave.tau, floor=detection.accidental_floor)


# (cfg, grid, threads) -> S(omega) or Waveform; each call looks up the engine's module global
ENGINES = {
    "full": lambda cfg, grid, threads: psi_full(
        grid, cfg.numerics.z_panels, cfg.medium, cfg.pump, cfg.coupling, cfg.mode,
        scale=cfg.kappa_scale, threads=threads),
    "uniform": lambda cfg, grid, threads: psi_uniform_spectrum(
        grid, cfg.medium, cfg.pump, cfg.coupling, cfg.mode, scale=cfg.kappa_scale),
    "analytic": lambda cfg, grid, threads: (
        psi_analytic_rect(grid, cfg.medium, cfg.pump, cfg.coupling, scale=cfg.kappa_scale)
        if cfg.mode is GenerationMode.DEGENERATE
        else psi_analytic_exp(grid, cfg.medium, cfg.coupling)),
}


def run_waveform(cfg: RunConfig, engine="full", threads=0) -> tuple[np.ndarray | None, Waveform]:
    """S(omega) on ``cfg``'s grid and its FFT psi(tau); the analytic engine forms psi, S None.
    Each engine first holds the run to ``check_grid``; a |psi|^2 not finite or peaking
    below a normal double raises :class:`~biphoton_sim.grids.GridError` (``check_level``)."""
    grid = cfg.numerics.grid()
    out = ENGINES[engine](cfg, grid, threads)
    spectrum, wave = ((None, out) if isinstance(out, Waveform)
                      else (out, spectrum_to_waveform(grid, out)))
    check_level(wave.intensity, f"the {engine} engine's |psi|^2")
    return spectrum, wave


def measure_run(cfg: RunConfig, engine="full", threads=0
                ) -> tuple[np.ndarray | None, Waveform, np.ndarray, CoherenceReport]:
    """``run_waveform``, then ``measure_coherence``: what ``waveform`` writes."""
    spectrum, wave = run_waveform(cfg, engine, threads)
    return (spectrum, wave, *measure_coherence(wave, cfg.detection))


def cauchy_schwarz_factor(g12_max: float, g11_0: float, g22_0: float) -> float:
    """Nonclassicality factor g12_max^2 / (g11(0) g22(0)); above 1 is nonclassical."""
    check_range("g12_max", g12_max, ">= 0")
    check_range("g11_0", g11_0, "> 0")
    check_range("g22_0", g22_0, "> 0")
    return g12_max ** 2 / (g11_0 * g22_0)


@dataclass(frozen=True)
class ScanPoint:
    """One point of the coherence-time scan: the coupling beam at one power."""

    coupling: CouplingField  # the configured beam driven at the point's power
    x: float                 # gamma13^2 / |Omega_c|^2, dimensionless
    t_coh_formula: float     # s, 2L/V_g = (4 gamma13 / |Omega_c|^2) OD


def coherence_scan(coupling_powers, medium: MediumConfig,
                   coupling: CouplingField) -> list[ScanPoint]:
    """Coherence time versus coupling power (W, each > 0) at fixed optical depth.

    Each power gives the beam ``coupling.at_power(power)``, whose Rabi
    frequency scales as sqrt(P) at the beam's waist; the coherence time is
    the group-delay formula 2L/V_g = (4 gamma13/|Omega_c|^2) OD, linear in
    x = gamma13^2/|Omega_c|^2 with slope 4 OD / gamma13.
    """
    beams = [coupling.at_power(power) for power in coupling_powers]
    return [ScanPoint(coupling=beam, x=(medium.gamma13 / beam.peak_rabi) ** 2,
                      t_coh_formula=2.0 * group_delay_estimate(medium, beam.peak_rabi))
            for beam in beams]
