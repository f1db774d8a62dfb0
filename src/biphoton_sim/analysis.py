"""Observable extraction from coincidence traces.

Coherence-time measures (threshold width and tail-fit time constant), the
nonclassicality factor, and the coherence-time-versus-coupling-power scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .biphoton import psi_full
from .dispersion import group_delay_estimate
from .grids import SpectralGrid, check_finite
from .params import BeamField, GenerationMode, MediumConfig, rabi_at_power

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
    above = np.nonzero(trace >= threshold)[0]
    if len(above) == 0:
        return 0.0
    i0, i1 = above[0], above[-1]

    def interp(ia: int, ib: int) -> float:
        y0, y1 = trace[ia], trace[ib]
        if y1 == y0:
            return taus[ia]
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
    """
    cc = np.asarray(cc, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if cc.shape != taus.shape:
        raise ValueError("cc and taus must have the same shape")
    if floor < 0:
        raise ValueError(f"floor must be >= 0, got {floor}")
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
            t_fit = taus[sel]
            y_fit = signal[sel]
            ok = y_fit > 0
            if ok.sum() >= 8:
                coeff = np.polyfit(t_fit[ok], np.log(y_fit[ok]), 1)
                if coeff[0] < 0:
                    exp_tau = -1.0 / coeff[0]
                    resid = np.log(y_fit[ok]) - np.polyval(coeff, t_fit[ok])
                    fit_rmse = float(np.sqrt(np.mean(resid ** 2)))

    return CoherenceReport(e_inverse_width=float(width), exp_tau=exp_tau,
                           fit_rmse=fit_rmse)


def cauchy_schwarz_factor(g12_max: float, g11_0: float, g22_0: float) -> float:
    """Nonclassicality factor g12_max^2 / (g11(0) g22(0)); above 1 is nonclassical."""
    if g11_0 <= 0 or g22_0 <= 0:
        raise ValueError("autocorrelations must be > 0")
    return g12_max ** 2 / (g11_0 * g22_0)


@dataclass(frozen=True)
class ScanPoint:
    """One coupling-power point of the coherence-time scan."""

    power: float            # W
    omega_c: float          # rad/s
    x: float                # gamma13^2 / |Omega_c|^2, dimensionless
    t_coh_formula: float    # s, 2L/V_g = (4 gamma13 / |Omega_c|^2) OD
    t_coh_full: float | None  # s, 1/e width of the full waveform, if computed


def coherence_scan(coupling_powers, medium: MediumConfig, pump: BeamField,
                   coupling: BeamField, mode: GenerationMode,
                   grid: SpectralGrid | None = None, z_panels: int = 512,
                   scale: float = 1.0, threads: int = 1) -> list[ScanPoint]:
    """Coherence time versus coupling power at fixed optical depth.

    Each power maps to a Rabi frequency through the sqrt(P) scaling at the
    coupling beam's waist; the formula column is the group-delay
    coherence time 2L/V_g = (4 gamma13/|Omega_c|^2) OD, linear in
    x = gamma13^2/|Omega_c|^2 with slope 4 OD / gamma13.  Given a ``grid``,
    the 1/e width of the full waveform on it is extracted as well; a waveform
    with a non-finite amplitude raises :class:`GridError`, as in every other
    output path.
    """
    points: list[ScanPoint] = []
    for power in coupling_powers:
        omega_c = rabi_at_power(coupling, power)
        x = (medium.gamma13 / omega_c) ** 2
        t_formula = 2.0 * group_delay_estimate(medium, omega_c)
        t_full = None
        if grid is not None:
            scan_coupling = replace(coupling, power=power, peak_rabi=omega_c)
            wave = psi_full(grid, z_panels, medium, pump, scan_coupling, mode,
                            scale=scale, threads=threads)
            check_finite(wave.amplitude, "the full engine gave a non-finite amplitude")
            report = extract_coherence_time(wave.intensity, wave.tau)
            t_full = report.e_inverse_width
        points.append(ScanPoint(power=power, omega_c=omega_c, x=x,
                                t_coh_formula=t_formula, t_coh_full=t_full))
    return points
