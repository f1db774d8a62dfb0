"""Two-photon interference of the pair on a beam splitter.

One photon is frequency-shifted by delta before a beam splitter of
reflectance R; the coincidence pattern between the output ports beats at
delta under the joint-intensity envelope.  A balanced splitter with no shift
gives complete coincidence suppression; imbalance leaves the residual
(2R - 1)^2 |psi0|^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import GridError, Waveform, check_axis
from .params import MAX_N_OMEGA, check_range, check_ranges, n_omega_at_least


@dataclass(frozen=True)
class InterferometerConfig:
    """Beam-splitter reflectance, applied frequency shift, and noise level.

    ``shift_delta`` is a linear frequency in Hz: the shifted photon carries
    phase factors e^{-i 2 pi delta t}, so the beat period is exactly
    1/delta (11 MHz -> 90.909 ns).
    """

    reflectance: float        # R
    shift_delta: float        # Hz
    noise_counts: float = 0.0  # CC_n, counts per bin

    def __post_init__(self) -> None:
        check_ranges(self, reflectance="in [0, 1]", shift_delta="finite and >= 0",
                     noise_counts=">= 0")


def _check_exchange_symmetry(psi0: Waveform) -> None:
    mag = np.abs(psi0.amplitude)
    mirrored = mag[1:][::-1]  # index i pairs with n - i on a centered grid
    peak = mag.max()
    if peak > 0:
        worst = np.max(np.abs(mag[1:] - mirrored)) / peak
        if worst > 0.05:
            warnings.warn(
                f"input amplitude deviates from exchange symmetry by {worst:.1%}; "
                "beat formulas assume |psi0(tau)| = |psi0(-tau)|",
                stacklevel=3)


def beat_correlation(psi0: Waveform, cfg: InterferometerConfig) -> np.ndarray:
    """Port-correlation G34(tau) of the shifted pair behind the splitter.

    G34(tau) = [R^2 + (1-R)^2 - 2 R (1-R) cos(2 pi delta tau)] |psi0(tau)|^2

    At R = 1/2 this is (1 - cos)/2 times the envelope: full-visibility
    beating, and identically zero for delta = 0.  A shift at or above the
    tau grid's Nyquist frequency n_omega / (2 tau_span) would alias to a
    lower beat, so it raises :class:`GridError`, suggesting the n_omega
    that resolves it.
    """
    grid = psi0.grid
    nyquist = grid.n / (2.0 * grid.tau_span)
    if cfg.shift_delta >= nyquist:
        # the least n_omega above 2 delta tau_span
        n_omega = n_omega_at_least(math.nextafter(2.0 * cfg.shift_delta * grid.tau_span, math.inf))
        hint = (f"increase n_omega to at least {n_omega}"
                if n_omega <= MAX_N_OMEGA else "no n_omega up to 2^20 resolves it")
        raise GridError(f"beat shift {cfg.shift_delta / 1e6:.6g} MHz is at or above the tau "
                        f"grid's Nyquist frequency n_omega / (2 tau_span) = "
                        f"{nyquist / 1e6:.6g} MHz; {hint}")
    _check_exchange_symmetry(psi0)
    r = cfg.reflectance
    mod = (r ** 2 + (1.0 - r) ** 2
           - 2.0 * r * (1.0 - r) * np.cos(2.0 * math.pi * cfg.shift_delta * psi0.tau))
    return mod * psi0.intensity


def visibility_ideal(reflectance: float) -> float:
    """Noise-free beat visibility V0 = 2 R (1-R) / (R^2 + (1-R)^2); 1 at R = 1/2."""
    check_range("reflectance", reflectance, "in [0, 1]")
    r = reflectance
    return 2.0 * r * (1.0 - r) / (r ** 2 + (1.0 - r) ** 2)


def visibility_with_noise(reflectance: float, cc_n: float,
                          cc_max: float, cc_min: float) -> float:
    """Visibility degraded by a background of cc_n counts per bin.

    V = 1 / (1/V0 + 2 CC_n / (CC_max - CC_min)); never exceeds V0 and
    decreases monotonically with the noise level.  A flat trace,
    CC_max = CC_min, under noise has the limit V = 0.
    """
    check_range("cc_n", cc_n, ">= 0")
    if not (cc_max > cc_min or cc_max == cc_min and cc_n > 0):
        raise ValueError(f"cc_max must exceed cc_min, or equal it under noise, got "
                         f"{cc_max} and {cc_min}")
    v0 = visibility_ideal(reflectance)
    if v0 == 0.0 or cc_max == cc_min:
        return 0.0
    return 1.0 / (1.0 / v0 + 2.0 * cc_n / (cc_max - cc_min))


def hom_residual_factor(reflectance: float) -> float:
    """Coincidence fraction surviving at zero shift: (2R - 1)^2."""
    check_range("reflectance", reflectance, "in [0, 1]")
    return (2.0 * reflectance - 1.0) ** 2


def extract_beat_frequency(tau: np.ndarray, g34: np.ndarray,
                           envelope: np.ndarray, reflectance: float) -> float:
    """Beat frequency (Hz) recovered from a correlation trace.

    Subtracts the modulation-free part (R^2 + (1-R)^2) |psi0|^2 and locates
    the spectral peak of the residual, which sits at the applied shift to
    within one FFT bin of the trace length.  Returns 0 for an unmodulated
    trace.  A ``tau`` that fails :func:`~biphoton_sim.grids.check_axis` with
    ``g34`` and ``envelope``, or a ``reflectance`` outside [0, 1], raises
    :class:`ValueError`.
    """
    check_axis("tau", tau, g34=g34, envelope=envelope)
    check_range("reflectance", reflectance, "in [0, 1]")
    r = reflectance
    residual = g34 - (r ** 2 + (1.0 - r) ** 2) * envelope
    spec = np.abs(np.fft.rfft(residual))
    freqs = np.fft.rfftfreq(len(tau), d=tau[1] - tau[0])
    return float(freqs[int(np.argmax(spec))])
