"""Linear response of the coupled atomic medium.

The EIT pole structure is written once, in :func:`eit_denominator`:

    D(omega; |Omega_c|^2) = |Omega_c|^2 - 4 (omega + i gamma13)(omega + i gamma12)

The linear susceptibility, the slow-photon wavenumber built on it, and the
parametric coupling kappa of :mod:`biphoton_sim.biphoton` all take D as an
input, so both photons of a degenerate pair see one medium:
k2(omega) = k1(-omega) and kappa(omega) = kappa(-omega) hold exactly.  Also
here: transparency / group-delay / absorption diagnostics, and the
eigenvalue analysis of the counter-propagating two-mode coupling matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import C_LIGHT, GenerationMode, MediumConfig, density_prefactor


class PTRegime(Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True)
class PTModeResult:
    """Eigenvalues (lam, -lam) of the two-mode coupling matrix and their regime."""

    eigenvalues: tuple[complex, complex]
    regime: PTRegime


def eit_denominator(omega, omega_c_sq, medium: MediumConfig):
    """EIT denominator D = |Omega_c|^2 - 4 (omega + i gamma13)(omega + i gamma12).

    Shared by the linear and third-order responses (Du, Wen & Rubin, JOSA B
    25, C98, 2008).  ``omega_c_sq`` is the local squared coupling Rabi
    frequency and may carry a z axis that broadcasts against ``omega``.  D
    cannot vanish for real omega when gamma13 > 0; for vanishing dephasing
    its zeros omega = +/- Omega_c/2 are the two dressed-state resonances.
    """
    return omega_c_sq - 4.0 * (omega + 1j * medium.gamma13) * (omega + 1j * medium.gamma12)


def _susceptibility(omega, d, medium: MediumConfig):
    return 4.0 * density_prefactor(medium) * (omega + 1j * medium.gamma12) / d


def chi_linear(omega, omega_c_local: float, medium: MediumConfig):
    """Linear susceptibility of the slow photon at detuning omega.

    chi(omega) = 4 beta (omega + i gamma12) / D(omega)

    with beta from :func:`density_prefactor`, D from :func:`eit_denominator`
    and ``omega_c_local`` the coupling Rabi frequency at the evaluation point
    (weak-pump term dropped).  On two-photon resonance with gamma12 = 0 the
    medium is perfectly transparent (chi = 0); with the coupling off,
    chi(0) = i beta / gamma13, which reproduces the two-level intensity
    transmission exp(-OD).
    """
    if omega_c_local < 0:
        raise ValueError(f"omega_c_local must be >= 0, got {omega_c_local}")
    om = np.asarray(omega, dtype=float)
    chi = _susceptibility(om, eit_denominator(om, omega_c_local ** 2, medium), medium)
    if np.isscalar(omega):
        return complex(chi)
    return chi


def _slow_wavenumber(omega, d, medium: MediumConfig):
    """Carrier-subtracted wavenumber of the slow photon, q = k1 - omega0/c.

    k1(omega) = (omega0 + omega)/c sqrt(1 + chi(omega)), principal branch,
    with chi built on the EIT denominator ``d`` = D(omega).
    """
    w0 = medium.omega0
    chi = _susceptibility(omega, d, medium)
    return (w0 + omega) / C_LIGHT * np.sqrt(1.0 + chi) - w0 / C_LIGHT


def pair_wavenumbers(omega, d_plus, d_minus, medium: MediumConfig,
                     mode: GenerationMode):
    """Carrier-subtracted wavenumbers q1(omega), q2(omega) of the pair.

    ``d_plus`` and ``d_minus`` are D(+omega) and D(-omega).  Photon 1 always
    propagates through the EIT medium.  Degenerate scheme: photon 2 is its
    detuning mirror, q2(omega) = q1(-omega), evaluated by the same formula so
    the identity is bitwise exact on mirrored grids.  Nondegenerate scheme:
    the far-detuned partner propagates dispersion-free and lossless,
    q2(omega) = -omega/c.
    """
    q1 = _slow_wavenumber(omega, d_plus, medium)
    if mode is GenerationMode.DEGENERATE:
        return q1, _slow_wavenumber(-omega, d_minus, medium)
    return q1, np.broadcast_to(-omega / C_LIGHT + 0j, q1.shape)


def _slow_wavenumber_at(omega, omega_c: float, medium: MediumConfig):
    om = np.asarray(omega, dtype=float)
    return _slow_wavenumber(om, eit_denominator(om, omega_c ** 2, medium), medium)


def eit_transmission(omega_grid, omega_c: float, medium: MediumConfig):
    """Intensity transmission spectrum T(omega) = exp(-2 Im k1(omega) L).

    The factor 2 converts the field attenuation Im k1 into an intensity
    exponent; on resonance T(0) = exp(-2 alpha L) with alpha L from
    :func:`eit_absorption_loss`.
    """
    q1 = _slow_wavenumber_at(omega_grid, omega_c, medium)
    t = np.exp(-2.0 * np.imag(q1) * medium.length)
    if np.isscalar(omega_grid):
        return float(t)
    return t


def group_delay_estimate(medium: MediumConfig, omega_c: float) -> float:
    """EIT group delay L/V_g ~ (2 gamma13 / |Omega_c|^2) OD, in seconds."""
    if omega_c <= 0:
        raise ValueError("omega_c must be > 0 (zero coupling means infinite delay)")
    return 2.0 * medium.gamma13 * medium.od / omega_c ** 2


def group_delay_numeric(medium: MediumConfig, omega_c: float) -> float:
    """Group delay from the slope of Re k1 at line center, L * dRe(k1)/domega.

    Central finite difference with a step of 1e-3 of the EIT linewidth proxy
    |Omega_c|^2 / (2 gamma13 OD); small enough for sub-0.1% discretization
    error, large enough to avoid cancellation.
    """
    if omega_c <= 0:
        raise ValueError("omega_c must be > 0")
    h = 1e-3 * eit_bandwidth_proxy(medium, omega_c)
    q = _slow_wavenumber_at(np.array([h, -h]), omega_c, medium).real
    return medium.length * (q[0] - q[1]) / (2.0 * h)


def eit_bandwidth_proxy(medium: MediumConfig, omega_c: float) -> float:
    """Inverse group delay |Omega_c|^2 / (2 gamma13 OD), rad/s; a linewidth scale."""
    if omega_c <= 0:
        raise ValueError("omega_c must be > 0")
    if medium.od <= 0:
        raise ValueError("medium.od must be > 0 for an EIT bandwidth scale")
    return omega_c ** 2 / (2.0 * medium.gamma13 * medium.od)


def eit_absorption_loss(medium: MediumConfig, omega_c: float) -> float:
    """Residual on-resonance field absorption exponent of the slow photon.

    alpha L = 2 OD gamma12 gamma13 / (|Omega_c|^2 + 4 gamma12 gamma13)

    This equals Im k1(0) * L; the on-resonance intensity transmission is
    exp(-2 alpha L).
    """
    if omega_c < 0:
        raise ValueError(f"omega_c must be >= 0, got {omega_c}")
    return (2.0 * medium.od * medium.gamma12 * medium.gamma13
            / (omega_c ** 2 + 4.0 * medium.gamma12 * medium.gamma13))


def gamma12_for_absorption(alpha_l: float, medium: MediumConfig,
                           omega_c: float) -> float:
    """Ground-state dephasing rate that yields a target absorption exponent.

    Closed-form inversion of :func:`eit_absorption_loss`:

        gamma12 = alpha_l |Omega_c|^2 / (gamma13 (2 OD - 4 alpha_l))

    Used to build configurations pinned to a quoted alpha L value.
    """
    if alpha_l < 0:
        raise ValueError(f"alpha_l must be >= 0, got {alpha_l}")
    if alpha_l >= medium.od / 2.0:
        raise ValueError(f"alpha_l must be < OD/2 = {medium.od / 2.0}")
    return alpha_l * omega_c ** 2 / (medium.gamma13 * (2.0 * medium.od - 4.0 * alpha_l))


def pt_mode_analysis(alpha: float, kappa: float) -> PTModeResult:
    """Eigenvalues of the two-mode coupling matrix [[-i a, -k], [-k, i a]].

    The matrix commutes with the combined parity-time operation; its
    eigenvalues are +/- sqrt(kappa^2 - alpha^2).  For kappa^2 > alpha^2 both
    are real (unbroken regime: the loss of one mode is compensated by the
    other), for kappa^2 < alpha^2 they are imaginary (broken regime), and at
    kappa^2 = alpha^2 they coalesce at zero (exceptional point).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    disc = kappa * kappa - alpha * alpha
    if disc > 0:
        lam = complex(np.sqrt(disc), 0.0)
        regime = PTRegime.UNBROKEN
    elif disc < 0:
        lam = complex(0.0, np.sqrt(-disc))
        regime = PTRegime.BROKEN
    else:
        lam = complex(0.0, 0.0)
        regime = PTRegime.EXCEPTIONAL
    return PTModeResult(eigenvalues=(lam, -lam), regime=regime)
