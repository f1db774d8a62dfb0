"""Linear response of the coupled atomic medium.

The EIT pole structure is written once, in :func:`eit_denominator`:

    D(omega; |Omega_c|^2) = |Omega_c|^2 - 4 (omega + i gamma13)(omega + i gamma12)

The linear susceptibility, the slow-photon wavenumber built on it, and the
parametric coupling kappa of :mod:`biphoton_sim.biphoton` all take the
reciprocal 1/D as an input, so both photons of a degenerate pair see one
medium:
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


def eit_denominator(omega, omega_c_sq, medium: MediumConfig, out=None):
    """EIT denominator D = |Omega_c|^2 - 4 (omega + i gamma13)(omega + i gamma12).

    Shared by the linear and third-order responses (Du, Wen & Rubin, JOSA B
    25, C98, 2008), which both take its reciprocal 1/D.  With |Omega_c|^2
    real, D(-omega) = D(omega)*, so one reciprocal serves +omega and -omega:
    every caller forms it once and hands the same array to the
    susceptibility, both wavenumbers and kappa.  ``omega_c_sq`` is the
    local squared coupling Rabi frequency and may carry a z axis that
    broadcasts against ``omega``; ``out`` receives D.  D cannot vanish for
    real omega when gamma13 > 0; for vanishing dephasing its zeros
    omega = +/- Omega_c/2 are the two dressed-state resonances.
    """
    return np.subtract(omega_c_sq,
                       4.0 * (omega + 1j * medium.gamma13) * (omega + 1j * medium.gamma12),
                       out=out)


def _susceptibility(omega, recip, medium: MediumConfig, re, im, tmp):
    """chi = 4 beta (omega + i gamma12) / D into the real arrays ``re``, ``im``.

    ``recip`` is 1/D.  Real products and sums only, each correctly rounded,
    so an element's bits do not depend on the array around it; ``tmp`` is
    overwritten.
    """
    b4 = 4.0 * density_prefactor(medium)
    p_re, p_im = b4 * omega, b4 * medium.gamma12
    np.multiply(recip.real, p_re, out=re)
    np.multiply(recip.imag, p_im, out=tmp)
    np.subtract(re, tmp, out=re)
    np.multiply(recip.imag, p_re, out=im)
    np.multiply(recip.real, p_im, out=tmp)
    np.add(im, tmp, out=im)
    return re, im


def _real_scratch(count: int, shape) -> list:
    block = np.empty((count, *shape))
    return [block[i, ...] for i in range(count)]  # 0-d views, not scalars


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
    recip = 1.0 / eit_denominator(om, omega_c_local ** 2, medium)
    re, im = _susceptibility(om, recip, medium, *_real_scratch(3, om.shape))
    chi = re + 1j * im
    if np.isscalar(omega):
        return complex(chi)
    return chi


def _slow_wavenumber(omega, x, y, medium: MediumConfig, out, tmp):
    """Carrier-subtracted wavenumber of the slow photon, q = k1 - omega0/c.

    k1(omega) = (omega0 + omega)/c sqrt(1 + chi), principal branch, with
    chi = x + i y from :func:`_susceptibility`.  Subtracting omega0/c from
    k1 would cancel all but a few digits of q (|chi| is 1e-7 at the grid
    edges), so the subtraction is done exactly instead: with

        u = |1 + chi|^2 - 1 = x (2 + x) + y^2,   r = sqrt(1 + u),
        v = a^2 - 1 = (u / (r + 1) + x) / 2,     a = Re sqrt(1 + chi) = sqrt(1 + v),

    q = (omega0 + omega)/c (v / (a + 1) + i y / (2 a)) + omega/c.

    Only real +, -, *, / and sqrt, each correctly rounded, so an element's
    bits do not depend on the array, chunk or thread that holds it.  ``x``
    and ``y`` are only read; ``out`` (complex, allocated when None) receives
    q and ``tmp`` holds two real scratch arrays.
    """
    if out is None:
        out = np.empty(np.shape(x), complex)
    t, s = tmp
    np.add(x, 2.0, out=t)
    np.multiply(t, x, out=t)
    np.multiply(y, y, out=s)
    np.add(t, s, out=t)           # u
    np.add(t, 1.0, out=s)
    np.sqrt(s, out=s)
    np.add(s, 1.0, out=s)         # r + 1
    np.divide(t, s, out=t)
    np.add(t, x, out=t)
    np.multiply(t, 0.5, out=t)    # v
    np.add(t, 1.0, out=s)
    np.sqrt(s, out=s)             # a
    k = (medium.omega0 + omega) / C_LIGHT
    np.divide(y, s, out=out.imag)
    np.multiply(out.imag, 0.5 * k, out=out.imag)
    np.add(s, 1.0, out=s)
    np.divide(t, s, out=t)        # v / (a + 1)
    np.multiply(t, k, out=out.real)
    np.add(out.real, omega / C_LIGHT, out=out.real)
    return out


def pair_wavenumbers(omega, recip, medium: MediumConfig, mode: GenerationMode,
                     out=(None, None), scratch=None):
    """Carrier-subtracted wavenumbers q1(omega), q2(omega) of the pair.

    ``recip`` is the reciprocal 1/D(omega).  Photon 1 always propagates
    through the EIT medium.  Degenerate scheme: photon 2 is its detuning
    mirror, q2(omega) = q1(-omega).  |Omega_c|^2 is real, so
    D(-omega) = D(omega)* and chi(-omega) = -chi(omega)*: q2 comes from the
    same susceptibility with its real part negated, which equals chi
    evaluated at -omega bit for bit (up to the sign of a zero), so the
    identity is exact on mirrored grids.  Nondegenerate scheme: the far-detuned partner
    propagates dispersion-free and lossless, q2(omega) = -omega/c, a
    broadcast view.  ``out`` holds the arrays for q1 and q2 and ``scratch``
    four real arrays of their shape stacked on a leading axis; both are
    allocated when not given.
    """
    om = np.asarray(omega, dtype=float)
    shape = np.broadcast_shapes(om.shape, np.shape(recip))
    x, y, t, s = _real_scratch(4, shape) if scratch is None else scratch
    _susceptibility(om, recip, medium, x, y, t)
    q1 = _slow_wavenumber(om, x, y, medium, out[0], (t, s))
    if mode is GenerationMode.DEGENERATE:
        np.negative(x, out=x)
        return q1, _slow_wavenumber(-om, x, y, medium, out[1], (t, s))
    return q1, np.broadcast_to(-om / C_LIGHT + 0j, shape)


def _slow_wavenumber_at(omega, omega_c: float, medium: MediumConfig):
    # photon 1's q; the nondegenerate partner's is a view that costs nothing
    om = np.asarray(omega, dtype=float)
    recip = 1.0 / eit_denominator(om, omega_c ** 2, medium)
    return pair_wavenumbers(om, recip, medium, GenerationMode.NONDEGENERATE)[0]


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
