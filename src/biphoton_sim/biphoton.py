"""Two-photon joint amplitude of backward four-wave mixing in an EIT medium.

The central object is psi(tau), the amplitude for detecting the pair with
relative delay tau = t1 - t2.  Three evaluation routes are provided:

* :func:`psi_full` - the full detuning/position double integral with
  spatially varying drive beams and propagation phases,
* :func:`psi_uniform_spectrum` - the closed-form spectral integrand for
  uniform beams (phase-matching sinc times the parametric coupling),
* :func:`psi_analytic_rect` / :func:`psi_analytic_exp` - the group-delay
  limiting shapes (symmetric rectangle, one-sided exponential).

A single real ``scale`` multiplies the parametric coupling everywhere; the
absolute dipole prefactor is not derivable from the inputs, so waveform
shapes and widths are the meaningful outputs and absolute count levels are
calibrated externally.  A constant optical carrier phase common to all tau
is dropped from every route.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .dispersion import (
    eit_absorption_loss,
    eit_bandwidth_proxy,
    eit_denominator,
    group_delay_estimate,
    pair_wavenumbers,
)
from .grids import GridError, SpectralGrid, Waveform, spectrum_to_waveform
from .params import C_LIGHT, BeamField, DetectionConfig, GenerationMode, MediumConfig, beam_profile

_CHUNK_ELEMENTS = 2 ** 21  # 32 MiB of complex128 per working array


def _upper_dephasing(medium: MediumConfig, mode: GenerationMode) -> float:
    # The pump-coupled upper level is a distinct state only in the
    # nondegenerate scheme; the degenerate scheme reuses the EIT level.
    if mode is GenerationMode.NONDEGENERATE:
        return medium.gamma14
    return medium.gamma13


def _coupling(d_plus, d_minus, envelope, medium: MediumConfig, pump: BeamField,
              mode: GenerationMode, scale: float):
    """kappa from the EIT denominators D(+omega), D(-omega); see :func:`kappa`."""
    den1 = pump.detuning + 1j * _upper_dephasing(medium, mode)
    prefactor = -1j * (medium.omega0 / (2.0 * C_LIGHT)) * scale / den1
    return prefactor * envelope * (1.0 / d_plus + 1.0 / d_minus)


def kappa(omega, z: float, medium: MediumConfig, pump: BeamField,
          coupling: BeamField, mode: GenerationMode, scale: float = 1.0):
    """Parametric gain per unit length at detuning omega and position z.

    kappa = -i (omega0 / 2c) E_p(z) E_c(z) [chi3(omega) + chi3(-omega)],
    chi3(omega) = scale / ((Delta_p + i gamma_up) D(omega))

    with D the EIT denominator at the local coupling Rabi frequency
    Omega_c(z), gamma_up the dephasing of the pump-coupled upper level, and
    the field envelopes reduced to their normalized beam profiles (their peak
    values, the dipole matrix elements and the atomic density are absorbed by
    ``scale``; only relative values are meaningful).  The explicit
    symmetrization makes kappa(omega) = kappa(-omega) exact, including in
    floating point.
    """
    om = np.asarray(omega, dtype=float)
    gc = beam_profile(coupling, z, medium.theta)
    oc_sq = (coupling.peak_rabi * gc) ** 2
    value = _coupling(eit_denominator(om, oc_sq, medium),
                      eit_denominator(-om, oc_sq, medium),
                      beam_profile(pump, z, medium.theta) * gc,
                      medium, pump, mode, scale)
    if np.isscalar(omega):
        return complex(value)
    return value


# ---------------------------------------------------------------------------
# Carrier bookkeeping
# ---------------------------------------------------------------------------

def drive_carrier_offset(pump: BeamField, coupling: BeamField,
                         mode: GenerationMode) -> float:
    """Residual pump-coupling frequency offset driving the phase mismatch.

    Degenerate scheme: both photons share the carrier, so the counter-
    propagating drive fields leave a longitudinal wavevector residual
    (k_p - k_c) cos(theta); the frequency offset is taken as the configured
    pump-minus-coupling detuning (the ground-state hyperfine splitting for the
    standard configuration).  Nondegenerate scheme: the experiment aligns the
    geometry for exact carrier phase matching, so the residual is zero and
    only dispersive terms contribute.
    """
    if mode is GenerationMode.DEGENERATE:
        return pump.detuning - coupling.detuning
    return 0.0


def _residual_wavevector(medium: MediumConfig, pump: BeamField,
                         coupling: BeamField, mode: GenerationMode) -> float:
    """Longitudinal drive-field wavevector residual (k_p - k_c) cos(theta), 1/m."""
    return drive_carrier_offset(pump, coupling, mode) / C_LIGHT * np.cos(medium.theta)


def check_grid(grid: SpectralGrid, medium: MediumConfig, coupling: BeamField) -> None:
    """Reject grids that cannot resolve the transparency window.

    Requires the grid half-span to cover at least eight EIT linewidth proxies;
    a finer tau step (larger n_omega at fixed span) widens the grid.
    """
    proxy = eit_bandwidth_proxy(medium, coupling.peak_rabi)
    needed = 8.0 * proxy
    if grid.omega_max < needed:
        tau_span = 2.0 * np.pi / grid.d_omega
        n_min = needed * tau_span / np.pi
        n_pow2 = 1 << max(int(np.ceil(np.log2(n_min))), 1)
        raise GridError(
            f"grid half-span {grid.omega_max:.3e} rad/s is below 8 EIT linewidths "
            f"({needed:.3e} rad/s); increase n_omega to at least {n_pow2}",
            suggested_n_omega=n_pow2)


# ---------------------------------------------------------------------------
# Full double integral
# ---------------------------------------------------------------------------

def psi_full(grid: SpectralGrid, z_panels: int, medium: MediumConfig,
             pump: BeamField, coupling: BeamField, mode: GenerationMode,
             scale: float = 1.0, threads: int = 1) -> Waveform:
    """Joint amplitude from the full detuning/position double integral.

    For each detuning the position integral accumulates the parametric
    coupling with the propagation phases of both photons,

        S(omega) = int_{-L/2}^{L/2} dz kappa(omega, z)
                   e^{i int_z^{L/2} k1 dz'} e^{i int_{-L/2}^z k2 dz'}
                   e^{-i (k_c - k_p) z cos(theta)},

    evaluated with composite-Simpson weights over cumulative-trapezoid phase
    integrals on a shared z grid; the detuning integral
    (1/2pi) int d omega e^{-i omega tau} S(omega) is an FFT on the paired
    grids.  Results are deterministic and independent of ``threads``: the
    detuning axis is split into fixed-size chunks whose outputs land in
    disjoint slices.
    """
    if z_panels < 64:
        raise ValueError(f"z_panels must be >= 64, got {z_panels}")
    if z_panels % 2:
        raise ValueError(f"z_panels must be even for Simpson weights, got {z_panels}")
    check_grid(grid, medium, coupling)

    L = medium.length
    m = z_panels
    h = L / m
    z = (np.arange(m + 1) - m / 2.0) * h  # symmetric by construction
    simpson = np.ones(m + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0

    gp = beam_profile(pump, z, medium.theta)
    gc = beam_profile(coupling, z, medium.theta)
    oc_sq = (coupling.peak_rabi * gc) ** 2
    envelope = gp * gc
    delta0 = _residual_wavevector(medium, pump, coupling, mode)

    n = grid.n
    spectrum = np.empty(n, dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // (m + 1))

    def fill(start: int) -> None:
        om = grid.omega[start:start + chunk][:, None]
        d_plus = eit_denominator(om, oc_sq[None, :], medium)
        d_minus = eit_denominator(-om, oc_sq[None, :], medium)
        q1, q2 = pair_wavenumbers(om, d_plus, d_minus, medium, mode)
        kap = _coupling(d_plus, d_minus, envelope[None, :], medium, pump, mode, scale)
        del d_plus, d_minus  # free both before the phase stage's arrays exist
        inc1 = 0.5 * (q1[:, 1:] + q1[:, :-1]) * h
        inc2 = 0.5 * (q2[:, 1:] + q2[:, :-1]) * h
        cum1 = np.concatenate(
            [np.zeros((om.shape[0], 1), complex), np.cumsum(inc1, axis=1)], axis=1)
        cum2 = np.concatenate(
            [np.zeros((om.shape[0], 1), complex), np.cumsum(inc2, axis=1)], axis=1)
        phase = np.exp(1j * ((cum1[:, -1:] - cum1) + cum2 + z[None, :] * delta0))
        spectrum[start:start + chunk] = (kap * phase) @ simpson

    starts = range(0, n, chunk)
    if threads == 1:
        for s in starts:
            fill(s)
    else:
        workers = threads if threads > 0 else min(8, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))

    return spectrum_to_waveform(grid, spectrum)


# ---------------------------------------------------------------------------
# Uniform-beam closed form
# ---------------------------------------------------------------------------

def _complex_sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x for complex x, continuous at 0."""
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def psi_uniform_spectrum(grid: SpectralGrid, medium: MediumConfig,
                         pump: BeamField, coupling: BeamField,
                         mode: GenerationMode, scale: float = 1.0) -> np.ndarray:
    """Spectral amplitude kappa(omega) Phi(omega) L for uniform drive beams.

    Phi(omega) = sinc(Delta k L / 2) e^{i (k1 + k2) L / 2} is the longitudinal
    detuning function, with the phase mismatch carrying the residual
    pump-coupling wavevector offset.  With both envelopes flat the position
    integral collapses to this closed form; its transform through
    :func:`spectrum_to_waveform` agrees with :func:`psi_full` under flat
    profiles.  In the degenerate scheme the imaginary parts of k1 and k2
    cancel inside Delta k, so absorption enters only through the common
    e^{-alpha L} magnitude of Phi.
    """
    om = grid.omega
    d_plus = eit_denominator(om, coupling.peak_rabi ** 2, medium)
    d_minus = eit_denominator(-om, coupling.peak_rabi ** 2, medium)
    q1, q2 = pair_wavenumbers(om, d_plus, d_minus, medium, mode)
    kap = _coupling(d_plus, d_minus, 1.0, medium, pump, mode, scale)
    # z-phase coefficient; sinc is even in it
    mismatch = q2 - q1 + _residual_wavevector(medium, pump, coupling, mode)
    L = medium.length
    phi = _complex_sinc(mismatch * L / 2.0) * np.exp(1j * (q1 + q2) * L / 2.0)
    return kap * phi * L


# ---------------------------------------------------------------------------
# Group-delay analytic limits
# ---------------------------------------------------------------------------

def psi_analytic_rect(grid: SpectralGrid, medium: MediumConfig,
                      coupling: BeamField, mode: GenerationMode,
                      kappa0: complex, pump: BeamField | None = None) -> Waveform:
    """Group-delay-limit rectangle of the degenerate scheme.

    psi(tau) = |kappa0| L e^{-alpha L} on |tau| <= L/V_g, zero outside,
    times the residual linear phase e^{-i dk_cp V_g tau / 2} from the
    pump-coupling wavevector offset (zero when ``pump`` is omitted).  Both
    photons share the same absorption, so loss rescales the amplitude without
    touching the support: the coherence time is protected by the exchange
    symmetry of the pair.
    """
    if mode is not GenerationMode.DEGENERATE:
        raise ValueError("the rectangular limit applies to the degenerate scheme")
    delay = group_delay_estimate(medium, coupling.peak_rabi)
    vg = medium.length / delay
    alpha_l = eit_absorption_loss(medium, coupling.peak_rabi)
    tau = grid.tau
    box = (np.abs(tau) <= delay).astype(float)
    dk_cp = 0.0 if pump is None else _residual_wavevector(medium, pump, coupling, mode)
    amp = (abs(kappa0) * medium.length * np.exp(-alpha_l)
           * box * np.exp(-0.5j * dk_cp * vg * tau))
    return Waveform(tau=tau, amplitude=amp)


def psi_analytic_exp(alpha: float, vg: float, medium: MediumConfig,
                     grid: SpectralGrid) -> Waveform:
    """Loss-shortened one-sided exponential of the nondegenerate scheme.

    psi(tau) = e^{-alpha V_g tau} on 0 <= tau <= L/V_g, zero outside: only the
    slow photon is absorbed, so pairs born deeper in the medium (larger tau)
    are attenuated more and the intensity decays with constant 1/(2 alpha V_g).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if vg <= 0:
        raise ValueError(f"vg must be > 0, got {vg}")
    tau = grid.tau
    support = (tau >= 0.0) & (tau <= medium.length / vg)
    amp = np.where(support, np.exp(-alpha * vg * np.where(support, tau, 0.0)), 0.0)
    return Waveform(tau=tau, amplitude=amp.astype(complex))


def coincidence_counts(waveform: Waveform, det: DetectionConfig) -> np.ndarray:
    """Expected coincidence counts per time bin.

    CC(tau) = eta_d eta_c |psi(tau)|^2 dt_bin T_c + accidental floor.
    """
    signal = (det.duty_cycle * det.joint_efficiency * waveform.intensity
              * det.bin_width * det.collection_time)
    return signal + det.accidental_floor
