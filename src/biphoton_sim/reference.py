"""Slow reference evaluation of the joint amplitude, used as a numerical oracle.

Everything here is written independently of the production path in
:mod:`biphoton_sim.biphoton`: the susceptibility and coupling formulas are
spelled out inline, the position integrals use plain trapezoids (outer and
cumulative), and the time-domain transform is a literal discrete sum of
(1/2pi) d omega e^{-i omega tau} S(omega).  It is O(n_omega * n_z) per
spectral point plus O(n_omega^2) for the transform, so keep the grids small.
Both run over blocks of ``BLOCK_ROWS`` detuning or tau rows at a time: a
larger block holds more memory and gains little.
"""

from __future__ import annotations

import numpy as np

from .grids import SpectralGrid, Waveform
from .params import C_LIGHT, BeamField, CouplingField, GenerationMode, MediumConfig

BLOCK_ROWS = 16


def psi_reference(grid: SpectralGrid, z_points: int, medium: MediumConfig,
                  pump: BeamField, coupling: CouplingField, mode: GenerationMode,
                  scale: float = 1.0) -> Waveform:
    """Trapezoid/direct-sum evaluation of the same double integral as psi_full."""
    L = medium.length
    z = np.linspace(-L / 2.0, L / 2.0, z_points)
    h = z[1] - z[0]
    sin_t = np.sin(medium.theta)
    g_p = np.exp(-((z * sin_t / pump.waist) ** 2))
    g_c = np.exp(-((z * sin_t / coupling.waist) ** 2))
    oc = coupling.peak_rabi * g_c

    k0 = 2.0 * np.pi / medium.lambda0
    w0 = 2.0 * np.pi * C_LIGHT / medium.lambda0
    beta = medium.od * medium.gamma13 / (k0 * L)
    g12, g13 = medium.gamma12, medium.gamma13
    g_up = medium.gamma14 if mode is GenerationMode.NONDEGENERATE else medium.gamma13

    if mode is GenerationMode.DEGENERATE:
        offset = pump.detuning - coupling.detuning
    else:
        offset = 0.0
    delta0 = offset / C_LIGHT * np.cos(medium.theta)

    def chi(om: np.ndarray) -> np.ndarray:
        return (4.0 * beta * (om + 1j * g12)
                / (oc ** 2 - 4.0 * (om + 1j * g13) * (om + 1j * g12)))

    def q_slow(om: np.ndarray) -> np.ndarray:
        return (w0 + om) / C_LIGHT * np.sqrt(1.0 + chi(om)) - w0 / C_LIGHT

    def cumtrapz(vals: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vals)
        out[:, 1:] = np.cumsum(0.5 * (vals[:, 1:] + vals[:, :-1]) * h, axis=1)
        return out

    trap_w = np.full(z_points, h)
    trap_w[0] = trap_w[-1] = h / 2.0

    spectrum = np.empty(grid.n, dtype=complex)
    for lo in range(0, grid.n, BLOCK_ROWS):
        om = grid.omega[lo:lo + BLOCK_ROWS, None]
        q1 = q_slow(om)
        if mode is GenerationMode.DEGENERATE:
            q2 = q_slow(-om)
        else:
            q2 = np.broadcast_to(-om / C_LIGHT + 0j, q1.shape)
        acc1 = cumtrapz(q1)
        acc2 = cumtrapz(q2)
        phase = np.exp(1j * ((acc1[:, -1:] - acc1) + acc2 + z * delta0))
        d_plus = oc ** 2 - 4.0 * (om + 1j * g13) * (om + 1j * g12)
        d_minus = oc ** 2 - 4.0 * (-om + 1j * g13) * (-om + 1j * g12)
        chi3_sym = (1.0 / d_plus + 1.0 / d_minus) / (pump.detuning + 1j * g_up)
        kap = -1j * (w0 / (2.0 * C_LIGHT)) * scale * g_p * g_c * chi3_sym
        spectrum[lo:lo + BLOCK_ROWS] = np.sum(trap_w * kap * phase, axis=1)

    psi = np.empty(grid.n, dtype=complex)
    for lo in range(0, grid.n, BLOCK_ROWS):
        psi[lo:lo + BLOCK_ROWS] = np.exp(-1j * grid.tau[lo:lo + BLOCK_ROWS, None]
                                         * grid.omega) @ spectrum
    psi *= grid.d_omega / (2.0 * np.pi)
    return Waveform(grid, psi)
