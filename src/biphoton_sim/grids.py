"""Paired frequency/time grids, the waveform container, and CSV output."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# largest detuning grid a configuration may ask for
MAX_N_OMEGA = 2 ** 20


class GridError(ValueError):
    """Spectral grid cannot support the requested evaluation (Nyquist/span)."""


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform detuning grid, symmetric about zero, length a power of two.

    ``omega[i] = (i - n/2) * d_omega``, so every positive frequency has its
    exact mirror on the grid (the single extreme negative point excepted);
    :func:`biphoton_sim.biphoton.psi_full` relies on it.  The
    conjugate time grid has step ``d_tau = 2 pi / (n * d_omega)`` and is built
    the same way, which fixes the transform convention of
    :func:`spectrum_to_waveform`.
    """

    omega: np.ndarray = field(repr=False)
    d_omega: float

    def __post_init__(self) -> None:
        n = len(self.omega)
        if n < 2 or n & (n - 1) != 0:
            raise ValueError(f"grid length must be a power of two, got {n}")
        steps = np.diff(self.omega)
        if not np.allclose(steps, self.d_omega, rtol=1e-9, atol=0.0):
            raise ValueError("grid spacing is not uniform")
        if self.omega[n // 2] != 0.0:
            raise ValueError("grid must contain omega = 0 at index n/2")
        if not np.array_equal(self.omega[:0:-1], -self.omega[1:]):
            raise ValueError("grid must be mirror-symmetric: omega[n - i] == -omega[i]")

    @classmethod
    def from_numerics(cls, n_omega: int, tau_span: float) -> "SpectralGrid":
        """Build the grid whose conjugate time axis spans ``tau_span`` seconds."""
        if tau_span <= 0:  # __post_init__ checks n_omega, but would pass a negative span
            raise ValueError(f"tau_span must be > 0, got {tau_span}")
        d_omega = 2.0 * math.pi / tau_span
        idx = np.arange(n_omega) - n_omega // 2
        return cls(omega=idx * d_omega, d_omega=d_omega)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def d_tau(self) -> float:
        return 2.0 * math.pi / (self.n * self.d_omega)

    @property
    def omega_max(self) -> float:
        """Largest represented |omega| (half the grid span)."""
        return (self.n // 2) * self.d_omega

    @property
    def tau(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.d_tau


def check_finite(values: np.ndarray, label: str, axis: str = "tau") -> None:
    """Raise GridError if any of ``values``, sampled along ``axis``, is not finite.

    Every waveform and transmission spectrum passes here before an output is
    derived from it, so an input that overflows double precision cannot reach
    a CSV as nan or as a zero width.  ``label`` says what gave the values.
    """
    finite = np.isfinite(values)
    if not finite.all():
        n = len(finite)
        raise GridError(f"{label} at {n - np.count_nonzero(finite)} of {n} {axis} points: "
                        "some input overflows double precision")


@dataclass(frozen=True)
class Waveform:
    """Relative-time joint amplitude psi(tau) on a uniform time grid."""

    tau: np.ndarray = field(repr=False)
    amplitude: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.tau) != len(self.amplitude):
            raise ValueError("tau and amplitude must have equal length")
        steps = np.diff(self.tau)
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("tau grid is not uniform")

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def spectrum_to_waveform(grid: SpectralGrid, spectrum: np.ndarray) -> Waveform:
    """Transform a detuning-domain amplitude to the relative-time domain.

    Realizes psi(tau) = (1/2pi) * integral d omega e^{-i omega tau} S(omega)
    on the paired grids:

        psi[m] = (d_omega / 2pi) * sum_n S[n] exp(-i omega[n] tau[m])

    computed as a forward FFT with fftshift bookkeeping.  With this
    normalization Parseval's identity holds exactly:
    sum |psi|^2 d_tau = (1/2pi) sum |S|^2 d_omega.
    """
    if len(spectrum) != grid.n:
        raise ValueError("spectrum length does not match grid")
    shifted = np.fft.ifftshift(spectrum)
    psi = np.fft.fftshift(np.fft.fft(shifted)) * (grid.d_omega / (2.0 * math.pi))
    return Waveform(tau=grid.tau, amplitude=psi)


# rows per formatting pass: few enough that the temporary Python floats of a
# pass stay small next to the text itself
_CSV_BLOCK_ROWS = 1024


def csv_text(header: str, *columns) -> str:
    """CSV text: the header line, then one row per index of the equal-length columns.

    Every value is written with ``%.9g`` (nine significant digits, ``nan``
    and ``inf`` as such), one ``%`` pass over a row template per block of rows.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.9g"] * len(columns)) + "\n"
    parts = [header + "\n"]
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def waveform_csv_rows(wave: Waveform, cc_counts: np.ndarray) -> str:
    """The waveform CSV text: tau_ns, re_psi, im_psi, abs2_psi, cc_counts."""
    if len(cc_counts) != len(wave.tau):
        raise ValueError("cc_counts length does not match waveform")
    return csv_text("tau_ns,re_psi,im_psi,abs2_psi,cc_counts", wave.tau * 1e9,
                    wave.amplitude.real, wave.amplitude.imag, wave.intensity, cc_counts)
