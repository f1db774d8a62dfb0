"""Mirror-exact frequency/time grids, the waveform on its grid, and CSV output."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .params import check_ranges
from .textfmt import format_rows


class GridError(ValueError):
    """Spectral grid cannot support the requested evaluation (Nyquist/span)."""


@dataclass(frozen=True)
class SpectralGrid:
    """Detuning grid of ``n`` points, a power of two, whose time axis spans ``tau_span`` s.

    ``omega[i] = (i - n/2) * d_omega`` with ``d_omega = 2 pi / tau_span``: an
    integer times the step, so ``omega[n/2]`` is 0 and ``omega[n - i]`` is
    ``-omega[i]`` exactly, by construction (:func:`~biphoton_sim.biphoton.psi_full`
    relies on it).  The time axis, step ``d_tau = 2 pi / (n * d_omega)``, is
    built the same way, which fixes the convention of :func:`spectrum_to_waveform`.
    Both axes are computed once and read-only; equality is that of (n, tau_span).
    """

    n: int
    tau_span: float  # s

    def __post_init__(self) -> None:
        check_ranges(self, n="a power of two >= 2", tau_span="finite and > 0")

    @property
    def d_omega(self) -> float:
        return 2.0 * math.pi / self.tau_span

    @property
    def d_tau(self) -> float:
        return 2.0 * math.pi / (self.n * self.d_omega)

    @property
    def omega_max(self) -> float:
        """Largest represented |omega| (half the grid span)."""
        return (self.n // 2) * self.d_omega

    @cached_property
    def omega(self) -> np.ndarray:
        return _centred_axis(self.n, self.d_omega)

    @cached_property
    def tau(self) -> np.ndarray:
        return _centred_axis(self.n, self.d_tau)


def _centred_axis(n: int, step: float) -> np.ndarray:
    axis = (np.arange(n) - n // 2) * step
    axis.flags.writeable = False
    return axis


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


def check_level(values: np.ndarray, label: str) -> None:
    """Raise GridError unless ``values``, named ``label``, are finite and peak at a normal double.

    Every waveform's |psi|^2 and counts pass here, so an input scale that
    overflows or underflows them cannot reach a CSV as inf or as a zero width.
    """
    check_finite(values, f"{label} is not finite")
    if not values.max() >= np.finfo(float).tiny:
        raise GridError(f"{label} peaks at {values.max():.3g}, below the smallest normal "
                        "double: some input underflows double precision")


def check_axis(name: str, axis, **traces) -> None:
    """Raise ValueError unless each of ``traces`` has the shape of ``axis``, named
    ``name``, and the axis holds at least two samples, finite and strictly increasing."""
    axis = np.asarray(axis, dtype=float)
    for label, trace in traces.items():
        if np.shape(trace) != axis.shape:
            raise ValueError(f"{label} and {name} must have the same shape")
    if axis.size < 2:
        raise ValueError("need at least two samples")
    if not (np.isfinite(axis[[0, -1]]).all() and (axis[1:] > axis[:-1]).all()):
        raise ValueError(f"{name} must be finite and strictly increasing")


@dataclass(frozen=True, eq=False)
class Waveform:
    """Relative-time joint amplitude psi(tau) on the time axis of ``grid``, equal only to itself."""

    grid: SpectralGrid
    amplitude: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.amplitude) != self.grid.n:
            raise ValueError(f"amplitude has {len(self.amplitude)} points, its grid {self.grid.n}")

    @property
    def tau(self) -> np.ndarray:
        return self.grid.tau

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
    psi = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(spectrum)))
    psi *= grid.d_omega / (2.0 * math.pi)
    return Waveform(grid, psi)


def csv_text(header: str, *columns) -> Iterator[bytes | bytearray]:
    """CSV text in ASCII blocks: the header line, then a row per index of the equal-length columns.

    Every value is written as ``'%.9g' % value`` would write it, byte for
    byte: nine significant digits, trailing zeros dropped, ``-0``, ``nan``
    and ``inf`` as such (see :mod:`biphoton_sim.textfmt`).  The rows are
    formatted as the blocks are read, so a caller that writes each block as
    it arrives never holds the whole text; the columns are held until then.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(column) for column in columns]}")
    return chain([f"{header}\n".encode("ascii")], format_rows(columns))


def waveform_csv_rows(wave: Waveform, cc_counts: np.ndarray) -> Iterator[bytes | bytearray]:
    """The waveform CSV in :func:`csv_text` blocks: tau_ns, re_psi, im_psi, abs2_psi, cc_counts."""
    return csv_text("tau_ns,re_psi,im_psi,abs2_psi,cc_counts", wave.tau * 1e9,
                    wave.amplitude.real, wave.amplitude.imag, wave.intensity, cc_counts)
