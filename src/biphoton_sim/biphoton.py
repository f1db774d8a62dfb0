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

import math
import os
import queue
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

# complex128 elements (1 MiB) per full-z working array of one psi_full chunk;
# chunks are counted in row pairs, two full-z rows each (one in the
# degenerate scheme), so that no working array grows past this and a worker's
# arrays stay cache-sized
_CHUNK_ELEMENTS = 2 ** 16
# With several workers each chunk holds this many times as many elements.
# Every numpy call of a chunk hands the GIL from one worker to the other, and
# a worker that has to wait for it leaves its core idle for a busy VM host to
# give away: on a shared 2-core VM, fig5 at 2 threads lost three to four
# times as much CPU time to the host as two single-threaded processes, and
# its wall time varied accordingly.  Chunks 4x larger cut the waits from
# about 530 to 90 per call, at the same speed.
_SHARED_CHUNK_FACTOR = 4


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


def _next_pow2(x: float) -> int:
    return 1 << max(int(np.ceil(np.log2(x))), 1)


def check_grid(grid: SpectralGrid, medium: MediumConfig, coupling: BeamField) -> None:
    """Reject grids that cannot resolve the transparency window or hold the waveform.

    Requires the grid half-span to cover at least eight EIT linewidth proxies
    (a finer tau step, i.e. larger n_omega at fixed span, widens the grid),
    and the tau window 2 pi / d_omega to span at least four group delays, so
    the group-delay support |tau| <= L/V_g cannot wrap around the periodic
    window of the FFT.
    """
    proxy = eit_bandwidth_proxy(medium, coupling.peak_rabi)
    needed = 8.0 * proxy
    tau_span = 2.0 * np.pi / grid.d_omega
    if grid.omega_max < needed:
        n_pow2 = _next_pow2(needed * tau_span / np.pi)
        raise GridError(
            f"grid half-span {grid.omega_max:.3e} rad/s is below 8 EIT linewidths "
            f"({needed:.3e} rad/s); increase n_omega to at least {n_pow2}",
            suggested_n_omega=n_pow2)
    span_needed = 4.0 * group_delay_estimate(medium, coupling.peak_rabi)
    if tau_span < span_needed:
        span_ns = math.ceil(span_needed * 1e9)
        n_pow2 = _next_pow2(grid.n * span_ns * 1e-9 / tau_span)
        raise GridError(
            f"tau window {tau_span * 1e9:.6g} ns is below 4 group delays "
            f"({span_needed * 1e9:.6g} ns); increase numerics.tau_span_ns to at least "
            f"{span_ns} and n_omega to at least {n_pow2} to keep the detuning span",
            suggested_n_omega=n_pow2)


# ---------------------------------------------------------------------------
# Full double integral
# ---------------------------------------------------------------------------

def _cumulative_trapezoid(q_half: np.ndarray, h: float, out: np.ndarray) -> None:
    """Running trapezoid integral from z = -L/2 of rows that are even in z.

    ``q_half`` holds the rows on the z >= 0 nodes; the increments of an even
    row are mirror images, so only the z >= 0 ones are formed, and mirrored.
    ``out`` receives the increments and then, summed in place, the integral
    on every node of the full grid.
    """
    inc = out[:, 1:]
    right = inc[:, inc.shape[1] // 2:]
    np.add(q_half[:, 1:], q_half[:, :-1], out=right)
    np.multiply(0.5, right, out=right)
    np.multiply(right, h, out=right)
    inc[:, :right.shape[1]] = right[:, ::-1]
    out[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=inc)


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
    grids.

    The integrand is built from its two mirror symmetries.  The z grid,
    Omega_c^2(z) and the drive envelope are exact mirrors about z = 0, so
    D(+omega), D(-omega), the wavenumbers and kappa are evaluated on the
    z >= 0 columns only and reflected.  Grid rows i and n - i hold +omega and
    -omega (row n/2 is omega = 0, row 0 has no mirror on the grid): one pair
    of EIT denominators feeds both rows and kappa is even in omega.

    In the degenerate scheme the -omega row sees the +omega row's photons
    exchanged.  Both wavenumbers are even in z, so its phase argument is the
    +omega row's reflected in z plus 2 z delta0, and since kappa and the
    Simpson weights are even in z,

        S(-omega) = sum_z w(z) kappa(omega, z) e^{i arg(omega, z)} e^{-2 i z delta0}:

    the +omega row's finished kappa-phase block summed with a second weight
    vector.  Only rows 0 .. n/2 form phase factors; they equal the direct
    per-row evaluation bit for bit, while rows n/2+1 .. n-1 follow from the
    identity, exact in real arithmetic, and differ from the direct
    evaluation in the last bits (about 2e-15 of max|S| on the presets).  In
    the nondegenerate scheme q1(-omega) is not tied to q1(omega), so the
    -omega rows get their own photon-1 wavenumbers; q2 = -omega/c is odd in
    omega, so their photon-2 phase is the +omega row's negated.  Every
    nondegenerate value equals the direct per-row evaluation bit for bit.

    The row pairs are split into fixed-size chunks of about
    ``_CHUNK_ELEMENTS`` cells per full-z array (``_SHARED_CHUNK_FACTOR``
    times as many when several workers share them; the degenerate scheme
    fills only the +omega half), which the workers claim one at a time.
    Each worker allocates its two full-z working arrays once; a chunk forms
    its increments and cumulative phases in them, turns those into the phase
    factors in place and multiplies kappa into its two z halves there.  No
    chunk allocates a full-z array, so the working set stays small and no
    chunk faults in fresh pages.  Results are deterministic and independent
    of ``threads``: every chunk is evaluated the same way whichever worker
    runs it, whatever its size, and its outputs land in a disjoint slice of
    the spectrum.
    """
    if z_panels < 64:
        raise ValueError(f"z_panels must be >= 64, got {z_panels}")
    if z_panels % 2:
        raise ValueError(f"z_panels must be even for Simpson weights, got {z_panels}")
    check_grid(grid, medium, coupling)

    L = medium.length
    m = z_panels
    mh = m // 2
    h = L / m
    z = (np.arange(m + 1) - m / 2.0) * h  # symmetric by construction
    simpson = np.ones(m + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0

    z_half = z[mh:]
    gp = beam_profile(pump, z_half, medium.theta)
    gc = beam_profile(coupling, z_half, medium.theta)
    oc_sq = (coupling.peak_rabi * gc) ** 2
    envelope = gp * gc
    z_phase = z * _residual_wavevector(medium, pump, coupling, mode)

    n = grid.n
    half = n // 2
    spectrum = np.empty(n, dtype=complex)
    degenerate = mode is GenerationMode.DEGENERATE
    if degenerate:
        # the -omega row's integrand is the +omega row's reflected in z times
        # e^{2 i z delta0}, and kappa and the Simpson weights are even in z
        w_minus = simpson * np.exp(-2j * z_phase)
    # Representative rows: 0 and n/2 stand only for themselves and come first,
    # so they share the first chunk; row i in 1 .. n/2-1 also stands for row
    # n - i.
    reps = np.r_[0, half, 1:half]
    workers = threads if threads > 0 else min(8, os.cpu_count() or 1)
    cells = _CHUNK_ELEMENTS * (_SHARED_CHUNK_FACTOR if workers > 1 else 1)
    # At least two representatives per chunk, and a one-row tail joins the
    # chunk before it: a one-row block would take a different BLAS path in
    # the final matvecs and change the result bits.
    chunk = max(2, cells // (2 * (m + 1)))
    bounds = list(range(0, len(reps), chunk)) + [len(reps)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    spans = list(zip(bounds[:-1], bounds[1:]))

    def run_chunks(claimed) -> None:
        # the worker's full-z working arrays, sized for the largest chunk; the
        # degenerate -omega rows need none
        rows = max(stop - start for start, stop in spans) * (1 if degenerate else 2)
        work = np.empty((2, rows, m + 1), complex)
        # The chunk body stays inline: a chunk's z >= 0 arrays stay bound until
        # the next chunk rebinds their names, so they are freed inside the heap
        # and reused.  Freed on return from a per-chunk function, they left
        # the heap top free, the allocator gave it back to the system and every
        # chunk faulted it in again (fig3d: 78k minor faults instead of 2.1k).
        for start, stop in claimed:
            idx = reps[start:stop]
            k = len(idx)
            lo = 2 if start == 0 else 0  # leading rows without a mirror
            om = grid.omega[idx][:, None]
            d_plus = eit_denominator(om, oc_sq, medium)
            d_minus = eit_denominator(-om, oc_sq, medium)
            q1, q2 = pair_wavenumbers(om, d_plus, d_minus, medium, mode)
            kap = _coupling(d_plus, d_minus, envelope, medium, pump, mode, scale)
            if degenerate:
                cum1, cum2 = work[:, :k]
                _cumulative_trapezoid(q1, h, cum1)
                _cumulative_trapezoid(q2, h, cum2)
                blocks = ((cum2, kap),)
            else:
                # q1(-omega) is not tied to q1(omega): the -omega rows get
                # their own wavenumbers; q2 = -omega/c is odd
                cum1, cum2 = work[:, :2 * k - lo]
                _cumulative_trapezoid(q1, h, cum1[:k])
                _cumulative_trapezoid(q2, h, cum2[:k])
                q1, _ = pair_wavenumbers(-om[lo:], d_minus[lo:], d_plus[lo:], medium, mode)
                _cumulative_trapezoid(q1, h, cum1[k:])
                np.negative(cum2[lo:k], out=cum2[k:])
                blocks = ((cum2[:k], kap), (cum2[k:], kap[lo:]))
            # the phase argument, its exp and the product with kappa round as
            # kappa * exp(1j * (cum1[-1] - cum1 + cum2 + z delta0)); delta0 is
            # zero in the nondegenerate scheme
            np.subtract(cum1[:, -1:], cum1, out=cum1)
            np.add(cum1, cum2, out=cum1)
            if degenerate:
                np.add(cum1, z_phase, out=cum1)
            np.multiply(1j, cum1, out=cum1)
            np.exp(cum1, out=cum2)
            # kappa is even in z and in omega
            for phase, kap_rows in blocks:
                np.multiply(kap_rows, phase[:, mh:], out=phase[:, mh:])
                np.multiply(kap_rows[:, :0:-1], phase[:, :mh], out=phase[:, :mh])
            if degenerate:
                # two matvecs over the same k rows: a two-column matmul, or a
                # mirror matvec over only the k - lo mirrored rows (one row in
                # a first chunk of three), may take another BLAS path and
                # change the bits
                spectrum[idx] = cum2 @ simpson
                spectrum[n - idx[lo:]] = (cum2 @ w_minus)[lo:]
            else:
                spectrum[np.concatenate([idx, n - idx[lo:]])] = cum2 @ simpson

    workers = min(workers, len(spans))
    # one worker (threads == 1, or one chunk) runs in the calling thread:
    # a worker thread would only add its stack and its own malloc arena
    if workers == 1:
        run_chunks(spans)
    else:
        # Workers claim chunks one at a time from a shared queue, so a worker
        # on a core the host is slowing takes fewer of them.  With one fixed
        # span per worker the call waited for the slowest core: fig5 at 2
        # threads, one worker's core shared with a busy process, took 0.98 s
        # a call instead of 0.75 s.
        claims = queue.SimpleQueue()
        for span in [*spans, *[None] * workers]:  # one end mark per worker
            claims.put(span)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunks, [iter(claims.get, None) for _ in range(workers)]))

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
