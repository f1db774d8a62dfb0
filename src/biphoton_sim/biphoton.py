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

from .config import ConfigError
from .dispersion import (
    eit_absorption_loss,
    eit_bandwidth_proxy,
    eit_denominator,
    group_delay_estimate,
    slow_wavenumbers,
)
from .grids import MAX_N_OMEGA, GridError, SpectralGrid, Waveform, spectrum_to_waveform
from .params import C_LIGHT, BeamField, DetectionConfig, GenerationMode, MediumConfig, beam_profile

# complex128 elements (1 MiB) in the full-z working array of one psi_full
# chunk; chunks are counted in row pairs, two full-z rows each (one in the
# degenerate scheme), so that a worker's one working array stays cache-sized
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


def _partner_wavenumber(q_mirror, omega, mode: GenerationMode):
    """Photon 2's carrier-subtracted q2(omega), partner of the slow photon 1.

    Degenerate: the slow photon at -omega, ``q_mirror``.  Nondegenerate: a
    dispersion-free, lossless vacuum photon, -omega/c, in ``q_mirror``'s shape.
    """
    if mode is GenerationMode.DEGENERATE:
        return q_mirror
    return np.broadcast_to(-omega / C_LIGHT + 0j, np.shape(q_mirror))


def _coupling(recip, envelope, medium: MediumConfig, pump: BeamField,
              mode: GenerationMode, scale: float, out=None):
    """kappa from the reciprocal 1/D(omega); see :func:`kappa`.

    D(-omega) = D(omega)*, so the symmetrized 1/D(omega) + 1/D(-omega) is
    2 Re(1/D(omega)), bit for bit: the reciprocal that feeds the
    wavenumbers serves kappa too, and no denominator is divided twice.
    ``out`` receives kappa and must not overlap ``recip``.
    """
    den1 = pump.detuning + 1j * _upper_dephasing(medium, mode)
    prefactor = -1j * (medium.omega0 / (2.0 * C_LIGHT)) * scale / den1
    return np.multiply(2.0 * prefactor * envelope, recip.real, out=out)


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
    value = _coupling(1.0 / eit_denominator(om, oc_sq, medium),
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
    """Reject runs whose waveform has no time scale, or a grid that cannot hold it.

    Every waveform passes here.  Its time scale is the group delay
    2 gamma13 OD / |Omega_c|^2 and its grid's the inverse, the EIT linewidth,
    so both the coupling and the OD must be > 0 (:class:`ConfigError`; the
    parser has bounded both scales to the float range).  Then the grid
    half-span must cover at least eight EIT linewidth proxies
    (a finer tau step, i.e. larger n_omega at fixed span, widens the grid),
    and the tau window 2 pi / d_omega to span at least four group delays, so
    the group-delay support |tau| <= L/V_g cannot wrap around the periodic
    window of the FFT.  The message suggests the grid that would pass; when
    that grid needs more than ``MAX_N_OMEGA`` points, which no configuration
    may ask for, it says so instead and names the coupling Rabi frequency
    and the OD, whose ratio |Omega_c|^2 / OD sets both the linewidth and the
    group delay.
    """
    for value, where in ((coupling.peak_rabi, "coupling.peak_rabi_mhz"), (medium.od, "medium.od")):
        if value <= 0:
            raise ConfigError("must be > 0 for a waveform, whose time scale is the group delay "
                              f"2 gamma13 OD / |Omega_c|^2, got {value:g}", where)
    proxy = eit_bandwidth_proxy(medium, coupling.peak_rabi)
    needed = 8.0 * proxy
    tau_span = 2.0 * np.pi / grid.d_omega
    if grid.omega_max < needed:
        # unrounded first: at a vanishing OD the linewidth passes the float range
        _check_admissible(needed * tau_span / np.pi, "tau span", medium, coupling)
        n_pow2 = _next_pow2(needed * tau_span / np.pi)
        raise GridError(
            f"grid half-span {grid.omega_max:.3e} rad/s is below 8 EIT linewidths "
            f"({needed:.3e} rad/s); increase n_omega to at least {n_pow2}",
            suggested_n_omega=n_pow2)
    span_needed = 4.0 * group_delay_estimate(medium, coupling.peak_rabi)
    if tau_span < span_needed:
        # unrounded first: for a weak coupling n_omega * span in ns passes the float range
        _check_admissible(grid.n * (span_needed / tau_span), "tau step", medium, coupling)
        span_ns = math.ceil(span_needed * 1e9)
        n_pow2 = _next_pow2(grid.n * span_ns * 1e-9 / tau_span)
        _check_admissible(n_pow2, "tau step", medium, coupling)
        raise GridError(
            f"tau window {tau_span * 1e9:.6g} ns is below 4 group delays "
            f"({span_needed * 1e9:.6g} ns); increase numerics.tau_span_ns to at least "
            f"{span_ns} and n_omega to at least {n_pow2} to keep the detuning span",
            suggested_n_omega=n_pow2)


def _check_admissible(n_omega: float, kept: str, medium: MediumConfig,
                      coupling: BeamField) -> None:
    if n_omega > MAX_N_OMEGA:
        raise GridError(
            f"no admissible grid resolves this run: at its {kept} it needs n_omega of about "
            f"2^{math.ceil(min(math.log2(n_omega), 1024.0))}, above the largest accepted 2^20; the "
            f"coupling Rabi frequency {coupling.peak_rabi / (2e6 * math.pi):.6g} MHz "
            f"(coupling power {coupling.power * 1e3:.6g} mW) sets this scale, with the "
            f"optical depth {medium.od:.6g}")


# ---------------------------------------------------------------------------
# Full double integral
# ---------------------------------------------------------------------------

def _phase_factors(q1: np.ndarray, q2: np.ndarray, h: float, delta0: float,
                   z0: float, factors: np.ndarray, out: np.ndarray) -> None:
    """Propagation phase factors e^{i arg(z)} on every node of the full z grid.

    arg(z) = int_z^{L/2} q1 + int_{-L/2}^z q2 + z delta0, both integrals
    cumulative trapezoids.  ``q1`` and ``q2`` hold rows that are even in z,
    on the z >= 0 nodes, so the increment of arg over a panel,
    h/2 (q2 - q1 at its two nodes, summed) + h delta0, is the same on a
    panel and on its mirror.  Only the z >= 0 increments are exponentiated,
    with one anchor per row, e^{i arg(z0)}, where z0 = -L/2 and
    arg(z0) = int q1 + z0 delta0, into the C-contiguous ``factors`` (shaped
    like ``q1``); ``out`` receives the anchor times the running product of
    the mirrored factors.  ``q1`` is overwritten.  Every numpy call here
    runs on whole contiguous arrays or reads one array and writes another,
    so none of them needs a temporary copy.
    """
    mh = q1.shape[1] - 1
    # photon 1's whole trapezoid integral: the two half integrals are equal
    anchor = 1j * (h * (2.0 * q1.sum(axis=1) - q1[:, 0] - q1[:, -1]) + z0 * delta0)
    np.subtract(q2, q1, out=q1)
    if delta0:
        np.add(q1, delta0, out=q1)
    # the node pair sums of all rows in one pass; the sum across a row
    # boundary lands in column 0, which the anchor takes
    flat, diff = factors.reshape(-1), q1.reshape(-1)
    np.add(diff[1:], diff[:-1], out=flat[1:])
    np.multiply(flat[1:], 0.5j * h, out=flat[1:])
    factors[:, 0] = anchor
    np.exp(factors, out=factors)
    out[:, 0] = factors[:, 0]
    out[:, 1:mh + 1] = factors[:, :0:-1]
    out[:, mh + 1:] = factors[:, 1:]
    np.cumprod(out, axis=1, out=out)


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

    The integrand is built from its mirror symmetries.  The z grid,
    Omega_c^2(z) and the drive envelope are exact mirrors about z = 0, so
    1/D(omega), the wavenumbers and kappa are evaluated on the z >= 0
    columns only and reflected.  Rows 0 .. n/2 are evaluated, each with its
    mirror n - i at -omega (row n/2 is its own; row 0's, +Omega_max, is
    dropped): since D(-omega) = D(omega)*, one EIT reciprocal gives the slow
    photon's wavenumbers at +-omega and kappa, which is even in omega.

    With both wavenumbers even in z, the trapezoid increment of the phase
    argument over a panel equals the one over its mirror panel.  The phase
    factors are therefore a running product along z (:func:`_phase_factors`):
    one anchor e^{i arg(-L/2)} per row times the per-panel factors, of which
    only the z >= 0 half is exponentiated and then mirrored.  No phase
    argument is summed up or exponentiated node by node.

    In the degenerate scheme the -omega row sees the +omega row's photons
    exchanged.  Its phase argument is the +omega row's reflected in z plus
    2 z delta0, and since kappa and the Simpson weights are even in z,

        S(-omega) = sum_z w(z) kappa(omega, z) e^{i arg(omega, z)} e^{-2 i z delta0}:

    the +omega row's finished kappa-phase block summed with a second weight
    vector, so only rows 0 .. n/2 form phase factors.  In the nondegenerate
    scheme the partner is a vacuum photon (:func:`_partner_wavenumber`), so
    the -omega row pairs the slow photon's q(-omega) with +omega/c and forms
    phase factors of its own.

    The running product and the exchange identity hold in exact arithmetic;
    every row differs from a direct evaluation (cumulative sums of the
    arguments, one ``exp`` per node) in the last bits, a few 1e-15 of
    max|S| on the presets.  The wavenumbers carry no cancellation
    (:func:`~biphoton_sim.dispersion.slow_wavenumbers` never subtracts
    omega0/c from k1), so against a 40-digit evaluation of the same
    discretization both evaluations are off by the rounding of their phase
    sums or running product over the z panels, a few 1e-15 of max|S|.

    Rows 0 .. n/2 are split into contiguous chunks of about
    ``_CHUNK_ELEMENTS`` cells (``_SHARED_CHUNK_FACTOR`` times as many when
    several workers share them; the degenerate scheme fills only the omega
    half), which the workers claim one at a time.  Each worker allocates its
    workspace once per call: one full-z working array and z >= 0 blocks for
    the per-panel factors, the EIT reciprocal, both wavenumbers and their
    real scratch.  A chunk writes all of them with ``out=``, forms its
    phase factors in the working array, multiplies kappa into its two z
    halves there and sums it with the Simpson weights.  No chunk allocates
    a block-sized array, so the working set stays small and no chunk faults
    in fresh pages.  Results are deterministic and independent of
    ``threads`` and of the chunk size: every row is evaluated the same way
    whichever worker and chunk runs it, and its outputs land in disjoint
    slices of the spectrum.
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
    delta0 = _residual_wavevector(medium, pump, coupling, mode)

    n = grid.n
    half = n // 2
    # slot n takes +Omega_max, the mirror of row 0, and is dropped before the FFT
    spectrum = np.empty(n + 1, dtype=complex)
    degenerate = mode is GenerationMode.DEGENERATE
    if degenerate:
        # the -omega row's integrand is the +omega row's reflected in z times
        # e^{2 i z delta0}, and kappa and the Simpson weights are even in z
        w_minus = simpson * np.exp(-2j * (z * delta0))
    workers = threads if threads > 0 else min(8, os.cpu_count() or 1)
    cells = _CHUNK_ELEMENTS * (_SHARED_CHUNK_FACTOR if workers > 1 else 1)
    # At least two rows per chunk, and a one-row tail joins the chunk before
    # it: a one-row block would take a different BLAS path in the final
    # matvecs and change the result bits.
    chunk = max(2, cells // (2 * (m + 1)))
    bounds = list(range(0, half + 1, chunk)) + [half + 1]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    spans = list(zip(bounds[:-1], bounds[1:]))

    def run_chunks(claimed) -> None:
        # The worker's workspace, sized for the largest chunk: its one full-z
        # working array (the degenerate -omega rows need none) and its z >= 0
        # blocks, which every chunk writes with out=: the per-panel phase
        # factors, 1/D(omega), q(omega) (then kappa), q(-omega) and four real
        # scratch arrays for the wavenumbers.  The working array is allocated
        # twice: glibc serves it by mmap, and freeing that copy lifts its
        # dynamic mmap and trim thresholds above the size, so the workspace
        # and what a chunk still allocates (numpy's 128 KiB casting buffers
        # among it) come from the heap and are reused, in this call and the
        # next, not mapped and faulted in again (minor faults of a fig2d
        # waveform command at 1 thread: 16k without, 7.8k with; of a repeated
        # 2-thread fig2d call: 5.1k without, 8 with).
        rows = max(stop - start for start, stop in spans)
        sides = 1 if degenerate else 2
        np.empty((rows * sides, m + 1), complex)  # freed at once
        work = np.empty((rows * sides, m + 1), complex)
        factors = np.empty((rows, mh + 1), complex)
        zpos_blocks = np.empty((3, rows, mh + 1), complex)
        scratch = np.empty((4, rows, mh + 1))
        for start, stop in claimed:
            k = stop - start
            om = grid.omega[start:stop, None]
            recip, q_plus, q_minus = zpos_blocks[:, :k]
            np.divide(1.0, eit_denominator(om, oc_sq, medium, out=recip), out=recip)
            slow_wavenumbers(om, recip, medium, out=(q_plus, q_minus), scratch=scratch[:, :k])
            phase = work[:sides * k]
            blocks = phase.reshape(sides, k, m + 1)
            # the photons of the omega rows and of the -omega rows, partners
            # taken before _phase_factors overwrites photon 1's wavenumber;
            # the degenerate -omega rows, the pair exchanged, need no block
            pairs = [(q_plus, _partner_wavenumber(q_minus, om, mode)),
                     (q_minus, _partner_wavenumber(q_plus, -om, mode))]
            for (q1, q2), block in zip(pairs, blocks):
                _phase_factors(q1, q2, h, delta0, z[0], factors[:k], block)
            kap = _coupling(recip, envelope, medium, pump, mode, scale, out=q_plus)
            # kappa is even in z and in omega
            np.multiply(kap, blocks[..., mh:], out=blocks[..., mh:])
            np.multiply(kap[:, :0:-1], blocks[..., :mh], out=blocks[..., :mh])
            if degenerate:
                # two matvecs over the same k rows: a two-column matmul may
                # take another BLAS path and change the bits
                minus, plus = phase @ w_minus, phase @ simpson
            else:
                plus, minus = np.split(phase @ simpson, 2)
            # -omega first: row n/2 is its own mirror, and its value at
            # omega = +0 is the one kept
            spectrum[n - start:n - stop:-1] = minus
            spectrum[start:stop] = plus

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

    return spectrum_to_waveform(grid, spectrum[:n])


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
    recip = 1.0 / eit_denominator(om, coupling.peak_rabi ** 2, medium)
    q1, q_mirror = slow_wavenumbers(om, recip, medium)
    q2 = _partner_wavenumber(q_mirror, om, mode)
    kap = _coupling(recip, 1.0, medium, pump, mode, scale)
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
