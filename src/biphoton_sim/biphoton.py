"""Two-photon joint amplitude of backward four-wave mixing in an EIT medium.

The central object is psi(tau), the amplitude for detecting the pair with
relative delay tau = t1 - t2.  Three evaluation routes are provided:

* :func:`psi_full` - the full detuning/position double integral with
  spatially varying drive beams and propagation phases,
* :func:`psi_uniform_spectrum` - the closed-form spectral integrand for
  uniform beams (phase-matching sinc times the parametric coupling),
* :func:`psi_analytic_rect` / :func:`psi_analytic_exp` - the group-delay
  limiting shapes (symmetric rectangle, one-sided exponential).

The spectral routes return S(omega) on the grid's detuning axis, which the
caller transforms to psi(tau) (:mod:`~biphoton_sim.grids`); the analytic
limits return waveforms.  Each route first holds its grid to :func:`check_grid`.

A single real ``scale`` multiplies the parametric coupling everywhere; the
absolute dipole prefactor is not derivable from the inputs, so waveform
shapes and widths are the meaningful outputs and absolute count levels are
calibrated externally.  A constant optical carrier phase common to all tau
is dropped from every route.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .config import ConfigError
from .dispersion import (
    eit_absorption_loss,
    eit_denominator,
    group_delay_estimate,
    slow_wavenumbers,
)
from .grids import GridError, SpectralGrid, Waveform
from .params import (C_LIGHT, BeamField, CouplingField, DetectionConfig, GenerationMode,
                     MediumConfig, beam_profile, check_range)

# (omega row, z node) cells of one psi_full chunk, counted over the full z
# grid and both rows of each +-omega pair: a chunk takes
# _CHUNK_ELEMENTS / (2 (z_panels + 1)) row pairs, so that a worker's
# workspace, 80 B per row and z >= 0 node (1.3 MB at 512 panels), stays
# cache-sized
_CHUNK_ELEMENTS = 2 ** 16
# With several workers each chunk holds this many times as many elements.
# Every numpy call of a chunk hands the GIL from one worker to the other, and
# a worker that has to wait for it leaves its core idle for a busy VM host to
# give away.  A fresh fig5 call at 2 threads on a 2-core VM waited (voluntary
# context switches) about 1900 times at factor 1, 550 at 2 and 200 at 4, and
# took 0.135, 0.116 and 0.123 s (medians of 12): factor 2 keeps most of the
# gain at half factor 4's workspace, 2.6 MB a worker at 512 panels.
_SHARED_CHUNK_FACTOR = 2
_UNIFORM_BLOCK_ROWS = 2048  # psi_uniform_spectrum's rows per block: 32 KiB a complex temporary


def _usable_cpus() -> int:
    """The CPUs this process may run on, and so the most workers psi_full runs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _partner_wavenumber(q_mirror, omega, mode: GenerationMode):
    """Photon 2's carrier-subtracted q2(omega), partner of the slow photon 1.

    Degenerate: the slow photon at -omega, ``q_mirror``.  Nondegenerate: a
    dispersion-free, lossless vacuum photon, -omega/c, in ``q_mirror``'s shape.
    """
    if mode is GenerationMode.DEGENERATE:
        return q_mirror
    return np.broadcast_to(-omega / C_LIGHT + 0j, np.shape(q_mirror))


def _coupling_constant(medium: MediumConfig, pump: BeamField, mode: GenerationMode,
                       scale: float) -> complex:
    """kappa's complex constant, -i (omega0 / 2c) scale / (Delta_p + i gamma_up).

    The pump-coupled upper level is a distinct state, of dephasing gamma14,
    only in the nondegenerate scheme; the degenerate scheme reuses the EIT
    level, gamma13.  ``scale`` must be finite and > 0.
    """
    check_range("scale", scale, "finite and > 0")
    gamma_up = medium.gamma14 if mode is GenerationMode.NONDEGENERATE else medium.gamma13
    return -1j * (medium.omega0 / (2.0 * C_LIGHT)) * scale / (pump.detuning + 1j * gamma_up)


def kappa(omega, z: float, medium: MediumConfig, pump: BeamField,
          coupling: CouplingField, mode: GenerationMode, scale: float = 1.0):
    """Parametric gain per unit length at detuning omega and position z.

    kappa = -i (omega0 / 2c) E_p(z) E_c(z) [chi3(omega) + chi3(-omega)],
    chi3(omega) = scale / ((Delta_p + i gamma_up) D(omega))

    with D the EIT denominator at the local coupling Rabi frequency
    Omega_c(z), gamma_up the dephasing of the pump-coupled upper level, and
    the field envelopes reduced to their normalized beam profiles (their peak
    values, the dipole matrix elements and the atomic density are absorbed by
    ``scale``; only relative values are meaningful).  D(-omega) = D(omega)*,
    so the symmetrized 1/D(omega) + 1/D(-omega) is 2 Re(1/D(omega)), bit for
    bit: kappa(omega) = kappa(-omega) exactly, and kappa is
    :func:`_coupling_constant` times the real 2 envelope Re(1/D), formed from
    the reciprocal that feeds the wavenumbers (:func:`psi_full` folds the
    constant into its Simpson weights and multiplies by envelope Re(1/D)).
    """
    om = np.asarray(omega, dtype=float)
    gc = beam_profile(coupling, z, medium.theta)
    recip = 1.0 / eit_denominator(om, (coupling.peak_rabi * gc) ** 2, medium)
    envelope = beam_profile(pump, z, medium.theta) * gc
    return 2.0 * _coupling_constant(medium, pump, mode, scale) * envelope * recip.real


# ---------------------------------------------------------------------------
# Carrier bookkeeping
# ---------------------------------------------------------------------------

def _residual_wavevector(medium: MediumConfig, pump: BeamField,
                         coupling: BeamField, mode: GenerationMode) -> float:
    """Longitudinal drive-field wavevector residual (k_p - k_c) cos(theta), 1/m.

    Degenerate scheme: both photons share the carrier, so the counter-
    propagating drive fields leave a longitudinal wavevector residual
    (k_p - k_c) cos(theta); the frequency offset is taken as the configured
    pump-minus-coupling detuning (the ground-state hyperfine splitting for the
    standard configuration).  Nondegenerate scheme: the experiment aligns the
    geometry for exact carrier phase matching, so the residual is zero and
    only dispersive terms contribute.
    """
    if mode is not GenerationMode.DEGENERATE:
        return 0.0
    return (pump.detuning - coupling.detuning) / C_LIGHT * np.cos(medium.theta)


def check_grid(grid: SpectralGrid, medium: MediumConfig, *couplings: CouplingField) -> None:
    """Reject runs whose waveform has no time scale, or a grid that cannot hold it.

    ``couplings`` are a run's one coupling, or the powers of a scan, which
    share its grid.  The waveform's time scale is the group delay tau_g =
    2 gamma13 OD / |Omega_c|^2 and its grid's the EIT linewidth 1/tau_g, so
    each coupling and the OD must be > 0 (:class:`ConfigError`).  A grid that
    breaks a rule of :func:`_violation` at some coupling raises
    :class:`GridError` naming the first such rule and the
    :func:`derived_window` that suits every coupling at the grid's own
    n_omega.  Where no window passes, it says that no admissible grid
    resolves the run: with the Rabi frequency and the OD, whose ratio sets
    the scales, of a coupling that no window suits alone, or else with the
    two couplings whose scales no one window spans.
    """
    scales = [(coupling.peak_rabi, "coupling.peak_rabi_mhz") for coupling in couplings]
    for value, where in [*scales, (medium.od, "medium.od")]:
        if value <= 0:
            raise ConfigError("must be > 0 for a waveform, whose time scale is the group delay "
                              f"2 gamma13 OD / |Omega_c|^2, got {value:g}", where)
    delays = [group_delay_estimate(medium, coupling.peak_rabi) for coupling in couplings]
    violation = next(filter(None, (_violation(grid, medium, delay) for delay in delays)), None)
    if violation is None:
        return
    window = derived_window(grid.n, medium, *couplings)
    if window is not None:
        raise GridError(f"{violation}; set numerics.tau_span_ns to {window} "
                        f"(n_omega {grid.n} kept)")
    for coupling, delay in zip(couplings, delays):
        if derived_window(grid.n, medium, coupling) is None:
            raise GridError(
                "no admissible grid resolves this run: no tau window below 2^53 ns spans 4 "
                f"group delays ({4.0 * delay * 1e9:.3g} ns) with 8 EIT linewidths below the "
                "optical carrier; the coupling Rabi frequency "
                f"{coupling.peak_rabi / (2e6 * math.pi):.6g} MHz (coupling power "
                f"{coupling.power * 1e3:.6g} mW) sets this scale, with the optical depth "
                f"{medium.od:.6g}")
    weak, strong = delays.index(max(delays)), delays.index(min(delays))
    raise GridError(
        f"no admissible grid resolves this run: no tau window at n_omega {grid.n} spans 4 group "
        f"delays of coupling power {couplings[weak].power * 1e3:.6g} mW "
        f"({4.0 * delays[weak] * 1e9:.3g} ns) and holds 8 EIT linewidths of coupling power "
        f"{couplings[strong].power * 1e3:.6g} mW (at most "
        f"{grid.n * math.pi * delays[strong] / 8.0 * 1e9:.3g} ns)")


def _violation(grid: SpectralGrid, medium: MediumConfig, delay: float) -> str | None:
    """The first rule of :func:`check_grid` that ``grid`` breaks at group delay ``delay``.

    The detuning edge n_omega pi / tau_span stays below the optical carrier
    omega0, so the photon frequencies omega0 +- omega stay positive, and
    covers eight EIT linewidths; the tau window spans four group delays, so
    the support |tau| <= L/V_g cannot wrap around the FFT window.  None if
    the grid passes all three.
    """
    needed = 8.0 / delay if delay > 0 else math.inf  # the delay underflows at a vanishing OD
    if grid.omega_max >= medium.omega0:
        return (f"tau window {grid.tau_span * 1e9:.6g} ns does not exceed n_omega lambda0 / 2c = "
                f"{grid.n * medium.lambda0 / (2.0 * C_LIGHT) * 1e9:.6g} ns, where the detuning "
                "grid reaches the optical carrier")
    if grid.omega_max < needed:
        return (f"grid half-span {grid.omega_max:.3e} rad/s is below 8 EIT linewidths "
                f"({needed:.3e} rad/s)")
    if grid.tau_span < 4.0 * delay:
        return (f"tau window {grid.tau_span * 1e9:.6g} ns is below 4 group delays "
                f"({4.0 * delay * 1e9:.6g} ns)")
    return None


def derived_window(n_omega: int, medium: MediumConfig, *couplings: CouplingField) -> str | None:
    """The ``numerics.tau_span_ns`` text that passes :func:`check_grid` at ``n_omega`` points.

    At one coupling the rules pass the windows above n lambda0 / 2c, up to
    n pi tau_g / 8 and from 4 tau_g on; for n >= 11 some do exactly when
    8 / tau_g < omega0.  At several, a window passes when it does at the
    longest delay tau_max (the weakest coupling) and at the shortest tau_min
    (the strongest).  The one nearest 8 tau_max, at most n pi tau_min / 8
    and below 2^53 ns (104 days) is given as its shortest ``%g`` text that
    passes every coupling once parsed back (ns times 1e-9), or None when no
    text does.
    """
    delays = [group_delay_estimate(medium, coupling.peak_rabi) for coupling in couplings]
    # just above the carrier bound, by more than a 10-digit rounding moves it
    carrier = n_omega * medium.lambda0 / (2.0 * C_LIGHT) * (1.0 + 1e-9)
    window_ns = min(1e9 * max(8.0 * max(delays), carrier),
                    1e9 * n_omega * math.pi * min(delays) / 8.0, 2.0 ** 53 - 1)
    for digits in range(1, 18):
        text = f"{window_ns:.{digits}g}"
        if 0 < float(text) < 2 ** 53 and all(
                _violation(SpectralGrid(n_omega, float(text) * 1e-9), medium, delay) is None
                for delay in delays):
            return text
    return None


# ---------------------------------------------------------------------------
# Full double integral
# ---------------------------------------------------------------------------

def _panel_factors(q1: np.ndarray, q2: np.ndarray, h: float, delta0: float,
                   z0: float, factors: np.ndarray) -> None:
    """Per-panel phase factors of the z >= 0 half and the anchor of each row.

    arg(z) = int_z^{L/2} q1 + int_{-L/2}^z q2 + z delta0, both integrals
    cumulative trapezoids.  ``q1`` and ``q2`` hold rows that are even in z,
    on the z >= 0 nodes, so the increment of arg over a panel,
    h/2 (q2 - q1 at its two nodes, summed) + h delta0, is the same on a
    panel and on its mirror.  Only the z >= 0 increments are exponentiated,
    into columns 1 .. of the C-contiguous ``factors`` (shaped like ``q1``),
    with one anchor per row in column 0, e^{i arg(z0)}, where z0 = -L/2 and
    arg(z0) = int q1 + z0 delta0.  The phase factor at node j is the anchor
    times the running product of the factors of panels 1 .. j, mirrored for
    z < 0.  ``q1`` is overwritten.  Every numpy call here runs on whole
    contiguous arrays or reads one array and writes another, so none of
    them needs a temporary copy.
    """
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


def psi_full(grid: SpectralGrid, z_panels: int, medium: MediumConfig,
             pump: BeamField, coupling: CouplingField, mode: GenerationMode,
             scale: float = 1.0, threads: int = 1) -> np.ndarray:
    """Spectral amplitude S(omega) of the full detuning/position double integral.

    For each detuning of ``grid.omega`` the position integral accumulates the
    parametric coupling with the propagation phases of both photons,

        S(omega) = int_{-L/2}^{L/2} dz kappa(omega, z)
                   e^{i int_z^{L/2} k1 dz'} e^{i int_{-L/2}^z k2 dz'}
                   e^{-i (k_c - k_p) z cos(theta)},

    evaluated with composite-Simpson weights over cumulative-trapezoid phase
    integrals on a shared z grid.

    The integrand is built from its mirror symmetries.  The z grid,
    Omega_c^2(z) and the drive envelope are exact mirrors about z = 0, so
    1/D(omega), the wavenumbers and kappa are evaluated on the z >= 0
    columns only and reflected.  Rows 0 .. n/2 are evaluated, each with its
    mirror n - i at -omega (row n/2 is its own; row 0's, +Omega_max, is
    dropped): since D(-omega) = D(omega)*, one EIT reciprocal gives the slow
    photon's wavenumbers at +-omega and kappa, which is even in omega.

    With both wavenumbers even in z, the trapezoid increment of the phase
    argument over a panel equals the one over its mirror panel.  The phase
    factors are therefore a running product along z (:func:`_panel_factors`):
    one anchor e^{i arg(-L/2)} per row times the per-panel factors, of which
    only the z >= 0 half is exponentiated and then mirrored.  No phase
    argument is summed up or exponentiated node by node.  The product runs
    in two passes over a half-z array: nodes -L/2 .. 0 from the anchor
    through the mirrored factors, then nodes 0 .. L/2 on from the centre
    value, which the first pass leaves; each pass multiplies in kappa and
    adds its Simpson partial sum (the centre node's weight belongs to the
    first).  Every phase factor has the bits of one product over the full z
    grid; only the Simpson sum is grouped in two parts.

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

    kappa is its complex constant times the real envelope Re(1/D(omega))
    (:func:`kappa`): the constant rides on the Simpson weights, formed
    once per call, and the chunks multiply the phase block by a real plane.

    Rows 0 .. n/2 are split into contiguous chunks of about
    ``_CHUNK_ELEMENTS`` cells (``_SHARED_CHUNK_FACTOR`` times as many when
    several workers share them), which the workers claim one at a time.
    There are ``threads`` workers, or one per usable CPU at 0, and never
    more than the CPUs the process may run on or than chunks: the calling
    thread is one, plain threads are the others.  After a worker fails the
    others claim no further chunk, and once all have stopped the first
    failure is raised as it was.  Each worker allocates its workspace (laid
    out in ``run_chunks``) once per call, 80 B per (row, z >= 0 node) in both
    schemes, and its chunks write it with ``out=``, so the working set stays
    small and no chunk faults in fresh pages.  Results are deterministic and
    independent of ``threads`` and of the chunk size: every row is evaluated
    the same way whichever worker and chunk runs it, and its outputs land in
    disjoint slices of the spectrum.  A ``z_panels`` that is not an even
    integer in [64, 2^16], or a negative or non-integer ``threads``, raises
    a ``RangeError`` up front.
    """
    check_range("z_panels", z_panels, "an even count in [64, 2^16]")
    check_range("threads", threads, "an integer >= 0")
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
    # slot n takes +Omega_max, the mirror of row 0, and is dropped on return
    spectrum = np.empty(n + 1, dtype=complex)
    degenerate = mode is GenerationMode.DEGENERATE
    # Weights of the +omega and the -omega rows.  The degenerate -omega row's
    # integrand is the +omega row's reflected in z times e^{2 i z delta0}, and
    # kappa and the Simpson weights are even in z.  Both carry kappa's complex
    # constant, so the chunks multiply by the real envelope Re(1/D) only.
    minus = simpson * np.exp(-2j * (z * delta0)) if degenerate else simpson
    weights = 2.0 * _coupling_constant(medium, pump, mode, scale) * np.array([simpson, minus])
    # the lower pass sums nodes 0 .. mh, the upper one mh .. m with the
    # centre's weight 0, as the lower pass has taken it
    lower = weights[:, :mh + 1]
    upper = weights[:, mh:].copy()
    upper[:, 0] = 0.0
    cpus = _usable_cpus()
    workers = min(threads or cpus, cpus)
    cells = _CHUNK_ELEMENTS * (_SHARED_CHUNK_FACTOR if workers > 1 else 1)
    # At least two rows per chunk, and a one-row tail joins the chunk before
    # it: a one-row block would take a different BLAS path in the final
    # matvecs and change the result bits.
    chunk = max(2, cells // (2 * (m + 1)))
    bounds = list(range(0, half + 1, chunk)) + [half + 1]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    spans = list(zip(bounds[:-1], bounds[1:]))
    omega = grid.omega  # fetched before any worker starts: the cached axis has no lock

    def run_chunks(claimed) -> None:
        # The worker's workspace: one block of 80 B per (row, z >= 0 node),
        # sized for the largest chunk.  It holds the half-z working array
        # (16 B), q(omega) and q(-omega) (32 B) and four real planes (32 B),
        # the wavenumbers' scratch.  The working array takes 1/D(omega)
        # until the wavenumbers and the real kappa factor (third plane) are
        # formed, then the phase factors of one half of z at a time, for one
        # side at a time; the per-panel factors take the first two planes,
        # the susceptibility's, dead by then.  Every chunk writes the
        # workspace with out=.
        rows = max(stop - start for start, stop in spans)
        plane = rows * (mh + 1)
        space = np.empty(10 * plane)
        work = space[:2 * plane].view(complex).reshape(rows, mh + 1)
        q_pair = space[2 * plane:6 * plane].view(complex).reshape(2, rows, mh + 1)
        reals = space[6 * plane:]
        sums = np.empty((2, 2, rows), complex)  # [lower, upper half][+omega, -omega rows]
        for start, stop in claimed:
            k = stop - start
            om = omega[start:stop, None]
            w = work[:k]
            q_plus, q_minus = q_pair[:, :k]
            planes = reals[:4 * k * (mh + 1)].reshape(4, k, mh + 1)
            np.divide(1.0, eit_denominator(om, oc_sq, medium, out=w), out=w)
            slow_wavenumbers(om, w, medium, out=(q_plus, q_minus), scratch=planes)
            kap = np.multiply(w.real, envelope, out=planes[2])
            factors = planes[:2].reshape(-1).view(complex).reshape(k, mh + 1)
            # the photons of the omega rows and of the -omega rows, partners
            # taken before _panel_factors overwrites photon 1's wavenumber,
            # and the rows of the spectrum each phase fills: the degenerate
            # -omega rows, the pair exchanged, take the omega rows' phases
            pairs = [(q_plus, _partner_wavenumber(q_minus, om, mode)),
                     (q_minus, _partner_wavenumber(q_plus, -om, mode))]
            for (q1, q2), sides in zip(pairs, [(0, 1)] if degenerate else [(0,), (1,)]):
                _panel_factors(q1, q2, h, delta0, z[0], factors)
                # nodes 0 .. mh: the anchor, then the mirrored panels' factors
                w[:, 0] = factors[:, 0]
                w[:, 1:] = factors[:, :0:-1]
                # numpy's accumulate holds the GIL: with several workers, the
                # two cumprod passes of a chunk run one thread at a time
                np.cumprod(w, axis=1, out=w)
                factors[:, 0] = w[:, mh]  # the centre, where the upper product goes on
                # kappa is even in z and in omega
                np.multiply(w, kap[:, ::-1], out=w)
                # one matvec per weight vector: a two-column matmul may take
                # another BLAS path and change the bits
                for side in sides:
                    np.matmul(w, lower[side], out=sums[0, side, :k])
                # nodes mh .. m
                np.copyto(w, factors)
                np.cumprod(w, axis=1, out=w)
                np.multiply(w, kap, out=w)
                for side in sides:
                    np.matmul(w, upper[side], out=sums[1, side, :k])
            # -omega first: row n/2 is its own mirror, and its value at
            # omega = +0 is the one kept
            np.add(sums[0, 1, :k], sums[1, 1, :k], out=spectrum[n - start:n - stop:-1])
            np.add(sums[0, 0, :k], sums[1, 0, :k], out=spectrum[start:stop])

    workers = min(workers, len(spans))
    # The calling thread is one worker and workers - 1 threads are the rest.
    # Each claims one span at a time, so a worker on a core the host is
    # slowing takes fewer of them: with one fixed span per worker, fig5 at 2
    # threads, one worker's core shared with a busy process, took 0.98 s a
    # call instead of 0.75 s.  After a failure no worker claims another span.
    claims = iter(spans)
    lock = threading.Lock()
    failures = []
    errors = np.geterr()

    def claim():
        with lock:
            return None if failures else next(claims, None)

    def run_worker() -> None:
        try:
            # a new thread starts from numpy's default error handling, not the caller's
            with np.errstate(**errors):
                run_chunks(iter(claim, None))
        except BaseException as exc:  # re-raised by the caller once all workers are joined
            with lock:
                failures.append(exc)

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=run_worker)
            helper.start()
            helpers.append(helper)
        run_worker()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]

    return spectrum[:n]


# ---------------------------------------------------------------------------
# Uniform-beam closed form
# ---------------------------------------------------------------------------

def _complex_sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x for complex x, continuous at 0."""
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def psi_uniform_spectrum(grid: SpectralGrid, medium: MediumConfig,
                         pump: BeamField, coupling: CouplingField,
                         mode: GenerationMode, scale: float = 1.0) -> np.ndarray:
    """Spectral amplitude kappa(omega) Phi(omega) L for uniform drive beams.

    Phi(omega) = sinc(Delta k L / 2) e^{i (k1 + k2) L / 2} is the longitudinal
    detuning function, with the phase mismatch carrying the residual
    pump-coupling wavevector offset.  With both envelopes flat the position
    integral collapses to this closed form, which agrees with :func:`psi_full`
    under flat profiles.  Like :func:`psi_full` it returns S(omega) on
    ``grid.omega``.  In the degenerate scheme the imaginary parts of k1 and k2
    cancel inside Delta k, so absorption enters only through the common
    e^{-alpha L} magnitude of Phi.
    """
    check_grid(grid, medium, coupling)
    L = medium.length
    spectrum = np.empty(grid.n, complex)
    for lo in range(0, grid.n, _UNIFORM_BLOCK_ROWS):
        om = grid.omega[lo:lo + _UNIFORM_BLOCK_ROWS]
        recip = 1.0 / eit_denominator(om, coupling.peak_rabi ** 2, medium)
        q1, q_mirror = slow_wavenumbers(om, recip, medium)
        q2 = _partner_wavenumber(q_mirror, om, mode)
        kap = 2.0 * _coupling_constant(medium, pump, mode, scale) * recip.real
        # z-phase coefficient; sinc is even in it
        mismatch = q2 - q1 + _residual_wavevector(medium, pump, coupling, mode)
        phi = _complex_sinc(mismatch * L / 2.0) * np.exp(1j * (q1 + q2) * L / 2.0)
        spectrum[lo:lo + _UNIFORM_BLOCK_ROWS] = kap * phi * L
    return spectrum


# ---------------------------------------------------------------------------
# Group-delay analytic limits
# ---------------------------------------------------------------------------

def psi_analytic_rect(grid: SpectralGrid, medium: MediumConfig, pump: BeamField,
                      coupling: CouplingField, scale: float = 1.0) -> Waveform:
    """Group-delay-limit rectangle of the degenerate scheme.

    psi(tau) = |kappa(0, 0)| L e^{-alpha L} on |tau| <= L/V_g, zero outside,
    times the residual linear phase e^{-i dk_cp V_g tau / 2} from the
    pump-coupling wavevector offset (zero for equal detunings).  Both
    photons share the same absorption, so loss rescales the amplitude without
    touching the support: the coherence time is protected by the exchange
    symmetry of the pair.
    """
    check_grid(grid, medium, coupling)
    kappa0 = kappa(0.0, 0.0, medium, pump, coupling, GenerationMode.DEGENERATE, scale)
    delay = group_delay_estimate(medium, coupling.peak_rabi)
    vg = medium.length / delay
    alpha_l = eit_absorption_loss(medium, coupling.peak_rabi)
    tau = grid.tau
    box = (np.abs(tau) <= delay).astype(float)
    dk_cp = _residual_wavevector(medium, pump, coupling, GenerationMode.DEGENERATE)
    amp = (abs(kappa0) * medium.length * np.exp(-alpha_l)
           * box * np.exp(-0.5j * dk_cp * vg * tau))
    return Waveform(grid, amp)


def psi_analytic_exp(grid: SpectralGrid, medium: MediumConfig,
                     coupling: CouplingField) -> Waveform:
    """Loss-shortened one-sided exponential of the nondegenerate scheme.

    psi(tau) = e^{-alpha V_g tau} on 0 <= tau <= L/V_g, zero outside, with
    alpha L and L/V_g the EIT loss and group delay at the coupling's peak:
    only the slow photon is absorbed, so pairs born deeper in the medium
    (larger tau) are attenuated more and the intensity decays with constant
    1/(2 alpha V_g).  The amplitude is 1 at tau = 0, whatever the pump and scale.
    """
    check_grid(grid, medium, coupling)
    alpha = eit_absorption_loss(medium, coupling.peak_rabi) / medium.length
    vg = medium.length / group_delay_estimate(medium, coupling.peak_rabi)
    tau = grid.tau
    support = (tau >= 0.0) & (tau <= medium.length / vg)
    amp = np.where(support, np.exp(-alpha * vg * np.where(support, tau, 0.0)), 0.0)
    return Waveform(grid, amp.astype(complex))


def coincidence_counts(waveform: Waveform, det: DetectionConfig) -> np.ndarray:
    """Expected coincidence counts per time bin.

    CC(tau) = eta_d eta_c |psi(tau)|^2 dt_bin T_c + accidental floor.
    """
    signal = (det.duty_cycle * det.joint_efficiency * waveform.intensity
              * det.bin_width * det.collection_time)
    return signal + det.accidental_floor
