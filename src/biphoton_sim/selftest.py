"""Small-scale invariant and oracle-equivalence suite.

Runs the numerical cross-checks that guard the simulation core: exact
algebraic symmetries, transform normalization, quadrature convergence, and
agreement of the fast evaluation path with an independent slow reference and
with the analytic group-delay limit.  Each check that builds a waveform
takes the fewest points, a power of two, whose window spans at least 8 of its
own group delays at the check's time step: a longer window holds only empty
tau, and costs time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dispersion
from .biphoton import (
    _residual_wavevector,
    kappa,
    psi_analytic_rect,
    psi_full,
    psi_uniform_spectrum,
)
from .dispersion import PTRegime, eit_denominator, pt_mode_analysis, slow_wavenumbers
from .grids import SpectralGrid, spectrum_to_waveform
from .params import C_LIGHT, BeamField, CouplingField, GenerationMode, MediumConfig

MHZ = 2.0 * math.pi * 1e6
DEG = GenerationMode.DEGENERATE


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    observed: float
    expected: str


def _medium(od=150.0, g12_mhz=0.004, theta=0.0) -> MediumConfig:
    return MediumConfig(od=od, length=0.017, gamma12=g12_mhz * MHZ,
                        gamma13=3.0 * MHZ, gamma14=3.0 * MHZ,
                        theta=theta, lambda0=795e-9)


def _beams(oc_mhz=14.5, pump_det_mhz=6800.0, waist=1e3):
    pump = BeamField(waist=waist, detuning=pump_det_mhz * MHZ)
    coupling = CouplingField(power=2.3e-3, waist=waist, detuning=0.0, peak_rabi=oc_mhz * MHZ)
    return pump, coupling


def check_kappa_symmetry() -> CheckResult:
    medium = _medium(theta=math.radians(3.0))
    pump, coupling = _beams(waist=2e-3)
    grid = SpectralGrid(2 ** 10, 20e-6)
    val = kappa(grid.omega, 0.3 * medium.length, medium, pump, coupling, DEG)
    mirrored = val[1:][::-1]
    worst = float(np.max(np.abs(val[1:] - mirrored)))
    return CheckResult("biphoton", "kappa detuning symmetry (exact)",
                       worst == 0.0, worst, "== 0")


def check_wavenumber_mirror() -> CheckResult:
    medium = _medium()
    om = SpectralGrid(2 ** 10, 20e-6).omega
    oc_sq = (14.5 * MHZ) ** 2
    # the degenerate partner k2(w) is the slow photon at -w
    q1, q2 = slow_wavenumbers(om, 1.0 / eit_denominator(om, oc_sq, medium), medium)
    # index i of the symmetric grid pairs with n - i
    worst = float(np.max(np.abs(q2[1:] - q1[1:][::-1])))
    return CheckResult("dispersion", "k2(w) = k1(-w) degenerate (exact)",
                       worst == 0.0, worst, "== 0")


def check_pt_modes() -> CheckResult:
    cases = [(0.0, 1.0, PTRegime.UNBROKEN), (1.0, 0.0, PTRegime.BROKEN),
             (0.5, 0.5, PTRegime.EXCEPTIONAL), (0.3, 2.0, PTRegime.UNBROKEN),
             (2.0, 0.3, PTRegime.BROKEN)]
    ok = True
    for alpha, kap, regime in cases:
        res = pt_mode_analysis(alpha, kap)
        lam = res.eigenvalues[0]
        ok &= res.regime is regime
        ok &= res.eigenvalues[1] == -lam
        ok &= abs(lam ** 2 - (kap ** 2 - alpha ** 2)) < 1e-12
    return CheckResult("dispersion", "PT eigenvalue suite", ok,
                       0.0 if ok else 1.0, "all regimes classified")


def check_parseval() -> CheckResult:
    medium = _medium(theta=math.radians(3.0))
    pump, coupling = _beams(waist=2e-3)
    grid = SpectralGrid(2 ** 10, 10e-6)  # tau_g 0.681 us: 14.7 group delays
    spec = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
    wave = spectrum_to_waveform(grid, spec)
    e_tau = np.sum(np.abs(wave.amplitude) ** 2) * grid.d_tau
    e_omega = np.sum(np.abs(spec) ** 2) * grid.d_omega / (2.0 * math.pi)
    rel = float(abs(e_tau - e_omega) / e_omega)
    return CheckResult("biphoton", "Parseval normalization", rel < 1e-6, rel, "< 1e-6")


def check_reference_agreement() -> CheckResult:
    from .reference import psi_reference

    medium = _medium(theta=math.radians(3.0))
    pump, coupling = _beams(waist=2e-3)
    grid = SpectralGrid(2 ** 8, 10e-6)  # tau_g 0.681 us: 14.7 group delays
    fast = spectrum_to_waveform(grid, psi_full(grid, 128, medium, pump, coupling, DEG))
    slow = psi_reference(grid, 129, medium, pump, coupling, DEG)
    rel = float(np.linalg.norm(fast.amplitude - slow.amplitude)
                / np.linalg.norm(slow.amplitude))
    return CheckResult("biphoton", "full integral vs slow trapezoid reference",
                       rel < 0.01, rel, "< 1% RMS")


def check_rect_limit() -> CheckResult:
    # deep group-delay regime, flat beams, lossless, collinear
    medium = _medium(od=800.0, g12_mhz=0.0, theta=0.0)
    pump, coupling = _beams(oc_mhz=20.0, pump_det_mhz=0.0)
    grid = SpectralGrid(2 ** 12, 20e-6)  # tau_g 1.910 us: 10.5 group delays
    full = spectrum_to_waveform(grid, psi_full(grid, 256, medium, pump, coupling, DEG))
    rect = psi_analytic_rect(grid, medium, pump, coupling)
    delay = dispersion.group_delay_estimate(medium, coupling.peak_rabi)
    inner = np.abs(grid.tau) <= 0.9 * delay
    a = np.abs(full.amplitude[inner])
    b = np.abs(rect.amplitude[inner])
    s = float(np.dot(a, b) / np.dot(b, b))
    rel = float(np.sqrt(np.mean((a - s * b) ** 2) / np.mean((s * b) ** 2)))
    return CheckResult("biphoton", "full integral vs analytic rectangle",
                       rel < 0.03, rel, "< 3% RMS, 5% edge bands excluded")


def check_z_convergence() -> CheckResult:
    # compared as spectra: by Parseval the same relative L2 as the waveforms'
    medium = _medium(theta=math.radians(3.0))
    pump, coupling = _beams(waist=2e-3)
    grid = SpectralGrid(2 ** 10, 10e-6)  # tau_g 0.681 us: 14.7 group delays
    coarse = psi_full(grid, 256, medium, pump, coupling, DEG)
    fine = psi_full(grid, 512, medium, pump, coupling, DEG)
    rel = float(np.linalg.norm(fine - coarse) / np.linalg.norm(fine))
    return CheckResult("biphoton", "z-panel doubling convergence",
                       rel < 0.005, rel, "< 0.5%")


def check_uniform_route() -> CheckResult:
    medium = _medium(theta=0.0)
    pump, coupling = _beams()
    grid = SpectralGrid(2 ** 10, 10e-6)  # tau_g 0.681 us: 14.7 group delays
    uni = psi_uniform_spectrum(grid, medium, pump, coupling, DEG)
    full = psi_full(grid, 256, medium, pump, coupling, DEG)
    rel = float(np.linalg.norm(full - uni) / np.linalg.norm(uni))
    return CheckResult("biphoton", "uniform spectral route vs full integral",
                       rel < 1e-6, rel, "< 1e-6 RMS (flat beams)")


def check_transmission_consistency() -> CheckResult:
    medium = _medium(od=88.0, g12_mhz=0.0042)
    oc = 12.2 * MHZ
    t0 = dispersion.eit_transmission(0.0, oc, medium)
    alpha_l = dispersion.eit_absorption_loss(medium, oc)
    rel = float(abs(t0 - math.exp(-2.0 * alpha_l)) / t0)
    return CheckResult("dispersion", "T(0) vs exp(-2 alpha L), good-EIT",
                       rel < 0.02, rel, "< 2%")


def check_group_delay_slope() -> CheckResult:
    medium = _medium(od=150.0, g12_mhz=0.004)
    oc = 14.5 * MHZ
    est = dispersion.group_delay_estimate(medium, oc)
    num = dispersion.group_delay_numeric(medium, oc)
    rel = float(abs(est - num) / num)
    return CheckResult("dispersion", "group delay formula vs numeric slope",
                       rel < 0.05, rel, "< 5%")


def check_carrier_offset() -> CheckResult:
    # collinear drives, cos(theta) = 1: the residual is the pump-minus-coupling
    # detuning over c, with the coupling on resonance
    medium = _medium(theta=0.0)
    pump, coupling = _beams(pump_det_mhz=6800.0)
    off = _residual_wavevector(medium, pump, coupling, DEG)
    ok = off == pump.detuning / C_LIGHT
    off_n = _residual_wavevector(medium, pump, coupling, GenerationMode.NONDEGENERATE)
    ok &= off_n == 0.0
    return CheckResult("biphoton", "drive carrier offset wiring", ok,
                       0.0 if ok else 1.0, "degenerate offset, matched nondegenerate")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_kappa_symmetry,
    check_wavenumber_mirror,
    check_pt_modes,
    check_parseval,
    check_reference_agreement,
    check_rect_limit,
    check_z_convergence,
    check_uniform_route,
    check_transmission_consistency,
    check_group_delay_slope,
    check_carrier_offset,
)


def _record(res: CheckResult) -> dict:
    observed = float(res.observed)
    return {"module": res.module, "name": res.name, "passed": bool(res.passed),
            "observed": observed if math.isfinite(observed) else None,
            "expected": res.expected}


def run_selftest(report=print, as_json: bool = False) -> int:
    """Run every check and return a process exit code.

    Reports one line per property and a summary, or with ``as_json`` one JSON
    array of the ``CheckResult`` records (a non-finite ``observed`` as null).
    """
    results = []
    for check in ALL_CHECKS:
        res = check()
        results.append(res)
        if not as_json:
            status = "PASS" if res.passed else "FAIL"
            report(f"[{status}] {res.module}: {res.name} "
                   f"(observed {res.observed:.3e}, expected {res.expected})")
    failures = [res for res in results if not res.passed]
    if as_json:
        report(json.dumps([_record(res) for res in results], indent=2))
    elif failures:
        report(f"{len(failures)} of {len(ALL_CHECKS)} checks failed:")
        for res in failures:
            report(f"  {res.module}.{res.name}: observed {res.observed:.6e}, "
                   f"expected {res.expected}")
    else:
        report(f"all {len(ALL_CHECKS)} checks passed")
    return 1 if failures else 0
