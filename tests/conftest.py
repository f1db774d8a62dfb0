import math

import pytest

from biphoton_sim import (
    BeamField,
    CouplingField,
    MediumConfig,
    load_preset,
    measure_coherence,
    psi_full,
    spectrum_to_waveform,
)

MHZ = 2.0 * math.pi * 1e6


def make_medium(od=150.0, length=0.017, g12_mhz=0.004, g13_mhz=3.0,
                g14_mhz=3.0, theta_deg=3.0, lambda0=795e-9) -> MediumConfig:
    return MediumConfig(od=od, length=length, gamma12=g12_mhz * MHZ,
                        gamma13=g13_mhz * MHZ, gamma14=g14_mhz * MHZ,
                        theta=math.radians(theta_deg), lambda0=lambda0)


def make_pump(det_mhz=6800.0, waist=1.6e-3) -> BeamField:
    return BeamField(waist=waist, detuning=det_mhz * MHZ)


def make_coupling(rabi_mhz=14.5, waist=2.3e-3, power=2.3e-3) -> CouplingField:
    return CouplingField(power=power, waist=waist, detuning=0.0, peak_rabi=rabi_mhz * MHZ)


@pytest.fixture(scope="session")
def preset_waveforms():
    """Full-integral waveforms of the figure presets at their default numerics."""
    import time

    out = {}
    for name in ("fig2d", "fig2f", "fig3d", "fig3f"):
        cfg = load_preset(name)
        start = time.perf_counter()
        grid = cfg.numerics.grid()
        wave = spectrum_to_waveform(grid, psi_full(grid, cfg.numerics.z_panels, cfg.medium,
                                                   cfg.pump, cfg.coupling, cfg.mode,
                                                   scale=cfg.kappa_scale, threads=4))
        elapsed = time.perf_counter() - start
        counts, report = measure_coherence(wave, cfg.detection)
        out[name] = {"config": cfg, "wave": wave, "counts": counts,
                     "report": report, "seconds": elapsed}
    return out
