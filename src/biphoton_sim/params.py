"""Physical configuration types and derived-parameter helpers.

Unit conventions used throughout the package:

* every rate / frequency / detuning is an angular frequency in rad/s
  (a value quoted as "2pi x f MHz" is stored as ``2*pi*f*1e6``),
* lengths are in meters, powers in watts, times in seconds,
* the beam waist ``w0`` is the e^-2 *intensity radius*, so that the
  peak intensity of a Gaussian beam is ``I0 = 2P/(pi w0^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

C_LIGHT = 299792458.0  # m/s


class GenerationMode(Enum):
    """Pair-generation scheme: distinct Stokes/anti-Stokes colors, or a single one."""

    NONDEGENERATE = "nondegenerate"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class MediumConfig:
    """Cold-atom ensemble parameters.

    ``od`` is the resonant two-level optical depth (intensity attenuation
    exponent), ``gamma12`` the ground-state dephasing rate, ``gamma13`` the
    optical dephasing rate, ``gamma14`` the dephasing of the far upper level
    entering only the nondegenerate nonlinearity, ``theta`` the intersection
    angle between the driving beams and the photon-collection axis, and
    ``lambda0`` the central wavelength of the slow photon (sets k0).
    """

    od: float
    length: float     # m
    gamma12: float    # rad/s
    gamma13: float    # rad/s
    gamma14: float    # rad/s
    theta: float      # rad
    lambda0: float    # m

    def __post_init__(self) -> None:
        if self.od < 0:
            raise ValueError(f"od must be >= 0, got {self.od}")
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if self.gamma13 <= 0:
            raise ValueError(f"gamma13 must be > 0, got {self.gamma13}")
        if self.gamma12 < 0:
            raise ValueError(f"gamma12 must be >= 0, got {self.gamma12}")
        if self.gamma14 < 0:
            raise ValueError(f"gamma14 must be >= 0, got {self.gamma14}")
        if not 0.0 <= self.theta < math.pi / 2:
            raise ValueError(f"theta must be in [0, pi/2), got {self.theta}")
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be > 0, got {self.lambda0}")

    @property
    def k0(self) -> float:
        """Central vacuum wavenumber 2 pi / lambda0 (1/m)."""
        return 2.0 * math.pi / self.lambda0

    @property
    def omega0(self) -> float:
        """Central photon angular frequency (rad/s)."""
        return 2.0 * math.pi * C_LIGHT / self.lambda0


@dataclass(frozen=True)
class BeamField:
    """One driving laser field.

    ``detuning`` is the detuning of the field from its atomic transition
    (Delta_p for the pump, 0 for an on-resonance coupling beam) and
    ``peak_rabi`` the Rabi frequency at the beam center.
    """

    wavelength: float  # m
    power: float       # W
    waist: float       # m, e^-2 intensity radius
    detuning: float    # rad/s
    peak_rabi: float   # rad/s

    def __post_init__(self) -> None:
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        if self.waist <= 0:
            raise ValueError(f"waist must be > 0, got {self.waist}")
        if self.power < 0:
            raise ValueError(f"power must be >= 0, got {self.power}")
        if self.peak_rabi < 0:
            raise ValueError(f"peak_rabi must be >= 0, got {self.peak_rabi}")


@dataclass(frozen=True)
class DetectionConfig:
    """Coincidence-detection chain: duty cycle, efficiency, binning, background."""

    duty_cycle: float        # eta_d
    joint_efficiency: float  # eta_c
    bin_width: float         # s
    collection_time: float   # s
    accidental_floor: float = 0.0  # counts per bin

    def __post_init__(self) -> None:
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle must be in (0, 1], got {self.duty_cycle}")
        if not 0.0 < self.joint_efficiency <= 1.0:
            raise ValueError(
                f"joint_efficiency must be in (0, 1], got {self.joint_efficiency}")
        if self.bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {self.bin_width}")
        if self.collection_time <= 0:
            raise ValueError(f"collection_time must be > 0, got {self.collection_time}")
        if self.accidental_floor < 0:
            raise ValueError(
                f"accidental_floor must be >= 0, got {self.accidental_floor}")


# ---------------------------------------------------------------------------
# Derived-parameter helpers
# ---------------------------------------------------------------------------

def rabi_scale(power: float, waist: float,
               ref_power: float, ref_waist: float, ref_rabi: float) -> float:
    """Scale a reference Rabi frequency to a new power and waist.

    The Rabi frequency of a Gaussian beam obeys Omega ~ sqrt(P) / w0
    (from Omega = mu E / hbar with peak intensity I0 = 2P/(pi w0^2)), so

        Omega = ref_rabi * sqrt(power / ref_power) * (ref_waist / waist)
    """
    for name, val in (("power", power), ("waist", waist), ("ref_power", ref_power),
                      ("ref_waist", ref_waist), ("ref_rabi", ref_rabi)):
        if val <= 0:
            raise ValueError(f"{name} must be > 0, got {val}")
    return ref_rabi * math.sqrt(power / ref_power) * (ref_waist / waist)


def rabi_at_power(beam: BeamField, power: float) -> float:
    """Peak Rabi frequency of ``beam`` driven at ``power`` instead (same waist)."""
    return rabi_scale(power, beam.waist, beam.power, beam.waist, beam.peak_rabi)


def density_prefactor(medium: MediumConfig) -> float:
    """Atomic-density prefactor (1/s) of the linear susceptibility.

    Calibrated against the optical depth so that on two-level resonance
    (coupling off, no ground-state dephasing) the intensity transmission is
    exactly exp(-OD):

        beta = OD * gamma13 / (k0 * L)
    """
    return medium.od * medium.gamma13 / (medium.k0 * medium.length)


def beam_profile(beam: BeamField, z, theta: float):
    """Field-amplitude envelope of a beam crossing the z axis at angle theta.

    A point at longitudinal position z sits a transverse distance z*sin(theta)
    from the beam center, so the amplitude envelope is
    exp(-(z sin theta)^2 / w0^2); the peak intensity envelope is its square.
    Accepts scalar or array z.
    """
    offset = np.asarray(z) * math.sin(theta)
    out = np.exp(-((offset / beam.waist) ** 2))
    if np.isscalar(z):
        return float(out)
    return out
