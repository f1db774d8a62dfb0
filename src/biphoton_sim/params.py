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
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Integral

import numpy as np

C_LIGHT = 299792458.0  # m/s


class GenerationMode(Enum):
    """Pair-generation scheme: distinct Stokes/anti-Stokes colors, or a single one."""

    NONDEGENERATE = "nondegenerate"
    DEGENERATE = "degenerate"


class RangeError(ValueError):
    """A field outside its range: ``attr`` names the field, ``rule`` the range."""

    def __init__(self, attr: str, rule: str, value):
        super().__init__(f"{attr} {rule}, got {value}")
        self.attr, self.rule = attr, rule


# the detuning grids a configuration may ask for: powers of two in [2^10, 2^20]
MIN_N_OMEGA, MAX_N_OMEGA = 2 ** 10, 2 ** 20
# More z panels gain nothing: the z-quadrature error falls as 1/z_panels^2
# from about 3e-7 at 512 panels to 2e-11 at 2^16, where the rounding of the
# running phase product over the panels (about z_panels * 2.2e-16) takes over.
MAX_Z_PANELS = 2 ** 16

# the ranges of the configuration fields and the library's numeric arguments,
# each stated once, with its test: a comparison, so nan is outside every range
_RANGES = {
    "finite": lambda v: -math.inf < v < math.inf,
    "finite and > 0": lambda v: 0 < v < math.inf,
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "finite and >= 0": lambda v: 0 <= v < math.inf,
    "an integer >= 0": lambda v: isinstance(v, Integral) and v >= 0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    ">= 0 and below a right angle": lambda v: 0.0 <= v < math.pi / 2,
    "a power of two >= 2": lambda v: isinstance(v, Integral) and v >= 2 and not v & (v - 1),
    "a power of two in [2^10, 2^20]":
        lambda v: isinstance(v, Integral) and MIN_N_OMEGA <= v <= MAX_N_OMEGA and not v & (v - 1),
    "an even count in [64, 2^16]":
        lambda v: isinstance(v, Integral) and 64 <= v <= MAX_Z_PANELS and v % 2 == 0,
}


def n_omega_at_least(x: float) -> int:
    """The smallest power of two >= x and >= 2^10, unbounded above: compare it to MAX_N_OMEGA."""
    return max(MIN_N_OMEGA, 1 << max(math.ceil(math.log2(x)), 0))


def check_range(name: str, value, rule: str) -> None:
    """Raise RangeError, ``<name> must be <rule>, got <value>``, for a value outside its rule."""
    if not _RANGES[rule](value):
        raise RangeError(name, f"must be {rule}", value)


def check_ranges(obj, **ranges: str) -> None:
    """Raise RangeError for the first named field of ``obj`` outside its range."""
    for attr, rule in ranges.items():
        check_range(attr, getattr(obj, attr), rule)


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
        check_ranges(self, od=">= 0", length="> 0", gamma13="> 0", gamma12=">= 0",
                     gamma14=">= 0", theta=">= 0 and below a right angle", lambda0="> 0")

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
    """One driving laser field, holding all that the model reads of the pump.

    ``detuning`` is the detuning of the field from its atomic transition
    (Delta_p for the pump, 0 for an on-resonance coupling beam).  The pump's
    peak field is absorbed by kappa's scale, and the photons' carrier is
    ``MediumConfig.lambda0``.
    """

    waist: float       # m, e^-2 intensity radius
    detuning: float    # rad/s

    def __post_init__(self) -> None:
        check_ranges(self, waist="> 0")


@dataclass(frozen=True)
class CouplingField(BeamField):
    """The coupling beam: Rabi frequency ``peak_rabi`` at its center when driven at ``power``."""

    power: float       # W
    peak_rabi: float   # rad/s

    def __post_init__(self) -> None:
        super().__post_init__()
        check_ranges(self, power=">= 0", peak_rabi=">= 0")

    def at_power(self, power: float) -> CouplingField:
        """This beam driven at a finite ``power`` > 0 instead, at the same waist.

        The Rabi frequency of a Gaussian beam obeys Omega ~ sqrt(P) / w0
        (from Omega = mu E / hbar with peak intensity I0 = 2P/(pi w0^2)); at a
        fixed waist Omega = peak_rabi sqrt(power / self.power).  Any other
        ``power``, or this beam's zero power or Rabi frequency, raises
        :class:`RangeError` with ``attr`` "power" or "peak_rabi".
        """
        check_range("power", power, "finite and > 0")
        check_ranges(self, power="> 0", peak_rabi="> 0")
        return replace(self, power=power,
                       peak_rabi=self.peak_rabi * math.sqrt(power / self.power))


@dataclass(frozen=True)
class DetectionConfig:
    """Coincidence-detection chain: duty cycle, efficiency, binning, background."""

    duty_cycle: float        # eta_d
    joint_efficiency: float  # eta_c
    bin_width: float         # s
    collection_time: float   # s
    accidental_floor: float = 0.0  # counts per bin

    def __post_init__(self) -> None:
        check_ranges(self, duty_cycle="in (0, 1]", joint_efficiency="in (0, 1]",
                     bin_width="> 0", collection_time="> 0", accidental_floor=">= 0")


# ---------------------------------------------------------------------------
# Derived-parameter helpers
# ---------------------------------------------------------------------------

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
    return np.exp(-((offset / beam.waist) ** 2))
