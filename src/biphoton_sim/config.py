"""Run configuration: JSON schema, unit conversion, and shipped presets.

Configuration files use the conventions of the source data sheets:
frequencies and rates in linear MHz (a value f means the angular rate
2 pi f 1e6 rad/s), wavelengths in nm, macroscopic lengths in mm, powers in
mW, times in ns except the wall-clock collection time, which is in seconds.
Internally everything is converted to SI plus angular frequencies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .grids import SpectralGrid
from .interference import InterferometerConfig
from .params import BeamField, DetectionConfig, GenerationMode, MediumConfig

MHZ = 2.0 * math.pi * 1e6  # linear MHz -> rad/s

PRESET_NAMES = ("fig2c", "fig2d", "fig2e", "fig2f",
                "fig3c", "fig3d", "fig3e", "fig3f", "fig4b", "fig5")


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""

    def __init__(self, message: str, field: str | None = None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class NumericsConfig:
    """Spectral/positional discretization: grid size, z panels, time span."""

    n_omega: int = 16384
    z_panels: int = 512
    tau_span: float = 80e-6  # s

    def __post_init__(self) -> None:
        n = self.n_omega
        if n < 2 ** 10 or n > 2 ** 20 or n & (n - 1) != 0:
            raise ValueError(
                f"n_omega must be a power of two in [2^10, 2^20], got {n}")
        if self.z_panels < 64 or self.z_panels % 2:
            raise ValueError(
                f"z_panels must be an even count >= 64, got {self.z_panels}")
        if not (math.isfinite(self.tau_span) and self.tau_span > 0):
            raise ValueError(f"tau_span must be finite and > 0, got {self.tau_span}")

    def grid(self) -> SpectralGrid:
        return SpectralGrid.from_numerics(self.n_omega, self.tau_span)


@dataclass(frozen=True)
class RunConfig:
    """Complete simulation input: scheme, medium, beams, detection, numerics."""

    mode: GenerationMode
    medium: MediumConfig
    pump: BeamField
    coupling: BeamField
    detection: DetectionConfig
    numerics: NumericsConfig
    interferometer: InterferometerConfig | None = None
    scan_powers: tuple[float, ...] | None = None  # W
    kappa_scale: float = 1.0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError("missing required field", f"{where}.{key}")
    return section[key]


def _object(val, where: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"expected an object, got {val!r}", where)
    return val


def _finite(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ConfigError(f"expected a finite number, got {val!r}", where)
    return float(val)


def _number(section: dict, key: str, where: str, default: float | None = None) -> float:
    if default is not None and key not in section:
        return default
    return _finite(_require(section, key, where), f"{where}.{key}")


def _build(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")

    mode_raw = _require(data, "mode", "config")
    try:
        mode = GenerationMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"must be 'degenerate' or 'nondegenerate', got {mode_raw!r}",
            "config.mode") from None

    med = _object(_require(data, "medium", "config"), "medium")
    try:
        medium = MediumConfig(
            od=_number(med, "od", "medium"),
            length=_number(med, "length_mm", "medium") * 1e-3,
            gamma12=_number(med, "gamma12_mhz", "medium") * MHZ,
            gamma13=_number(med, "gamma13_mhz", "medium") * MHZ,
            gamma14=_number(med, "gamma14_mhz", "medium") * MHZ,
            theta=math.radians(_number(med, "theta_deg", "medium")),
            lambda0=_number(med, "lambda0_nm", "medium") * 1e-9,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "medium") from None

    def beam(section_name: str) -> BeamField:
        sec = _object(_require(data, section_name, "config"), section_name)
        try:
            return BeamField(
                wavelength=_number(sec, "wavelength_nm", section_name) * 1e-9,
                power=_number(sec, "power_mw", section_name) * 1e-3,
                waist=_number(sec, "waist_mm", section_name) * 1e-3,
                detuning=_number(sec, "detuning_mhz", section_name) * MHZ,
                peak_rabi=_number(sec, "peak_rabi_mhz", section_name) * MHZ,
            )
        except ValueError as exc:
            raise ConfigError(str(exc), section_name) from None

    pump = beam("pump")
    coupling = beam("coupling")

    det = _object(_require(data, "detection", "config"), "detection")
    try:
        detection = DetectionConfig(
            duty_cycle=_number(det, "duty_cycle", "detection"),
            joint_efficiency=_number(det, "joint_efficiency", "detection"),
            bin_width=_number(det, "bin_width_ns", "detection") * 1e-9,
            collection_time=_number(det, "collection_time_s", "detection"),
            accidental_floor=_number(det, "accidental_floor", "detection"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "detection") from None

    num = _object(data.get("numerics", {}), "numerics")
    tau_span_ns = _number(num, "tau_span_ns", "numerics", 80000.0)
    try:
        numerics = NumericsConfig(
            n_omega=int(num.get("n_omega", 16384)),
            z_panels=int(num.get("z_panels", 512)),
            tau_span=tau_span_ns * 1e-9,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), "numerics") from None

    interferometer = None
    if "interferometer" in data:
        itf = _object(data["interferometer"], "interferometer")
        try:
            interferometer = InterferometerConfig(
                reflectance=_number(itf, "reflectance", "interferometer"),
                shift_delta=_number(itf, "shift_mhz", "interferometer") * 1e6,
                noise_counts=_number(itf, "noise_counts", "interferometer", 0.0),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), "interferometer") from None

    scan_powers = None
    if "scan" in data:
        powers = _object(data["scan"], "scan").get("powers_mw")
        if powers is not None:
            if not isinstance(powers, list) or len(powers) < 1:
                raise ConfigError("powers_mw must be a non-empty list", "scan")
            scan_powers = tuple(
                check_power_mw(p, f"scan.powers_mw[{i}]") * 1e-3
                for i, p in enumerate(powers))

    kappa_scale = _number(data, "kappa_scale", "config", 1.0)
    if kappa_scale <= 0:
        raise ConfigError("must be > 0", "config.kappa_scale")

    return RunConfig(mode=mode, medium=medium, pump=pump, coupling=coupling,
                     detection=detection, numerics=numerics,
                     interferometer=interferometer, scan_powers=scan_powers,
                     kappa_scale=kappa_scale)


def check_power_mw(val, where: str) -> float:
    """A coupling power in mW: finite and > 0 (the Rabi scaling takes its root)."""
    power = _finite(val, where)
    if power <= 0:
        raise ConfigError(f"coupling power must be > 0, got {val!r}", where)
    return power


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return _build(data)


def load_config(path: str) -> RunConfig:
    """Load a configuration from a file path or a shipped preset name."""
    if path in PRESET_NAMES:
        return parse_config(_preset_text(path))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(cfg: RunConfig) -> dict:
    """Serialize a RunConfig back to its JSON object form (unit round trip)."""
    data = {
        "mode": cfg.mode.value,
        "medium": {
            "od": cfg.medium.od,
            "length_mm": cfg.medium.length * 1e3,
            "gamma12_mhz": cfg.medium.gamma12 / MHZ,
            "gamma13_mhz": cfg.medium.gamma13 / MHZ,
            "gamma14_mhz": cfg.medium.gamma14 / MHZ,
            "theta_deg": math.degrees(cfg.medium.theta),
            "lambda0_nm": cfg.medium.lambda0 * 1e9,
        },
        "pump": _dump_beam(cfg.pump),
        "coupling": _dump_beam(cfg.coupling),
        "detection": {
            "duty_cycle": cfg.detection.duty_cycle,
            "joint_efficiency": cfg.detection.joint_efficiency,
            "bin_width_ns": cfg.detection.bin_width * 1e9,
            "collection_time_s": cfg.detection.collection_time,
            "accidental_floor": cfg.detection.accidental_floor,
        },
        "numerics": {
            "n_omega": cfg.numerics.n_omega,
            "z_panels": cfg.numerics.z_panels,
            "tau_span_ns": cfg.numerics.tau_span * 1e9,
        },
        "kappa_scale": cfg.kappa_scale,
    }
    if cfg.interferometer is not None:
        data["interferometer"] = {
            "reflectance": cfg.interferometer.reflectance,
            "shift_mhz": cfg.interferometer.shift_delta / 1e6,
            "noise_counts": cfg.interferometer.noise_counts,
        }
    if cfg.scan_powers is not None:
        data["scan"] = {"powers_mw": [p * 1e3 for p in cfg.scan_powers]}
    return data


def _dump_beam(beam: BeamField) -> dict:
    return {
        "wavelength_nm": beam.wavelength * 1e9,
        "power_mw": beam.power * 1e3,
        "waist_mm": beam.waist * 1e3,
        "detuning_mhz": beam.detuning / MHZ,
        "peak_rabi_mhz": beam.peak_rabi / MHZ,
    }


def _preset_text(name: str) -> str:
    return (resources.files("biphoton_sim") / "presets" / f"{name}.json").read_text(
        encoding="utf-8")


def load_preset(name: str) -> RunConfig:
    """Load one of the shipped configurations by name."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return parse_config(_preset_text(name))
