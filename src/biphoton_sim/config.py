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
import sys
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from importlib import resources

from .dispersion import group_delay_estimate
from .grids import MAX_N_OMEGA, SpectralGrid
from .interference import InterferometerConfig
from .params import (
    C_LIGHT,
    BeamField,
    DetectionConfig,
    GenerationMode,
    MediumConfig,
    RangeError,
    rabi_at_power,
)

MHZ = 2.0 * math.pi * 1e6  # linear MHz -> rad/s

# Each pair of figure panels shares one file: fig2c/fig2d, fig2e/fig2f,
# fig3c/fig3d and fig3e/fig3f are byte-identical, so the ten presets hold six
# distinct configurations (output sets run over all ten repeat four of them).
PRESET_NAMES = ("fig2c", "fig2d", "fig2e", "fig2f",
                "fig3c", "fig3d", "fig3e", "fig3f", "fig4b", "fig5")


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""

    def __init__(self, message: str, field: str | None = None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


# More z panels gain nothing: the z-quadrature error falls as 1/z_panels^2
# from about 3e-7 at 512 panels to 2e-11 at 2^16, where the rounding of the
# running phase product over the panels (about z_panels * 2.2e-16) takes over.
MAX_Z_PANELS = 2 ** 16


@dataclass(frozen=True)
class NumericsConfig:
    """Spectral/positional discretization: grid size, z panels, time span."""

    n_omega: int = 16384
    z_panels: int = 512
    tau_span: float = 80e-6  # s

    def __post_init__(self) -> None:
        n = self.n_omega
        if n < 2 ** 10 or n > MAX_N_OMEGA or n & (n - 1) != 0:
            raise ConfigError(f"must be a power of two in [2^10, 2^20], got {n}",
                              "numerics.n_omega")
        m = self.z_panels
        if m < 64 or m > MAX_Z_PANELS or m % 2:
            raise ConfigError(f"must be an even count in [64, 2^16], got {m}",
                              "numerics.z_panels")
        if not (math.isfinite(self.tau_span) and self.tau_span > 0):
            raise ConfigError(f"must be finite and > 0, got {self.tau_span * 1e9:g}",
                              "numerics.tau_span_ns")

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
# The file format: one table for parsing, validation and dumping
# ---------------------------------------------------------------------------

_BEAM = (
    ("wavelength_nm", "wavelength", 1e-9),
    ("power_mw", "power", 1e-3),
    ("waist_mm", "waist", 1e-3),
    ("detuning_mhz", "detuning", MHZ),
    ("peak_rabi_mhz", "peak_rabi", MHZ),
)

# section -> (dataclass, (json key, attribute, SI factor) per field); a factor
# of None marks a JSON integer, stored as is
SECTIONS = {
    "medium": (MediumConfig, (
        ("od", "od", 1.0),
        ("length_mm", "length", 1e-3),
        ("gamma12_mhz", "gamma12", MHZ),
        ("gamma13_mhz", "gamma13", MHZ),
        ("gamma14_mhz", "gamma14", MHZ),
        ("theta_deg", "theta", math.pi / 180.0),  # == math.radians, bitwise
        ("lambda0_nm", "lambda0", 1e-9),
    )),
    "pump": (BeamField, _BEAM),
    "coupling": (BeamField, _BEAM),
    "detection": (DetectionConfig, (
        ("duty_cycle", "duty_cycle", 1.0),
        ("joint_efficiency", "joint_efficiency", 1.0),
        ("bin_width_ns", "bin_width", 1e-9),
        ("collection_time_s", "collection_time", 1.0),
        ("accidental_floor", "accidental_floor", 1.0),
    )),
    "numerics": (NumericsConfig, (
        ("n_omega", "n_omega", None),
        ("z_panels", "z_panels", None),
        ("tau_span_ns", "tau_span", 1e-9),
    )),
    "interferometer": (InterferometerConfig, (
        ("reflectance", "reflectance", 1.0),
        ("shift_mhz", "shift_delta", 1e6),  # linear Hz, not angular
        ("noise_counts", "noise_counts", 1.0),
    )),
}


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError("missing required field", f"{where}.{key}")
    return section[key]


def _object(val, where: str, known) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"expected an object, got {val!r}", where)
    for key in val:
        if key not in known:
            raise ConfigError("unknown field", f"{where}.{key}")
    return val


def _finite(val, where: str) -> float:
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    # unlike math.isfinite, the comparison takes an integer past the float range
    if not (number and abs(val) <= sys.float_info.max):
        raise ConfigError(f"expected a finite number, got {val!r}", where)
    return float(val)


def _section(name: str, obj):
    """Build one section's dataclass from its JSON object, converting to SI."""
    cls, fields = SECTIONS[name]
    sec = _object(obj, name, [key for key, _, _ in fields])
    has_default = {f.name for f in dataclass_fields(cls) if f.default is not MISSING}
    kwargs = {}
    for key, attr, factor in fields:
        where = f"{name}.{key}"
        if key not in sec:
            if attr in has_default:
                continue
            raise ConfigError("missing required field", where)
        val = sec[key]
        if factor is not None:
            kwargs[attr] = _finite(val, where) * factor
        elif isinstance(val, int) and not isinstance(val, bool):
            kwargs[attr] = val
        else:
            raise ConfigError(f"expected an integer, got {val!r}", where)
    try:
        return cls(**kwargs)
    except RangeError as exc:  # the range in the dataclass, the value as written
        key = next(key for key, attr, _ in fields if attr == exc.attr)
        raise ConfigError(f"{exc.rule}, got {sec[key]!r}", f"{name}.{key}") from None


def _check_below_carrier(sections: dict) -> None:
    """Keep the model's angular frequencies below the optical carrier omega0.

    The photon frequencies omega0 +- omega must stay positive over the whole
    detuning grid, whose half-span n_omega pi / tau_span stays below omega0
    only for tau_span > n_omega lambda0 / 2c; and the rotating-wave model of
    the drive fields needs Rabi frequencies below omega0.  Both bounds also
    keep every squared frequency of the engines finite.
    """
    medium, numerics = sections["medium"], sections["numerics"]
    w0 = medium.omega0
    if numerics.n_omega * math.pi / numerics.tau_span >= w0:
        bound_ns = numerics.n_omega * medium.lambda0 / (2.0 * C_LIGHT) * 1e9
        raise ConfigError(
            f"must exceed n_omega * lambda0 / 2c = {bound_ns:.6g} ns, where the detuning "
            f"grid reaches the optical carrier, got {numerics.tau_span * 1e9:g}",
            "numerics.tau_span_ns")
    for name in ("pump", "coupling"):
        _check_rabi(sections[name].peak_rabi, w0, f"{name}.peak_rabi_mhz")


def _check_rabi(rabi: float, w0: float, where: str, subject: str = "") -> None:
    """The rotating-wave model of the drive fields needs Rabi frequencies below omega0."""
    if rabi >= w0:
        raise ConfigError(f"{subject}must be below the optical carrier frequency "
                          f"{w0 / MHZ:.6g} MHz, got {rabi / MHZ:g} MHz", where)


def _check_eit_scales(rabi: float, medium: MediumConfig, where: str, subject: str = "") -> None:
    """Keep a coupling Rabi frequency's EIT scales finite in the units they are written in.

    2 gamma13 OD comes first, so that its overflow names the OD; then
    |Omega_c|^2 must be normal, and the coherence time 4 gamma13 OD / |Omega_c|^2
    in ns and the scan abscissa gamma13^2 / |Omega_c|^2 finite.
    """
    if not math.isfinite(2.0 * medium.gamma13 * medium.od):
        raise ConfigError(f"must keep 2 gamma13 OD finite, got {medium.od:g}", "medium.od")
    if not (rabi * rabi >= sys.float_info.min
            and math.isfinite(2.0 * group_delay_estimate(medium, rabi) * 1e9)
            and math.isfinite((medium.gamma13 / rabi) * (medium.gamma13 / rabi))):
        raise ConfigError(f"{subject}must keep |Omega_c|^2 a normal double, and the coherence "
                          f"time 4 gamma13 OD / |Omega_c|^2 in ns and gamma13^2 / |Omega_c|^2 "
                          f"finite, got {rabi / MHZ:g} MHz", where)


def _build(data) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object", "config")
    _object(data, "config", ("mode", *SECTIONS, "scan", "kappa_scale"))

    mode_raw = _require(data, "mode", "config")
    try:
        mode = GenerationMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"must be 'degenerate' or 'nondegenerate', got {mode_raw!r}",
            "config.mode") from None

    sections = {name: _section(name, _require(data, name, "config"))
                for name in ("medium", "pump", "coupling", "detection")}
    sections["numerics"] = _section("numerics", data.get("numerics", {}))
    _check_below_carrier(sections)
    if sections["coupling"].peak_rabi > 0:  # zero is eit-spectrum's two-level medium
        _check_eit_scales(sections["coupling"].peak_rabi, sections["medium"],
                          "coupling.peak_rabi_mhz")
    if "interferometer" in data:
        sections["interferometer"] = _section("interferometer", data["interferometer"])

    scan_powers = None
    if "scan" in data:
        powers = _object(data["scan"], "scan", ("powers_mw",)).get("powers_mw")
        if powers is not None:
            if not isinstance(powers, list) or len(powers) < 1:
                raise ConfigError("must be a non-empty list", "scan.powers_mw")
            scan_powers = tuple(
                check_power_mw(p, f"scan.powers_mw[{i}]", sections["coupling"],
                               sections["medium"]) * 1e-3
                for i, p in enumerate(powers))

    kappa_scale = _finite(data.get("kappa_scale", 1.0), "config.kappa_scale")
    if kappa_scale <= 0:
        raise ConfigError("must be > 0", "config.kappa_scale")

    return RunConfig(mode=mode, **sections, scan_powers=scan_powers,
                     kappa_scale=kappa_scale)


def check_power_mw(val, where: str, coupling: BeamField, medium: MediumConfig) -> float:
    """A scan coupling power in mW, checked with the Rabi frequency it gives.

    The power must be finite and > 0 (the Rabi scaling takes its root), and
    the coupling Rabi frequency scaled to it from ``coupling`` is held to
    the carrier bound of a configured one and to
    :func:`_check_eit_scales`, since the scan divides by its square.
    """
    power = _finite(val, where)
    if power <= 0:
        raise ConfigError(f"coupling power must be > 0, got {val!r}", where)
    try:
        rabi = rabi_at_power(coupling, power * 1e-3)
    except ValueError as exc:  # a reference beam of zero power or Rabi frequency
        raise ConfigError(f"cannot scale the coupling Rabi frequency to it: {exc}",
                          where) from None
    subject = "the coupling Rabi frequency it gives "
    _check_rabi(rabi, medium.omega0, where, subject)
    _check_eit_scales(rabi, medium, where, subject)
    return power


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", "config"
        ) from None
    except (RecursionError, ValueError) as exc:  # nested too deep, or too long an integer
        raise ConfigError(f"cannot be read as JSON: {exc}", "config") from None
    return _build(data)


def load_config(path: str) -> RunConfig:
    """Load a configuration from a file path or a shipped preset name."""
    if path in PRESET_NAMES:
        return parse_config(_preset_text(path))
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", "config") from None
    return parse_config(text)


def dump_config(cfg: RunConfig) -> dict:
    """Serialize a RunConfig back to its JSON object form (unit round trip)."""
    data = {"mode": cfg.mode.value}
    for name, (_, fields) in SECTIONS.items():
        obj = getattr(cfg, name)
        if obj is not None:
            data[name] = {key: getattr(obj, attr) if factor is None
                          else getattr(obj, attr) / factor
                          for key, attr, factor in fields}
    data["kappa_scale"] = cfg.kappa_scale
    if cfg.scan_powers is not None:
        data["scan"] = {"powers_mw": [p * 1e3 for p in cfg.scan_powers]}
    return data


def _preset_text(name: str) -> str:
    return (resources.files("biphoton_sim") / "presets" / f"{name}.json").read_text(
        encoding="utf-8")


def load_preset(name: str) -> RunConfig:
    """Load one of the shipped configurations by name."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return parse_config(_preset_text(name))
