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
from collections import Counter
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from importlib import resources

from .dispersion import group_delay_estimate
from .grids import SpectralGrid
from .interference import InterferometerConfig
from .params import (
    BeamField,
    CouplingField,
    DetectionConfig,
    GenerationMode,
    MediumConfig,
    RangeError,
    check_ranges,
)

MHZ = 2.0 * math.pi * 1e6  # linear MHz -> rad/s

# preset name -> its file under presets/: a spectrum panel (c, e) reads the
# file of its run's waveform panel (d, f), so the ten names hold six distinct
# configurations (output sets run over all ten repeat four of them)
PRESETS = {"fig2c": "fig2d", "fig2d": "fig2d", "fig2e": "fig2f", "fig2f": "fig2f",
           "fig3c": "fig3d", "fig3d": "fig3d", "fig3e": "fig3f", "fig3f": "fig3f",
           "fig4b": "fig4b", "fig5": "fig5"}
PRESET_NAMES = tuple(PRESETS)


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""

    def __init__(self, message: str, field: str | None = None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class NumericsConfig:
    """Grid size, z panels, time span; ``biphoton.check_grid`` ties the grid to a run."""

    n_omega: int = 16384
    z_panels: int = 512
    tau_span: float = 80e-6  # s

    def __post_init__(self) -> None:
        check_ranges(self, n_omega="a power of two in [2^10, 2^20]",
                     z_panels="an even count in [64, 2^16]", tau_span="> 0")

    def grid(self) -> SpectralGrid:
        return SpectralGrid(self.n_omega, self.tau_span)


@dataclass(frozen=True)
class RunConfig:
    """Complete simulation input: scheme, medium, beams, detection, numerics."""

    mode: GenerationMode
    medium: MediumConfig
    pump: BeamField
    coupling: CouplingField
    detection: DetectionConfig
    numerics: NumericsConfig
    interferometer: InterferometerConfig | None = None
    scan_powers: tuple[float, ...] | None = None  # W
    kappa_scale: float = 1.0


# ---------------------------------------------------------------------------
# The file format: one table for parsing, validation and dumping
# ---------------------------------------------------------------------------

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
    "pump": (BeamField, (("waist_mm", "waist", 1e-3), ("detuning_mhz", "detuning", MHZ))),
    "coupling": (CouplingField, (
        ("power_mw", "power", 1e-3),
        ("waist_mm", "waist", 1e-3),
        ("detuning_mhz", "detuning", MHZ),
        ("peak_rabi_mhz", "peak_rabi", MHZ),
    )),
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

# keys of older files that no output reads (kappa_scale absorbs the pump's
# peak field, and medium.lambda0_nm is the carrier): finite numbers, dropped
IGNORED = {"pump": ("wavelength_nm", "power_mw", "peak_rabi_mhz"),
           "coupling": ("wavelength_nm",)}


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError("missing required field", f"{where}.{key}")
    return section[key]


class _Object(dict):
    """A JSON object that remembers the keys its text writes more than once."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeated = [] if len(self) == len(pairs) else [
            key for key, count in Counter(key for key, _ in pairs).items() if count > 1]


def _object(val, where: str, known) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"expected an object, got {val!r}", where)
    repeated = getattr(val, "repeated", ())  # a default such as numerics' {} has none
    if repeated:
        raise ConfigError("duplicate key", f"{where}.{repeated[0]}")
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
    """Build one section's dataclass from its JSON object, converting to SI.

    A number must be finite as written and after its SI factor, so a value
    that overflows only in SI is rejected under its own field path.  A key
    of ``IGNORED`` must only be a finite number; it is dropped.
    """
    cls, fields = SECTIONS[name]
    ignored = IGNORED.get(name, ())
    sec = _object(obj, name, [*(key for key, _, _ in fields), *ignored])
    for key in ignored:
        if key in sec:
            _finite(sec[key], f"{name}.{key}")
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
            if not math.isfinite(kwargs[attr]):
                raise ConfigError(f"must stay finite in SI units, got {val!r}", where)
        elif isinstance(val, int) and not isinstance(val, bool):
            kwargs[attr] = val
        else:
            raise ConfigError(f"expected an integer, got {val!r}", where)
    try:
        return cls(**kwargs)
    except RangeError as exc:  # the range in the dataclass, the value as written
        key = next(key for key, attr, _ in fields if attr == exc.attr)
        raise ConfigError(f"{exc.rule}, got {sec[key]!r}", f"{name}.{key}") from None


def _check_eit_scales(rabi: float, medium: MediumConfig, where: str, subject: str = "") -> None:
    """Hold a coupling Rabi frequency below the carrier, with its EIT scales finite.

    The rotating-wave model of the coupling needs the Rabi frequency below
    the optical carrier omega0.  Then 2 gamma13 OD must be finite, checked
    before the Rabi frequency's own scales so that its overflow names the
    OD; then |Omega_c|^2 must be normal, and the coherence time
    4 gamma13 OD / |Omega_c|^2 in ns and the scan abscissa
    gamma13^2 / |Omega_c|^2 finite.
    """
    if rabi >= medium.omega0:
        raise ConfigError(f"{subject}must be below the optical carrier frequency "
                          f"{medium.omega0 / MHZ:.6g} MHz, got {rabi / MHZ:g} MHz", where)
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
                               sections["medium"])
                for i, p in enumerate(powers))

    kappa_scale = _finite(data.get("kappa_scale", 1.0), "config.kappa_scale")
    if kappa_scale <= 0:
        raise ConfigError("must be > 0", "config.kappa_scale")

    return RunConfig(mode=mode, **sections, scan_powers=scan_powers,
                     kappa_scale=kappa_scale)


def check_power_mw(val, where: str, coupling: CouplingField, medium: MediumConfig) -> float:
    """A scan coupling power given in mW, returned in W, checked with the beam it gives.

    The power must be finite and > 0 in W, checked before ``coupling.at_power``
    so that the RangeError it may raise names a field of the configured beam.
    The Rabi frequency it gives is held to :func:`_check_eit_scales`, as a
    configured one is, since the scan divides by its square.
    """
    power = _finite(val, where) * 1e-3
    if power <= 0:
        raise ConfigError(f"coupling power must be > 0 in W, got {val!r} mW", where)
    try:
        rabi = coupling.at_power(power).peak_rabi
    except RangeError as exc:  # a configured beam of zero power or Rabi frequency
        key = next(key for key, attr, _ in SECTIONS["coupling"][1] if attr == exc.attr)
        raise ConfigError(f"{exc.rule} to scale the coupling beam to the scan powers "
                          f"({where}), got 0", f"coupling.{key}") from None
    _check_eit_scales(rabi, medium, where, "the coupling Rabi frequency it gives ")
    return power


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration document; a key written twice in one object is refused."""
    try:
        data = json.loads(text, object_pairs_hook=_Object)
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
    return (resources.files("biphoton_sim") / "presets" / f"{PRESETS[name]}.json").read_text(
        encoding="utf-8")


def load_preset(name: str) -> RunConfig:
    """Load one of the shipped configurations by name."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return parse_config(_preset_text(name))
