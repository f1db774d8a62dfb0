"""Output checks for benchmark commands.

Every command the benchmark runs is checked here; a command whose check
fails counts towards ``failed_fraction``.  The checks are:

* the CSV and its JSON sidecar exist and parse, and the CSV has the
  expected header and row count;
* closed-form sidecar scalars (``alpha_l``, ``group_delay_ns``,
  ``coherence_formula_ns``, ``v0``, ``hom_residual_factor``) and the scan
  formula column equal values recomputed here from the configuration, to
  ``CLOSED_FORM_RTOL`` (sidecar) or ``CSV_RTOL`` (CSV, written with 9
  significant digits);
* engine scalars (``e_inverse_width_ns``, ``exp_tau_ns``) equal the values
  recorded in ``expected_engine.json`` at the commit that added the
  benchmark, to ``ENGINE_RTOL``; ``exp_tau_ns`` is compared as the decay
  rate 1/exp_tau, so that fits of a flat top (exp_tau of order 1e15 ns,
  fitted to rounding noise) compare as the zero rate they are;
* ``beat_frequency_mhz`` lies within one ``fft_bin_mhz`` of the applied
  shift (11 MHz in fig4b);
* ``selftest`` exits 0 and reports that all checks passed.

The formulas below are written out independently of the package, from the
documented definitions, so a change to the package cannot move both sides.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

MHZ = 2.0 * math.pi * 1e6  # linear MHz -> rad/s, as in the config format

CLOSED_FORM_RTOL = 1e-9
CSV_RTOL = 1e-8
ENGINE_RTOL = 1e-6

EIT_SPECTRUM_ROWS = 2001  # points of the transparency spectrum

HEADERS = {
    "eit-spectrum": "omega_mhz,transmission",
    "waveform": "tau_ns,re_psi,im_psi,abs2_psi,cc_counts",
    "beat": "tau_ns,g34,envelope",
    "scan": "x_gamma13sq_over_omegac_sq,t_coh_formula_ns,t_coh_full_ns",
}

EXPECTED_ENGINE_PATH = Path(__file__).resolve().parent / "expected_engine.json"


def engine_key(preset: str, engine: str) -> str:
    return f"waveform/{engine}/{preset}"


def load_expected_engine() -> dict:
    return json.loads(EXPECTED_ENGINE_PATH.read_text(encoding="utf-8"))


def _close(observed, expected: float, rtol: float) -> bool:
    return (isinstance(observed, (int, float)) and not isinstance(observed, bool)
            and math.isfinite(observed)
            and abs(observed - expected) <= rtol * abs(expected))


def group_delay_s(cfg: dict, omega_c: float) -> float:
    """L/V_g = 2 gamma13 OD / Omega_c^2."""
    med = cfg["medium"]
    return 2.0 * med["gamma13_mhz"] * MHZ * med["od"] / omega_c ** 2


def closed_form(cfg: dict) -> dict:
    """Sidecar scalars that follow from the configuration alone."""
    med = cfg["medium"]
    g12 = med["gamma12_mhz"] * MHZ
    g13 = med["gamma13_mhz"] * MHZ
    oc = cfg["coupling"]["peak_rabi_mhz"] * MHZ
    delay_ns = group_delay_s(cfg, oc) * 1e9
    out = {
        "alpha_l": 2.0 * med["od"] * g12 * g13 / (oc ** 2 + 4.0 * g12 * g13),
        "group_delay_ns": delay_ns,
        "coherence_formula_ns": 2.0 * delay_ns,
    }
    itf = cfg.get("interferometer")
    if itf is not None:
        r = itf["reflectance"]
        out["v0"] = 2.0 * r * (1.0 - r) / (r ** 2 + (1.0 - r) ** 2)
        out["hom_residual_factor"] = (2.0 * r - 1.0) ** 2
    return out


def scan_formula_ns(cfg: dict, power_mw: float) -> float:
    """Group-delay coherence time 2L/V_g at a scaled coupling power.

    The Rabi frequency scales as sqrt(P) at the fixed reference waist.
    """
    cp = cfg["coupling"]
    oc = cp["peak_rabi_mhz"] * MHZ * math.sqrt(power_mw / cp["power_mw"])
    return 2.0 * group_delay_s(cfg, oc) * 1e9


def _read_csv(path: Path, header: str, n_rows: int, errors: list[str]):
    if not path.is_file():
        errors.append(f"missing CSV {path.name}")
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        errors.append(f"{path.name}: header {lines[:1]!r}, expected {header!r}")
        return None
    if len(lines) - 1 != n_rows:
        errors.append(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
        return None
    n_cols = header.count(",") + 1
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != n_cols:
                raise ValueError(f"{len(fields)} fields")
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            errors.append(f"{path.name} line {i}: {exc}")
            return None
    return rows


def _read_sidecar(csv_path: Path, errors: list[str]):
    path = csv_path.with_suffix(".json")
    if not path.is_file():
        errors.append(f"missing sidecar {path.name}")
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        errors.append(f"{path.name}: {exc}")
        return None


def _check_scalars(side: dict, expected: dict, keys, errors: list[str]) -> None:
    for key in keys:
        if not _close(side.get(key), expected[key], CLOSED_FORM_RTOL):
            errors.append(f"{key} = {side.get(key)!r}, recomputed {expected[key]!r}")


def _check_engine(side: dict, stored: dict, errors: list[str]) -> None:
    width = stored["e_inverse_width_ns"]
    if not _close(side.get("e_inverse_width_ns"), width, ENGINE_RTOL):
        errors.append(f"e_inverse_width_ns = {side.get('e_inverse_width_ns')!r}, "
                      f"stored {width!r}")
    got, want = side.get("exp_tau_ns"), stored["exp_tau_ns"]
    if (got is None) != (want is None):
        errors.append(f"exp_tau_ns = {got!r}, stored {want!r}")
    elif got is not None and not (
            isinstance(got, (int, float)) and got != 0
            and abs(1.0 / got - 1.0 / want) <= ENGINE_RTOL / width):
        errors.append(f"exp_tau_ns = {got!r}, stored {want!r}")


def check_outputs(cmd, returncode: int, stdout: str, expected_engine: dict) -> list[str]:
    """Return the reasons ``cmd``'s run is wrong; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    errors: list[str] = []
    if cmd.kind == "selftest":
        if "checks passed" not in stdout:
            errors.append("selftest did not report that all checks passed")
        return errors

    cfg = cmd.config
    expected = closed_form(cfg)
    if cmd.kind == "scan":
        n_rows = len(cfg["scan"]["powers_mw"])
    elif cmd.kind == "eit-spectrum":
        n_rows = EIT_SPECTRUM_ROWS
    else:
        n_rows = cfg["numerics"]["n_omega"]
    rows = _read_csv(cmd.out, HEADERS[cmd.kind], n_rows, errors)
    side = _read_sidecar(cmd.out, errors)
    if rows is None or side is None:
        return errors

    if cmd.kind == "eit-spectrum":
        _check_scalars(side, expected, ("alpha_l", "group_delay_ns"), errors)
    elif cmd.kind == "waveform":
        if side.get("engine") != cmd.engine:
            errors.append(f"engine {side.get('engine')!r}, expected {cmd.engine!r}")
        _check_scalars(side, expected,
                       ("alpha_l", "group_delay_ns", "coherence_formula_ns"), errors)
        stored = expected_engine.get(engine_key(cmd.preset, cmd.engine))
        if stored is None:
            errors.append(f"no stored engine values for {cmd.preset}/{cmd.engine}")
        else:
            _check_engine(side, stored, errors)
    elif cmd.kind == "beat":
        _check_scalars(side, expected, ("v0", "hom_residual_factor"), errors)
        shift = cfg["interferometer"]["shift_mhz"]
        beat, fft_bin = side.get("beat_frequency_mhz"), side.get("fft_bin_mhz")
        if not (isinstance(beat, float) and isinstance(fft_bin, float)
                and abs(beat - shift) <= fft_bin):
            errors.append(f"beat_frequency_mhz {beat!r} not within one bin "
                          f"({fft_bin!r}) of {shift} MHz")
    elif cmd.kind == "scan":
        powers = cfg["scan"]["powers_mw"]
        if side.get("n_points") != len(powers):
            errors.append(f"n_points {side.get('n_points')!r}, expected {len(powers)}")
        for p, (_, formula, full) in zip(powers, rows):
            want = scan_formula_ns(cfg, p)
            if abs(formula - want) > CSV_RTOL * want:
                errors.append(f"t_coh_formula_ns {formula!r} at {p} mW, "
                              f"recomputed {want!r}")
            if cmd.full != (math.isfinite(full) and full > 0):
                errors.append(f"t_coh_full_ns {full!r} at {p} mW with full={cmd.full}")
    return errors
