"""Command-line interface: figure-style datasets as CSV plus JSON sidecars.

Subcommands
-----------
eit-spectrum   transparency spectrum with resonance diagnostics
waveform       joint-amplitude waveform (full, uniform, or analytic engine)
beat           two-photon beating trace behind the interferometer
scan           coherence time versus coupling power
selftest       oracle-equivalence and invariant suite (--json: the records)

``main`` loads the config once, calls the subcommand's handler and only then
writes the CSV and its sidecar (same path, ``.json`` suffix), so a failed run
leaves no output.  Both files are written under temporary names and renamed
into place, so a failed write leaves neither.

Inputs are checked in two layers.  ``load_config`` checks what holds for
every command, a non-zero coupling's EIT scales included, and ``_scan``
holds each ``--powers`` value to the same bounds through ``check_power_mw``.
``check_grid``, which every waveform passes (each engine's and each
``scan --full`` power's), adds a coupling and an OD > 0 and a grid that can
hold the waveform.  A waveform with a non-finite amplitude, or a spectrum
with a non-finite transmission, is rejected before anything is derived from
it.

Exit codes: 0 success, 2 configuration problem, 3 I/O problem,
4 numerics (grid cannot support the request).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import InsufficientSignalError, coherence_scan, extract_coherence_time
from .biphoton import (
    check_grid,
    coincidence_counts,
    kappa,
    psi_analytic_exp,
    psi_analytic_rect,
    psi_full,
    psi_uniform_spectrum,
)
from .config import ConfigError, RunConfig, check_power_mw, load_config
from .dispersion import eit_absorption_loss, eit_transmission, group_delay_estimate
from .grids import GridError, check_finite, csv_text, spectrum_to_waveform, waveform_csv_rows
from .interference import (
    beat_correlation,
    extract_beat_frequency,
    hom_residual_factor,
    visibility_ideal,
    visibility_with_noise,
)
from .params import GenerationMode
from .selftest import run_selftest


def _analytic(cfg: RunConfig, grid, threads: int):
    if cfg.mode is GenerationMode.DEGENERATE:
        k0 = kappa(0.0, 0.0, cfg.medium, cfg.pump, cfg.coupling, cfg.mode,
                   scale=cfg.kappa_scale)
        return psi_analytic_rect(grid, cfg.medium, cfg.coupling, cfg.mode,
                                 kappa0=k0, pump=cfg.pump)
    alpha = eit_absorption_loss(cfg.medium, cfg.coupling.peak_rabi) / cfg.medium.length
    vg = cfg.medium.length / group_delay_estimate(cfg.medium, cfg.coupling.peak_rabi)
    return psi_analytic_exp(alpha, vg, cfg.medium, grid)


# waveform engines: (cfg, grid, threads) -> Waveform
ENGINES = {
    "full": lambda cfg, grid, threads: psi_full(
        grid, cfg.numerics.z_panels, cfg.medium, cfg.pump, cfg.coupling, cfg.mode,
        scale=cfg.kappa_scale, threads=threads),
    "uniform": lambda cfg, grid, threads: spectrum_to_waveform(grid, psi_uniform_spectrum(
        grid, cfg.medium, cfg.pump, cfg.coupling, cfg.mode, scale=cfg.kappa_scale)),
    "analytic": _analytic,
}


def _build_waveform(cfg: RunConfig, engine: str, threads: int):
    grid = cfg.numerics.grid()
    check_grid(grid, cfg.medium, cfg.coupling)
    wave = ENGINES[engine](cfg, grid, threads)
    check_finite(wave.amplitude, f"the {engine} engine gave a non-finite amplitude")
    return wave


# ---------------------------------------------------------------------------
# Dataset handlers: (cfg, args, threads) -> (csv_text, sidecar payload)
# ---------------------------------------------------------------------------

def _eit_spectrum(cfg: RunConfig, args, threads: int):
    oc = cfg.coupling.peak_rabi  # zero is the two-level spectrum, without a group delay
    span = 4.0 * oc if oc > 0 else 2.0 * math.pi * 30e6
    omega = np.linspace(-span, span, 2001)
    trans = eit_transmission(omega, oc, cfg.medium)
    check_finite(trans, "eit-spectrum gave a non-finite transmission", "omega")
    alpha_l = eit_absorption_loss(cfg.medium, oc)
    return csv_text("omega_mhz,transmission", omega / (2e6 * math.pi), trans), {
        "alpha_l": alpha_l,
        "resonance_transmission": float(eit_transmission(0.0, oc, cfg.medium)),
        # both reported: T(0) = exp(-2 alpha L) here, while exp(-alpha L) is
        # the field-amplitude factor often quoted alongside
        "exp_minus_alpha_l": math.exp(-alpha_l),
        "group_delay_ns": group_delay_estimate(cfg.medium, oc) * 1e9 if oc > 0 else None,
    }


def _waveform(cfg: RunConfig, args, threads: int):
    wave = _build_waveform(cfg, args.engine, threads)
    counts = coincidence_counts(wave, cfg.detection)
    text = waveform_csv_rows(wave, counts)
    try:
        report = extract_coherence_time(counts, wave.tau, floor=cfg.detection.accidental_floor)
    except InsufficientSignalError as exc:
        raise ConfigError(str(exc), "detection.accidental_floor") from None
    delay = group_delay_estimate(cfg.medium, cfg.coupling.peak_rabi)
    return text, {
        "e_inverse_width_ns": report.e_inverse_width * 1e9,
        "exp_tau_ns": None if report.exp_tau is None else report.exp_tau * 1e9,
        "fit_rmse": report.fit_rmse,
        "method": "width_only" if report.exp_tau is None else "exp_fit",
        "engine": args.engine,
        "alpha_l": eit_absorption_loss(cfg.medium, cfg.coupling.peak_rabi),
        "group_delay_ns": delay * 1e9,
        "coherence_formula_ns": 2.0 * delay * 1e9,
    }


def _beat(cfg: RunConfig, args, threads: int):
    itf = cfg.interferometer
    if itf is None:
        raise ConfigError("missing required section for the beat command",
                          "interferometer")
    wave = _build_waveform(cfg, "full", threads)
    envelope = wave.intensity
    g34 = beat_correlation(wave, itf)
    beat_hz = extract_beat_frequency(wave.tau, g34, envelope, itf.reflectance)
    payload = {
        "beat_frequency_mhz": beat_hz / 1e6,
        "fft_bin_mhz": 1.0 / (len(wave.tau) * (wave.tau[1] - wave.tau[0])) / 1e6,
        "v0": visibility_ideal(itf.reflectance),
        "hom_residual_factor": hom_residual_factor(itf.reflectance),
    }
    if itf.noise_counts > 0:
        scale = (cfg.detection.duty_cycle * cfg.detection.joint_efficiency
                 * cfg.detection.bin_width * cfg.detection.collection_time)
        cc = scale * g34
        payload["visibility_with_noise"] = visibility_with_noise(
            itf.reflectance, itf.noise_counts, float(cc.max()), float(cc.min()))
    return csv_text("tau_ns,g34,envelope", wave.tau * 1e9, g34, envelope), payload


def _scan(cfg: RunConfig, args, threads: int):
    field = "scan.powers_mw"
    if args.powers is not None:
        field = "--powers"
        try:
            values = [float(tok) for tok in args.powers.split(",") if tok]
        except ValueError:
            raise ConfigError(f"must be comma-separated numbers, got {args.powers!r}",
                              field) from None
        powers = [check_power_mw(p, field, cfg.coupling, cfg.medium) * 1e-3 for p in values]
    elif cfg.scan_powers is not None:
        powers = list(cfg.scan_powers)
    else:
        raise ConfigError("no coupling powers given (use --powers or a scan section)",
                          field)
    if len(powers) < 2:
        raise ConfigError(f"need at least 2 power points, got {len(powers)}", field)

    points = coherence_scan(powers, cfg.medium, cfg.pump, cfg.coupling, cfg.mode,
                            grid=cfg.numerics.grid() if args.full else None,
                            z_panels=cfg.numerics.z_panels,
                            scale=cfg.kappa_scale, threads=threads)
    return csv_text(
        "x_gamma13sq_over_omegac_sq,t_coh_formula_ns,t_coh_full_ns",
        [p.x for p in points], [p.t_coh_formula * 1e9 for p in points],
        [float("nan") if p.t_coh_full is None else p.t_coh_full * 1e9 for p in points],
    ), {
        "n_points": len(points),
        "t_coh_formula_first_us": points[0].t_coh_formula * 1e6,
        "t_coh_formula_last_us": points[-1].t_coh_formula * 1e6,
        "slope_s": 4.0 * cfg.medium.od / cfg.medium.gamma13,
    }


DATASETS = {
    "eit-spectrum": (_eit_spectrum, "transparency spectrum"),
    "waveform": (_waveform, "joint-amplitude waveform"),
    "beat": (_beat, "two-photon beating trace"),
    "scan": (_scan, "coherence time vs coupling power"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton-sim",
        description="Biphoton waveform, spectrum, interference, and scan datasets")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    dataset = {}
    for name, (run, help_text) in DATASETS.items():
        p = dataset[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True,
                       help="configuration file path or preset name")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--threads", type=int, default=0,
                       help="worker threads, 0 = auto")
    dataset["waveform"].add_argument("--engine", choices=tuple(ENGINES), default="full")
    dataset["scan"].add_argument("--powers", type=str, default=None,
                                 help="comma-separated coupling powers in mW")
    dataset["scan"].add_argument("--full", action="store_true",
                                 help="also extract widths from full waveforms")
    sub.add_parser("selftest", help="run the invariant suite").add_argument(
        "--json", action="store_true", help="print the check records as one JSON array")
    return parser


def _write_all(files: dict[Path, str]) -> None:
    """Write every file or none.

    Each text goes to a temporary name in its target's directory; only when
    all are written are they renamed into place.  An ``OSError`` removes the
    temporaries and every file already renamed, then propagates.
    """
    temps: list[Path] = []
    placed: list[Path] = []
    try:
        for path, text in files.items():
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmp, "x", encoding="utf-8") as fh:
                temps.append(tmp)
                fh.write(text)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
            placed.append(path)
    except OSError:
        for path in temps + placed:
            path.unlink(missing_ok=True)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return run_selftest(as_json=args.json)
        if args.threads < 0:
            raise ConfigError(f"must be >= 0, got {args.threads}", "--threads")
        cfg = load_config(args.config)
        text, sidecar = args.run(cfg, args, args.threads)
        out = Path(args.out)
        sidecar_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        _write_all({out: text, out.with_suffix(".json"): sidecar_text})
        return 0
    except GridError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
