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
leaves no output.  The handler returns the CSV as blocks that are formatted
as they are written, so no command holds its text whole.  Both files are
written under temporary names and renamed into place, so a write that fails,
or a block that fails to format, leaves neither.  An ``--out`` that is its own
sidecar path (``x.json``), or whose CSV or sidecar is the config file, exits
2 before the config is read.

Inputs are checked in two layers.  ``load_config`` checks what holds for
every command, a non-zero coupling's EIT scales included, and ``_scan``
holds each ``--powers`` value to the same bounds through ``check_power_mw``.
Every waveform, each engine's and each ``scan --full`` power's, is built by
``_build_waveform``: the engine first holds it to ``check_grid`` (a coupling
and an OD > 0 and a grid that can hold the waveform; ``scan --full`` first
holds every power to its one grid, so a refusal names a window that suits
them all), and a |psi|^2 or counts not finite or peaking below a normal
double (``check_level``) are rejected before anything is derived from them,
as is a non-finite transmission and a beat shift the tau grid cannot resolve
(``beat_correlation``);
numpy's floating-point warnings are off while a handler runs, so that
rejection is the one line on stderr.  Every coherence width, ``waveform``'s
and each ``scan --full`` power's, is read off the detector's counts by
``analysis.measure_coherence``; counts whose peak stands less than 5x above
``detection.accidental_floor`` exit 2 naming that field.

Exit codes: 0 success, 2 configuration problem, 3 I/O problem,
4 numerics (grid cannot support the request).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import InsufficientSignalError, coherence_scan, measure_coherence
from .biphoton import (
    check_grid,
    psi_analytic_exp,
    psi_analytic_rect,
    psi_full,
    psi_uniform_spectrum,
)
from .config import PRESET_NAMES, ConfigError, RunConfig, check_power_mw, load_config
from .dispersion import eit_absorption_loss, eit_transmission, group_delay_estimate
from .grids import (GridError, check_finite, check_level, csv_text, spectrum_to_waveform,
                    waveform_csv_rows)
from .interference import (
    beat_correlation,
    extract_beat_frequency,
    hom_residual_factor,
    visibility_ideal,
    visibility_with_noise,
)
from .params import GenerationMode
from .selftest import run_selftest


# waveform engines: (cfg, grid, threads) -> Waveform, the spectral ones' S through the FFT
ENGINES = {
    "full": lambda cfg, grid, threads: spectrum_to_waveform(grid, psi_full(
        grid, cfg.numerics.z_panels, cfg.medium, cfg.pump, cfg.coupling, cfg.mode,
        scale=cfg.kappa_scale, threads=threads)),
    "uniform": lambda cfg, grid, threads: spectrum_to_waveform(grid, psi_uniform_spectrum(
        grid, cfg.medium, cfg.pump, cfg.coupling, cfg.mode, scale=cfg.kappa_scale)),
    "analytic": lambda cfg, grid, threads: (
        psi_analytic_rect(grid, cfg.medium, cfg.pump, cfg.coupling, scale=cfg.kappa_scale)
        if cfg.mode is GenerationMode.DEGENERATE
        else psi_analytic_exp(grid, cfg.medium, cfg.coupling)),
}


def _build_waveform(cfg: RunConfig, engine: str, threads: int):
    wave = ENGINES[engine](cfg, cfg.numerics.grid(), threads)
    check_level(wave.intensity, f"the {engine} engine's |psi|^2")
    return wave


# ---------------------------------------------------------------------------
# Dataset handlers: (cfg, args, threads) -> (csv_text blocks, sidecar payload)
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
    counts, report = measure_coherence(wave, cfg.detection)
    delay = group_delay_estimate(cfg.medium, cfg.coupling.peak_rabi)
    return waveform_csv_rows(wave, counts), {
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
    if cfg.mode is not GenerationMode.DEGENERATE:
        raise ConfigError("the beat formulas assume |psi(tau)| = |psi(-tau)|, which only the "
                          f"degenerate scheme gives, got {cfg.mode.value!r}", "config.mode")
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
        # the trace's level is its envelope's: the beat modulation may null
        # the trace itself (a balanced splitter with no shift) without any
        # input underflowing
        check_level(scale * envelope, "the beat coincidence trace")
        cc = scale * g34
        payload["visibility_with_noise"] = visibility_with_noise(
            itf.reflectance, itf.noise_counts, float(cc.max()), float(cc.min()))
    return csv_text("tau_ns,g34,envelope", wave.tau * 1e9, g34, envelope), payload


def _scan(cfg: RunConfig, args, threads: int):
    field = "scan.powers_mw"
    if args.powers is not None:
        field = "--powers"
        try:
            values = [float(tok) for tok in args.powers.split(",")]
        except ValueError:
            raise ConfigError(f"must be comma-separated numbers, got {args.powers!r}",
                              field) from None
        powers = [check_power_mw(p, field, cfg.coupling, cfg.medium) for p in values]
    elif cfg.scan_powers is not None:
        powers = list(cfg.scan_powers)
    else:
        raise ConfigError("no coupling powers given (use --powers or a scan section)",
                          field)
    if len(powers) < 2:
        raise ConfigError(f"need at least 2 power points, got {len(powers)}", field)

    points = coherence_scan(powers, cfg.medium, cfg.coupling)
    if args.full:
        # every power on the one grid before the first kernel runs, so that a
        # refusal costs no waveform and names a window that suits them all
        check_grid(cfg.numerics.grid(), cfg.medium, *(p.coupling for p in points))

    def full_width_ns(p) -> float:
        wave = _build_waveform(replace(cfg, coupling=p.coupling), "full", threads)
        return measure_coherence(wave, cfg.detection)[1].e_inverse_width * 1e9

    return csv_text(
        "x_gamma13sq_over_omegac_sq,t_coh_formula_ns,t_coh_full_ns",
        [p.x for p in points], [p.t_coh_formula * 1e9 for p in points],
        [full_width_ns(p) if args.full else math.nan for p in points],
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


def _write_all(files: dict[Path, Iterable[bytes | bytearray]]) -> None:
    """Write every file or none.

    Each file's blocks are written to a temporary name in its target's
    directory as they arrive, so no file's text is held whole; only when all
    are written are they renamed into place.  Any exception, from a write or
    from the code that makes the blocks, removes the temporaries and every
    file already renamed, then propagates.
    """
    temps: list[Path] = []
    placed: list[Path] = []
    try:
        for path, blocks in files.items():
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmp, "xb") as fh:
                temps.append(tmp)
                for block in blocks:
                    fh.write(block)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
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
        out = Path(args.out)
        sidecar = out.with_suffix(".json") if out.name else out
        if sidecar == out:
            raise ConfigError(f"must name a CSV file apart from its .json sidecar, got "
                              f"{args.out!r}", "--out")
        if args.config not in PRESET_NAMES and (
                os.path.realpath(args.config) in map(os.path.realpath, (out, sidecar))):
            raise ConfigError(f"must keep the CSV and its .json sidecar off the config file "
                              f"{args.config!r}, got {args.out!r}", "--out")
        cfg = load_config(args.config)
        # an overflow reaches the output as inf or nan, which check_finite and
        # check_level reject in one line; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            blocks, payload = args.run(cfg, args, args.threads)
        sidecar_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_all({out: blocks, sidecar: [sidecar_text.encode("ascii")]})
        return 0
    except GridError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 4
    except InsufficientSignalError as exc:
        # the floor is the one detector input that can swamp the counts
        print(f"config error: detection.accidental_floor: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
