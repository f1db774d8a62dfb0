"""Biphoton joint-amplitude simulation for backward four-wave mixing in EIT media.

Computes two-photon joint amplitudes psi(tau), transparency spectra,
coincidence-count waveforms, and two-photon interference patterns for
counter-propagating photon pairs generated in a cold-atom ensemble, in both
the nondegenerate (loss-shortened) and degenerate (symmetry-protected)
configurations.
"""

__version__ = "0.1.0"

from .analysis import (
    CoherenceReport,
    InsufficientSignalError,
    ScanPoint,
    cauchy_schwarz_factor,
    coherence_scan,
    extract_coherence_time,
    measure_coherence,
    measure_run,
    run_waveform,
)
from .biphoton import (
    coincidence_counts,
    kappa,
    psi_analytic_exp,
    psi_analytic_rect,
    psi_full,
    psi_uniform_spectrum,
)
from .config import (
    ConfigError,
    NumericsConfig,
    RunConfig,
    dump_config,
    load_config,
    load_preset,
    parse_config,
)
from .dispersion import (
    PTModeResult,
    PTRegime,
    eit_absorption_loss,
    eit_transmission,
    group_delay_estimate,
    group_delay_numeric,
    pt_mode_analysis,
)
from .grids import GridError, SpectralGrid, Waveform, spectrum_to_waveform
from .interference import (
    InterferometerConfig,
    beat_correlation,
    extract_beat_frequency,
    hom_residual_factor,
    visibility_ideal,
    visibility_with_noise,
)
from .params import (
    BeamField,
    CouplingField,
    DetectionConfig,
    GenerationMode,
    MediumConfig,
    beam_profile,
    density_prefactor,
)

__all__ = [
    "BeamField", "CoherenceReport", "ConfigError", "CouplingField",
    "DetectionConfig", "GenerationMode", "GridError", "InsufficientSignalError",
    "InterferometerConfig", "MediumConfig", "NumericsConfig",
    "PTModeResult", "PTRegime", "RunConfig", "ScanPoint",
    "SpectralGrid", "Waveform",
    "beam_profile", "beat_correlation", "cauchy_schwarz_factor",
    "coherence_scan", "coincidence_counts", "density_prefactor", "dump_config",
    "eit_absorption_loss", "eit_transmission", "extract_beat_frequency",
    "extract_coherence_time", "group_delay_estimate",
    "group_delay_numeric", "hom_residual_factor", "kappa", "load_config",
    "load_preset", "measure_coherence", "measure_run", "parse_config",
    "psi_analytic_exp", "psi_analytic_rect", "psi_full",
    "psi_uniform_spectrum", "pt_mode_analysis", "run_waveform",
    "spectrum_to_waveform", "visibility_ideal", "visibility_with_noise",
]
