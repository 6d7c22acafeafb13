"""Entanglement spectra and entropies of permutation-invariant spin states.

The library computes exact and asymptotic entanglement spectra of n-site
blocks in permutation-invariant states of arbitrary local spin, validated by
an independent brute-force partial-trace oracle.  See the README for the CLI.
"""

from .combinatorics import (
    composition_count,
    enumerate_compositions,
    log2_binom,
)
from .entropy import (
    CorrectionReport,
    EffectiveSpin,
    EntropyReport,
    asymptotic_entropy,
    asymptotic_validity,
    block_entropy,
    effective_spin,
    entropy_of_spectrum,
    entropy_report,
    finite_size_corrections,
    fit_prefactor,
    max_entropy_bound,
)
from .gaussian import (
    GaussianModel,
    build_gaussian,
    composition_moments,
    gaussian_entropy,
)
from .oracle import (
    EigensolverConvergenceError,
    MatchReport,
    ResourceLimitError,
    build_state,
    dense_eigenvalues,
    partial_trace,
    verify_theorem,
    verify_uniform_mixture,
)
from .spectrum import (
    SectorConfig,
    Spectrum,
    SpectrumEntry,
    dimension_symmetric_subspace,
    exact_spectrum,
    spectrum_to_json_obj,
    thermo_spectrum,
    uniform_mixed_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "composition_count",
    "enumerate_compositions",
    "log2_binom",
    "SectorConfig",
    "Spectrum",
    "SpectrumEntry",
    "dimension_symmetric_subspace",
    "exact_spectrum",
    "thermo_spectrum",
    "uniform_mixed_spectrum",
    "spectrum_to_json_obj",
    "EntropyReport",
    "CorrectionReport",
    "EffectiveSpin",
    "entropy_of_spectrum",
    "block_entropy",
    "asymptotic_entropy",
    "asymptotic_validity",
    "max_entropy_bound",
    "effective_spin",
    "finite_size_corrections",
    "fit_prefactor",
    "entropy_report",
    "GaussianModel",
    "composition_moments",
    "build_gaussian",
    "gaussian_entropy",
    "MatchReport",
    "ResourceLimitError",
    "EigensolverConvergenceError",
    "build_state",
    "partial_trace",
    "dense_eigenvalues",
    "verify_theorem",
    "verify_uniform_mixture",
]
