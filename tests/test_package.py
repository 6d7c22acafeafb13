"""The package namespace: each public name is declared once, in its module's ``__all__``."""

import warnings
from collections import Counter
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import permutent
from permutent import combinatorics, entropy, gaussian, oracle, spectrum

MODULES = (combinatorics, spectrum, entropy, gaussian, oracle)

PUBLIC = {
    "__version__",
    "ResourceLimitError", "composition_count", "enumerate_compositions", "log2_binom",
    "SectorConfig", "Spectrum", "SpectrumEntry", "exact_spectrum", "spectrum_to_json_obj",
    "thermo_spectrum", "uniform_mixed_spectrum",
    "CorrectionReport", "EntropyReport", "asymptotic_entropy", "block_entropy",
    "entropy_of_spectrum", "entropy_report", "finite_size_corrections", "fit_prefactor",
    "max_entropy_bound",
    "GaussianModel", "build_gaussian", "composition_moments", "gaussian_entropy",
    "EigensolverConvergenceError", "MatchReport", "build_state", "dense_eigenvalues",
    "partial_trace", "verify_theorem", "verify_uniform_mixture",
}


def test_package_exports_the_public_names_once():
    assert len(permutent.__all__) == len(set(permutent.__all__))
    assert set(permutent.__all__) == PUBLIC
    assert all(hasattr(permutent, name) for name in permutent.__all__)


def test_each_name_listed_only_by_the_module_defining_it():
    listed = Counter(name for module in MODULES for name in module.__all__)
    assert listed == Counter(PUBLIC - {"__version__"})
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__
            assert getattr(permutent, name) is obj


def test_distribution_version_is_read_from_the_package():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        config = read_configuration(Path(__file__).parent.parent / "pyproject.toml", expand=True)
    assert config["project"]["version"] == permutent.__version__
