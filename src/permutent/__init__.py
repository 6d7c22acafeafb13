"""Entanglement spectra and entropies of permutation-invariant spin states.

The library computes exact and asymptotic entanglement spectra of n-site
blocks in permutation-invariant states of arbitrary local spin, validated by
an independent brute-force partial-trace oracle.  See the README for the CLI.

Each module's ``__all__`` declares its public names; the package re-exports
exactly those.
"""

from . import combinatorics, entropy, gaussian, oracle, spectrum
from .combinatorics import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *combinatorics.__all__,
    *spectrum.__all__,
    *entropy.__all__,
    *gaussian.__all__,
    *oracle.__all__,
]
