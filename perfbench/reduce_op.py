"""One `reduce-spectra` operation: build a block spectrum and reduce it.

Run as ``python3 perfbench/reduce_op.py <sector-name>`` with the checkout's
``src`` on PYTHONPATH; prints the support size, the entropy and the count
moments as one JSON line.  The traced run calls :func:`reduce_sector` in
process.  Library names are looked up on their modules at call time, so the
tracer's wrappers see these calls.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from permutent import entropy, gaussian, spectrum

# "exact" is the weight path the library should choose: exact rationals up
# to L = 300 and for rational densities, the log domain beyond.
SECTORS = {
    "exact-finite": {"kind": "finite", "occupations": [60] * 5, "n": 30, "exact": True},
    "log-finite": {"kind": "finite", "occupations": [400] * 5, "n": 30, "exact": False},
    "exact-thermo": {"kind": "thermo", "densities": ["1/4"] * 4, "n": 60, "exact": True},
    "uniform": {"kind": "uniform", "d": 5, "n": 30, "exact": True},
}


def build(sector: dict) -> "spectrum.Spectrum":
    n = sector["n"]
    if sector["kind"] == "finite":
        return spectrum.exact_spectrum(spectrum.SectorConfig.finite(sector["occupations"]), n)
    if sector["kind"] == "thermo":
        return spectrum.thermo_spectrum([Fraction(p) for p in sector["densities"]], n)
    return spectrum.uniform_mixed_spectrum(n, sector["d"])


def reduce_sector(name: str) -> dict:
    spec = build(SECTORS[name])
    mean, cov = gaussian.composition_moments(spec)
    return {
        "sector": name,
        "support": spec.support_size,
        "exact": spec.is_exact,
        "entropy_bits": entropy.entropy_of_spectrum(spec),
        "mean": mean.tolist(),
        "covariance": cov.tolist(),
    }


if __name__ == "__main__":
    print(json.dumps(reduce_sector(sys.argv[1])))
