"""The benchmark's tracer wraps library names by name; every one must exist.

``perfbench/run.py`` lists the names it replaces with timing wrappers in
``trace_targets``.  A change under ``src/`` that drops or renames one of them
fails here, not only in a traced benchmark run.  So does a change to a
spectrum builder's output that breaks what the tracer's wrapper reads.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permutent import spectrum
from permutent.combinatorics import enumerate_compositions
from permutent.spectrum import SectorConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_MODULES = ("run", "checks", "spans")


@contextlib.contextmanager
def loaded_run():
    """perfbench/run.py loaded from its path; sys.path and sys.modules restored after."""
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["run"] = module  # dataclasses look their module up while it loads
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)


def test_every_traced_name_exists():
    before = {name: sys.modules.get(name) for name in BENCH_MODULES}
    with loaded_run() as run:
        targets = run.trace_targets(run.spans.Tracer())
    assert len(targets) >= 20
    missing = [
        f"{module.__name__}.{name}" for module, name, _ in targets if not hasattr(module, name)
    ]
    assert missing == []
    assert {name: sys.modules.get(name) for name in BENCH_MODULES} == before


@pytest.mark.parametrize(
    "name, args, kwargs",
    [
        ("exact_spectrum", (SectorConfig.finite((4, 3, 2)), 5), {}),
        ("exact_spectrum", (SectorConfig.finite((4, 3, 2)), 5), {"exact": False}),
        ("exact_spectrum", (SectorConfig.finite((0, 5, 0)), 3), {}),
        ("thermo_spectrum", ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 6), {}),
        ("thermo_spectrum", ((0.5, 0.25, 0.25, 0.0), 7), {"exact": False}),
        ("thermo_spectrum", ((Fraction(1, 2), Fraction(1, 2)), 40), {"cutoff": 1e-3}),
        ("uniform_mixed_spectrum", (4, 3), {}),
    ],
    ids=["finite-exact", "finite-log", "finite-point-mass", "thermo-exact", "thermo-log",
         "thermo-cutoff", "uniform"],
)
def test_the_traced_builders_record_what_they_built(name, args, kwargs):
    with loaded_run() as run:
        tracer = run.spans.Tracer()
        build = run.spans.spectrum_builder(tracer, enumerate_compositions)(getattr(spectrum, name))
        spec = build(*args, **kwargs)
    built, walk = tracer.spans
    assert (built["name"], walk["name"]) == ("spectrum.build", "combinatorics.enumerate")
    assert built["attrs"]["entries"] == spec.support_size
    assert built["attrs"]["exact"] == spec.is_exact
    walked = walk["attrs"]["compositions"]
    if kwargs.get("cutoff"):  # a cutoff keeps part of the walk's rows
        assert walked > spec.support_size
    else:
        assert walked == spec.support_size


def test_sweep_chain_passes_its_own_checks(tmp_path):
    # both sweeps against the benchmark's closed form, symmetry and bound; both figure SVGs
    with loaded_run() as run:
        problems = {
            op.name: op.check(run.run_in_process(op, run.spans.Tracer()))
            for op in run.sweep_chain(tmp_path, 0)
        }
    assert problems == {"sweep-finite": [], "sweep-thermo": [], "figures": []}
