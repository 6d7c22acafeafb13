"""The benchmark's tracer wraps library names by name; every one must exist.

``perfbench/run.py`` lists the names it replaces with timing wrappers in
``trace_targets``.  A change under ``src/`` that drops or renames one of them
fails here, not only in a traced benchmark run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
from pathlib import Path

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
