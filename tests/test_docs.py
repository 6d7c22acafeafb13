"""The README's code examples run and print the values their comments state."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from permutent.spectrum import weight_strings

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    """The first python block after the "## Library tour" heading."""
    section = README.read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_and_matches_its_comments():
    block = library_tour()
    namespace: dict = {}
    values = {}  # source of each bare expression -> its value
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    assert "# weights {1/6, 2/3, 1/6}" in block
    assert weight_strings(namespace["spec"]) == ["1/6", "2/3", "1/6"]
    assert "# 1.251629... bits" in block
    assert values["entropy_of_spectrum(spec)"] == pytest.approx(1.251629, abs=5e-7)
    assert values["block_entropy(cfg, 2)"] == pytest.approx(values["entropy_of_spectrum(spec)"],
                                                           abs=1e-12)
    assert values["verify_theorem(cfg, 2).passed"] is True
