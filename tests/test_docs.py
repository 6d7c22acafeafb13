"""The README's code examples run and print the values their comments state."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from permutent.cli import main
from permutent.spectrum import weight_strings

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    """The first python block after the "## Library tour" heading."""
    section = README.read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def support_refusals() -> list[tuple[str, str, str]]:
    """(command, N, G) for each example of the "*Spectrum support.*" exit-code bullet."""
    bullet = README.read_text().split("  - *Spectrum support.*", 1)[1].split("\n  - ", 1)[0]
    bullet = re.sub(r"\s+", " ", bullet)
    return re.findall(r"`(spectrum [^`]+)` \(N = (\d+), G = (\d+)\)", bullet)


def test_support_refusals_cover_every_example():
    # a README edit that breaks the example pattern fails here instead of dropping a check
    assert len(support_refusals()) == 5


@pytest.mark.parametrize("command, rows, guard", support_refusals())
def test_support_refusal_exits_3_with_its_documented_message(command, rows, guard):
    args = command.replace("1,2,...,400", ",".join(map(str, range(1, 401)))).split()[1:]
    result = CliRunner().invoke(main, ["spectrum", *args])
    assert result.exit_code == 3
    assert result.stderr == f"error: composition support of at least {rows} exceeds guard {guard}\n"


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
    assert values["verify_theorem(cfg, [2])[0].passed"] is True
