"""No module of the package seeds a generator with a number written into its
code: a seed comes from the caller or from a named module constant."""

import ast
from pathlib import Path

import pytest

import lungrisk

SOURCES = sorted(Path(lungrisk.__file__).parent.glob("*.py"))
SEEDERS = ("default_rng", "SeedSequence")


def literal_seeds(source: str) -> list[int]:
    """The line of each `default_rng(...)` or `SeedSequence(...)` call in
    `source` that passes a numeric literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in SEEDERS and any(_is_number(arg) for arg in
                                   [*node.args, *(kw.value for kw in node.keywords)]):
            lines.append(node.lineno)
    return lines


def _is_number(node) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_the_lint_flags_a_literal_seed_and_passes_a_named_one():
    assert literal_seeds("rng = np.random.default_rng(0)") == [1]
    assert literal_seeds("x = 1\nr = rng or default_rng(seed=-3)") == [2]
    assert literal_seeds("s = np.random.SeedSequence(12.0)") == [1]
    assert literal_seeds("rng = np.random.default_rng(_CALIBRATION_SEED)") == []
    assert literal_seeds("rng = np.random.default_rng(config.seed)") == []
    assert literal_seeds("rng = np.random.default_rng()") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_seeds_a_generator_with_a_literal(path):
    assert literal_seeds(path.read_text()) == [], path.name
