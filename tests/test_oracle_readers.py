"""Every top-level function of tests/oracles.py has a reader: some
tests/test_*.py names it, or names an oracle that reads it.  So a retired
implementation cannot outlive the last test that compared with it."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def read_names(tree):
    """The identifiers a syntax tree reads: names, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_oracle_has_a_reader():
    module = ast.parse((TESTS / "oracles.py").read_text())
    oracles = {f.name: read_names(f) for f in module.body if isinstance(f, ast.FunctionDef)}
    read = set()
    for path in TESTS.glob("test_*.py"):
        if path.name != Path(__file__).name:
            read |= read_names(ast.parse(path.read_text())) & oracles.keys()
    todo = list(read)
    while todo:
        for name in oracles[todo.pop()] & (oracles.keys() - read):
            read.add(name)
            todo.append(name)
    kept = {"exact_q", "exact_abs_S", "midpoint_disk", "divisor_r2_range",
            "enumerated_figure_data", "dense_abs_S_segments"}
    assert kept <= read
    assert sorted(oracles.keys() - read) == []
