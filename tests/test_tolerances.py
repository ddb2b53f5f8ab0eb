"""No test tolerance is vacuous.

pytest.approx(expected, rel=r) also accepts anything within its default
abs=1e-12, so rel=3e-16 near 0 allows 1e-12; every approx that passes rel=
must therefore pass abs= as well (abs=0 for a purely relative bound).
"""

import ast
from pathlib import Path

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _is_approx(func) -> bool:
    """pytest.approx, or approx imported by name."""
    if isinstance(func, ast.Attribute):
        return (func.attr == "approx" and isinstance(func.value, ast.Name)
                and func.value.id == "pytest")
    return isinstance(func, ast.Name) and func.id == "approx"


def test_every_relative_approx_sets_abs():
    loose = [f"{path.name}:{node.lineno}"
             for path in TESTS
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _is_approx(node.func)
             and {k.arg for k in node.keywords} & {"rel", "abs"} == {"rel"}]
    assert not loose, f"pytest.approx with rel= but no abs=: {loose}"
