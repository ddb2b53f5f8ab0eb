"""The mutant list (tests/mutants.py) still points at real code."""

import ast

import mutants


def _resolves(test: str) -> bool:
    """Whether a pytest id (path, then ::Class::test, parameters dropped)
    names a file and, with ast, the classes and functions inside it."""
    path, *names = test.split("[")[0].split("::")
    if not (mutants.ROOT / path).is_file():
        return False
    body = ast.parse((mutants.ROOT / path).read_text()).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_each_mutant_text_occurs_exactly_once_in_its_file():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert (mutants.ROOT / m.path).read_text().count(m.old) == 1, m.name


def test_each_named_test_resolves_in_its_file():
    for m in mutants.MUTANTS:
        for test in m.tests:
            assert _resolves(test), (m.name, test)
    # a renamed test or class, or a missing file, does not resolve
    for test in ("tests/test_mutants.py::test_no_such_test",
                 "tests/test_shrinkage.py::NoSuchClass::"
                 "test_an_overflowing_argument_takes_its_limit",
                 "tests/test_no_such_file.py"):
        assert not _resolves(test), test
