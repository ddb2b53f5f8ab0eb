"""The mutant list (tests/mutants.py) still points at real code."""

import mutants


def test_each_mutant_text_occurs_exactly_once_in_its_file():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert (mutants.ROOT / m.path).read_text().count(m.old) == 1, m.name
        for test in m.tests:
            assert (mutants.ROOT / test.split("::")[0]).is_file(), (m.name, test)
