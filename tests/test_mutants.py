"""The mutation runner's registry stays in step with the source: the full
run is `python tests/mutants.py`, and tier-1 checks only what is cheap."""

import mutants


def test_every_snippet_occurs_once():
    # a refactor that moves a gate has to move its mutant too
    assert [m.name for m in mutants.MUTANTS if mutants.occurrences(m) != 1] == []


def test_registry_names_its_tests():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 56
    for m in mutants.MUTANTS:
        assert m.tests and m.snippet != m.replacement, m.name
        for node in m.tests:
            path, *parts = node.split("::")
            source = (mutants.ROOT / path).read_text()
            assert f"def {parts[-1]}(" in source, node
