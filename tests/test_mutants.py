"""The mutant catalogue (tests/mutants.py) stays in step with the code it
mutates and the tests it names; running the mutants is that script's job."""

from __future__ import annotations

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_names_one_place_and_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.path.startswith("src/") and m.new != m.old and m.tests, m.name
        count = (ROOT / m.path).read_text().count(m.old)
        assert count == 1, f"{m.name}: old text occurs {count} times in {m.path}"
        for node in m.tests:
            path, *scope, test = node.split("::")
            source = (ROOT / path).read_text()
            for name in (*scope, re.sub(r"\[.*\]$", "", test)):
                assert re.search(rf"^\s*(class|def) {name}\b", source, re.M), f"{m.name}: {node}"
