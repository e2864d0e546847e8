"""The mutant list stays in step with the code: ``scripts/mutants.py`` runs
the mutants themselves, this only checks that each one still applies."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_applies_to_one_place_and_names_its_tests():
    mutants = json.loads((ROOT / "scripts" / "mutants.json").read_text())
    assert len({m["name"] for m in mutants}) == len(mutants)
    for mutant in mutants:
        text = (ROOT / mutant["file"]).read_text()
        assert text.count(mutant["old"]) == 1, mutant["name"]
        assert mutant["new"] != mutant["old"] and mutant["tests"], mutant["name"]
        for test in mutant["tests"]:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test
