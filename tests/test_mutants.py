"""The mutation ledger of tests/mutants.py stays in step with the code and
with tests/mutants.json: a refactor that removes a mutant's site fails
here at once, and so does a ledger that lists a mutant no test catches or
a test that is gone."""

import ast
import json

from mutants import LEDGER, MUTANTS, REPO


def test_each_mutant_site_occurs_once_in_its_file():
    sites = {name: (REPO / file).read_text(encoding="utf-8").count(old)
             for name, file, old, _, _ in MUTANTS}
    assert {name: n for name, n in sites.items() if n != 1} == {}


def test_mutant_names_are_unique():
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names)


def test_ledger_lists_every_mutant_as_caught():
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert sorted(ledger) == sorted(m[0] for m in MUTANTS)
    assert {name: result for name, result in ledger.items() if not isinstance(result, list)} == {}


def test_ledger_names_only_tests_that_exist():
    # A test id is "file::Class::function[params]"; each name must be
    # defined in the one before it.
    tests = {test for result in json.loads(LEDGER.read_text(encoding="utf-8")).values()
             if isinstance(result, list) for test in result}
    missing = []
    for test in sorted(tests):
        path, *names = test.partition("[")[0].split("::")
        path = REPO / path
        scope = ast.parse(path.read_text(encoding="utf-8")) if path.is_file() else None
        for name in names:
            scope = next((node for node in getattr(scope, "body", ()) if isinstance(
                node, (ast.ClassDef, ast.FunctionDef)) and node.name == name), None)
        if scope is None:
            missing.append(test)
    assert missing == []
