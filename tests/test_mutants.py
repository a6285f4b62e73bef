"""The mutant catalogue (``tests/mutants.py``) stays in step with the code
and the tests: each original line is in ``src/`` exactly once, each mutant
differs from it, and each entry names an existing killing test or is marked
equivalent with its reason.  Applying the mutants and running their tests
is ``python tests/mutants.py WORKDIR``, not part of this module."""
import ast
from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS, apply

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dscluster").glob("*.py"))


def _label(mutant):
    return f"{mutant.module}: {mutant.original}"


@pytest.mark.parametrize("mutant", MUTANTS, ids=_label)
def test_original_line_occurs_once_in_src(mutant):
    hits = [(path.name, number) for path in SOURCES
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if line.strip() == mutant.original]
    assert len(hits) == 1 and hits[0][0] == mutant.module, hits


@pytest.mark.parametrize("mutant", MUTANTS, ids=_label)
def test_mutant_changes_exactly_its_line(mutant):
    source = (ROOT / "src" / "dscluster" / mutant.module).read_text()
    mutated = apply(mutant, source)
    changed = [(a, b) for a, b in zip(source.splitlines(), mutated.splitlines()) if a != b]
    assert len(changed) == 1
    assert changed[0][1].strip() == mutant.mutant != mutant.original


@pytest.mark.parametrize("mutant", MUTANTS, ids=_label)
def test_killing_test_exists_or_equivalence_is_argued(mutant):
    if mutant.killed_by == EQUIVALENT:
        assert mutant.reason
        return
    path, *names = mutant.killed_by.split("[")[0].split("::")
    scope = ast.parse((ROOT / path).read_text())
    for name in names:
        found = [node for node in scope.body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        assert found, f"{mutant.killed_by}: no {name} in {path}"
        scope = found[0]
