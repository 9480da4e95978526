"""The kill table in ``tests/mutants.py`` stays in step with the source.

Each entry's old text must occur exactly once in its file, so the mutation
lands where it was recorded, and each test it names must be defined in the
named test file, read with ``ast``. A refactor that moves mutated code or
renames a killing test fails here until the table follows it.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"{Path(m.file).stem}{i}" for i, m in enumerate(MUTANTS)])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    source = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.kills and mutant.why
    for node_id in mutant.kills:
        path, _, name = node_id.partition("::")
        assert name.partition("[")[0] in _test_functions(ROOT / path), node_id
