"""No private module-level name in the package is left without a use there.

A helper whose last caller moved to the tests or went away is dead code;
this check finds it by reading the package's source with ``ast``.
"""

import ast
from pathlib import Path

import rotoxor

PACKAGE = Path(rotoxor.__file__).parent


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _private_definitions(tree: ast.Module):
    # (name, node) for each module-level def, class or assignment of a
    # _single_underscore name.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(modules, owner: str, name: str, definition: ast.AST) -> int:
    # Loads of the name in its own module outside its definition; elsewhere
    # `from .owner import name` or `owner.name`.
    inside = set(map(id, ast.walk(definition)))
    count = 0
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if module == owner:
                count += (isinstance(node, ast.Name) and node.id == name
                          and isinstance(node.ctx, ast.Load) and id(node) not in inside)
            elif isinstance(node, ast.ImportFrom):
                count += node.module == owner and any(a.name == name for a in node.names)
            elif isinstance(node, ast.Attribute):
                count += (node.attr == name and isinstance(node.value, ast.Name)
                          and node.value.id == owner)
    return count


def test_every_private_name_has_a_use_in_the_package():
    modules = _modules()
    definitions = [(module, name, node) for module, tree in modules.items()
                   for name, node in _private_definitions(tree)]
    stranded = [f"{module}.{name}" for module, name, node in definitions
                if not _references(modules, module, name, node)]
    assert not stranded, f"private names with no use in the package: {stranded}"
    assert len(definitions) > 50  # the walk found the package's helpers
