"""No module-level name in the package is left without a use there.

A helper whose last caller moved to the tests or went away is dead code;
these checks find it by reading the package's source with ``ast``. A
private name must have a use in the package. A public one must have a use
in a package module other than ``__init__``, or be exported by
``rotoxor.__all__``, or be listed in ``UNUSED_PUBLIC`` with the reason it
stays. A private name that one module uses from another is listed in
``CROSS_MODULE_PRIVATE`` with its reason.
"""

import ast
from pathlib import Path

import rotoxor

PACKAGE = Path(rotoxor.__file__).parent

# Public names no package module uses, each with the reason it stays. The
# list must match exactly, so a name that gains a use or goes leaves it.
UNUSED_PUBLIC = {
    "gf2.transpose": "tests turn int rows into packed columns with it; "
                     "perfbench/spans.py traces it by name",
    "gf2.rank": "tests check that recovered maps have full rank with it; "
                "perfbench/spans.py traces it by name",
    "gf2.invert": "the elimination oracle that the attack's M^7 inverse must equal; "
                  "perfbench/spans.py traces it by name",
}

# Private names one package module uses from another ("user: owner.name"),
# each with the reason it is shared. The list must match exactly, so a new
# reach into another module's private names fails until it is listed.
_CODEC_FILE_PATH = "the CLI's one-buffer file path, until the codec has a public file API"
CROSS_MODULE_PRIVATE = {
    "batch: cipher._NEIGH_1": "the mix tables are built from the spec's own neighbourhoods",
    "batch: cipher._NEIGH_2": "the spec's distance-2 table is the inverse mix's second pass "
                              "above batch._SMALL blocks, and the one-pass 17-cell table "
                              "at or below it is composed from it",
    "batch: keys._check_key": "session_keys checks the master as the chain generator does",
    "batch: keys._check_digits": "the block functions check their keys' digits by the rule "
                                 "every key check uses",
    "cipher: keys._check_key": "one key check serves the scalar reference and the key module",
    "analysis: keys._check_key": "the reports check the key before drawing any trial",
    "cli: codec._encrypt_buffer": _CODEC_FILE_PATH,
    "cli: codec._decrypt_buffer": _CODEC_FILE_PATH,
    "cli: codec._encode_buffer": _CODEC_FILE_PATH,
    "cli: codec._decode_buffer": _CODEC_FILE_PATH,
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module):
    # (name, node) for each module-level def, class or assignment, except
    # __dunder__ names.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
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
                   for name, node in _definitions(tree) if name.startswith("_")]
    stranded = [f"{module}.{name}" for module, name, node in definitions
                if not _references(modules, module, name, node)]
    assert not stranded, f"private names with no use in the package: {stranded}"
    assert len(definitions) > 50  # the walk found the package's helpers


def test_every_public_name_is_used_exported_or_listed():
    modules = _modules()
    # __init__ imports what it exports, which __all__ accounts for.
    users = {module: tree for module, tree in modules.items() if module != "__init__"}
    definitions = [(module, name, node) for module, tree in modules.items()
                   for name, node in _definitions(tree) if not name.startswith("_")]
    unused = {f"{module}.{name}" for module, name, node in definitions
              if name not in rotoxor.__all__ and not _references(users, module, name, node)}
    assert unused == set(UNUSED_PUBLIC)
    assert all(UNUSED_PUBLIC.values())
    assert len(definitions) > 50  # the walk found the package's public names


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_private_names_cross_modules_only_as_listed():
    # `from .owner import _name`, or `owner._name` with owner a package module.
    modules = _modules()
    crossings = set()
    for user, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in modules:
                crossings.update(f"{user}: {node.module}.{a.name}" for a in node.names
                                 if _is_private(a.name))
            elif (isinstance(node, ast.Attribute) and _is_private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules
                  and node.value.id != user):
                crossings.add(f"{user}: {node.value.id}.{node.attr}")
    assert crossings == set(CROSS_MODULE_PRIVATE)
    assert all(CROSS_MODULE_PRIVATE.values())
