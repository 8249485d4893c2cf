"""The package holds only what a command or a benchmark workload runs.

Every top-level function and class, and every method whose name is not a
dunder, defined in ``src/brauercat`` (``__init__`` aside) must be referred to
somewhere else: as a ``Name``, an ``Attribute`` or an identifier string
(``getattr(module, "name")``) in ``src/brauercat`` outside ``__init__``, or
in ``perfbench/*.py``.  A reference from ``tests/`` alone does not count:
a route only tests run belongs in ``tests/oracles.py`` or beside its test.

The check is name-level.  A method that shares its name with another
reference, such as ``Tensor.scaled`` beside ``Morphism.scaled``, passes, as
does a definition whose only reference is its own recursive call.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brauercat"
PERFBENCH = ROOT / "perfbench"

# Definitions used without their name being spelled out, each with its reason.
ALLOWED_PREFIXES = {
    "cli.cmd_": "cli.main dispatches subcommands through globals()['cmd_' + name]",
}
ALLOWED = {
    "cli._Parser.error": "overrides argparse.ArgumentParser.error, which argparse calls",
}


def _definitions(module: str, tree: ast.Module):
    """(module-qualified name, bare name) of the top-level functions and
    classes and of the non-dunder methods of the top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and identifier strings in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_package_definition_is_used_outside_tests():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    used = set().union(*map(_references, trees.values()))
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _references(ast.parse(path.read_text(), str(path)))
    defined = [d for module, tree in trees.items() for d in _definitions(module, tree)]
    unused = [name for name, bare in defined if bare not in used and name not in ALLOWED
              and not name.startswith(tuple(ALLOWED_PREFIXES))]
    assert not unused, ("defined in src/brauercat, referred to by no package module "
                        "and no perfbench script: " + ", ".join(unused))
    # each allowance still names something defined, so none outlives its reason
    names = [name for name, _ in defined]
    assert set(ALLOWED) <= set(names)
    assert all(any(name.startswith(prefix) for name in names) for prefix in ALLOWED_PREFIXES)
