"""The package holds only what a command or a benchmark workload runs.

Every top-level function and class, and every method whose name is not a
dunder, defined in ``src/brauercat`` (``__init__`` aside) must be referred to
from ``src/brauercat`` outside ``__init__``, or from ``perfbench/*.py``.  A
reference from ``tests/`` alone does not count: a route only tests run
belongs in ``tests/oracles.py`` or beside its test.  Three rules say what a
reference is:

- An identifier string counts only in ``perfbench/*.py``, where the tracer
  names attributes by string (``method(cls, "rotate", ...)``); a label
  string in the package, such as ``"kronecker"``, does not.
- A function or class counts through a ``Name`` or an ``Attribute``; a method
  only through an ``Attribute`` (or a perfbench string), so a local variable
  that shares its name does not count.
- A reference inside the definition's own body (a recursive call, a class
  naming itself in its methods) does not count.

The check is name-level, so two kinds of definition stay outside it:
dunders, and a method that shares its name with another class's attribute
(``SymFuncP.zero`` passes on ``Morphism.zero``).  Those two kinds are left
to review: such a method goes when no workload or command reaches it and
the tracer does not wrap it.
"""

from __future__ import annotations

import ast
from collections import Counter
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
    """(module-qualified name, node, is a method) of the top-level functions
    and classes and of the non-dunder methods of the top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _references(tree: ast.AST, strings: bool) -> Counter:
    """Counts of ("name", id) for names read, ("attr", attr) for attributes
    taken and, if ``strings``, ("str", value) for identifier strings."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs["attr", node.attr] += 1
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            refs["str", node.value] += 1
    return refs


def _unused(package: dict[str, ast.Module], perfbench: list[ast.Module]) -> list[str]:
    """The definitions of the ``package`` modules that no reference outside
    their own body reaches, allowances aside."""
    used = sum((_references(tree, False) for tree in package.values()), Counter())
    used += sum((_references(tree, True) for tree in perfbench), Counter())
    unused = []
    for module, tree in package.items():
        for name, node, is_method in _definitions(module, tree):
            outside = used - _references(node, False)
            kinds = ("attr", "str") if is_method else ("name", "attr", "str")
            if (not any(outside[kind, node.name] for kind in kinds) and name not in ALLOWED
                    and not name.startswith(tuple(ALLOWED_PREFIXES))):
                unused.append(name)
    return unused


def test_every_package_definition_is_used_outside_tests():
    package = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    perfbench = [ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.glob("*.py"))]
    unused = _unused(package, perfbench)
    assert not unused, ("defined in src/brauercat, referred to by no package module "
                        "and no perfbench script: " + ", ".join(unused))
    # each allowance still names something defined, so none outlives its reason
    names = [name for module, tree in package.items() for name, _, _ in _definitions(module, tree)]
    assert set(ALLOWED) <= set(names)
    assert all(any(name.startswith(prefix) for name in names) for prefix in ALLOWED_PREFIXES)


def test_guard_rules_on_small_modules():
    lib = ast.parse(
        "def labelled(): pass\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def called(): pass\n"
        "class Walk:\n"
        "    def length(self): pass\n"
        "    def rotate(self): pass\n"
        "    def steps(self): return self.size()\n"
        "    def size(self): pass\n")
    cli = ast.parse(
        "from lib import Walk, called\n"
        "def main(length):\n"
        "    check('labelled')\n"
        "    return length, called(), Walk().steps()\n")
    tracer = ast.parse("import cli\nmethod(cli.Walk, 'rotate', 'lib.Walk.rotate')\ncli.main(1)\n")
    # a label string in the package, a bare variable sharing a method's name
    # and a function's own recursive call are not references
    assert _unused({"lib": lib, "cli": cli}, [tracer]) == [
        "lib.labelled", "lib.recursive", "lib.Walk.length"]
    # a perfbench string is: without the tracer's "rotate", Walk.rotate is unused
    assert _unused({"lib": lib, "cli": cli}, [ast.parse("import cli\ncli.main(1)\n")]) == [
        "lib.labelled", "lib.recursive", "lib.Walk.length", "lib.Walk.rotate"]
