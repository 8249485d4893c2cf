"""The package holds only what a command or a benchmark workload runs.

Every top-level function and class, and every method whose name is not a
dunder, defined in ``src/brauercat`` (``__init__`` aside) must be referred to
from ``src/brauercat`` outside ``__init__``, from ``perfbench/*.py``, or be
wrapped by the tracer.  A reference from ``tests/`` alone does not count: a
route only tests run belongs in ``tests/oracles.py`` or beside its test.
Three rules say what a reference is:

- No string counts, so a label string such as ``"kronecker"`` does not.  The
  tracer names the attributes it wraps by string (``method(cls, "rotate",
  ...)``), so those are read off the live package instead:
  ``perfbench/tracing.Tracer`` is installed in a subprocess, and every
  package function or method whose live attribute it replaces by a wrapper
  (one with ``__wrapped__``) counts as used.
- A function or class counts through a ``Name`` or an ``Attribute``; a method
  only through an ``Attribute``, so a local variable that shares its name
  does not count.
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
import json
import os
import subprocess
import sys
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


def _references(tree: ast.AST) -> Counter:
    """Counts of ("name", id) for names read and ("attr", attr) for attributes taken."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs["attr", node.attr] += 1
    return refs


# Installs the tracer on the imported package and prints, as a JSON list, the
# module-qualified names of the definitions whose live attribute it replaced
# by a wrapper.  A functools.cache table has __wrapped__ of its own, so only
# attributes that changed count.
_WRAPPED_SCRIPT = """
import importlib, json, sys
from tracing import Tracer

modules = [importlib.import_module("brauercat." + stem) for stem in sys.argv[1:]]

def live():
    out = {}
    for module in modules:
        for attr, value in vars(module).items():
            out[module, attr] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                out.update(((value, name), v) for name, v in vars(value).items())
    return out

before = live()
tracer = Tracer()
tracer.install()
after = live()
tracer.uninstall()
print(json.dumps(sorted({
    v.__wrapped__.__module__.removeprefix("brauercat.") + "." + v.__wrapped__.__qualname__
    for key, v in after.items() if v is not before[key] and hasattr(v, "__wrapped__")})))
"""


def _wrapped(stems) -> set[str]:
    """The package definitions that ``perfbench/tracing.Tracer`` wraps."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    out = subprocess.run([sys.executable, "-c", _WRAPPED_SCRIPT, *stems], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def _unused(package: dict[str, ast.Module], perfbench: list[ast.Module],
            wrapped: set[str]) -> list[str]:
    """The definitions of the ``package`` modules that no reference outside
    their own body reaches and the tracer does not wrap, allowances aside."""
    used = sum((_references(tree) for tree in [*package.values(), *perfbench]), Counter())
    unused = []
    for module, tree in package.items():
        for name, node, is_method in _definitions(module, tree):
            outside = used - _references(node)
            kinds = ("attr",) if is_method else ("name", "attr")
            if (not any(outside[kind, node.name] for kind in kinds) and name not in wrapped
                    and name not in ALLOWED and not name.startswith(tuple(ALLOWED_PREFIXES))):
                unused.append(name)
    return unused


def test_every_package_definition_is_used_outside_tests():
    package = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    perfbench = [ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.glob("*.py"))]
    unused = _unused(package, perfbench, _wrapped(package))
    assert not unused, ("defined in src/brauercat, referred to by no package module "
                        "and no perfbench script, and not wrapped by the tracer: "
                        + ", ".join(unused))
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
    # a label string in the package, a bare variable sharing a method's name,
    # a function's own recursive call and a tracer string are not references
    assert _unused({"lib": lib, "cli": cli}, [tracer], set()) == [
        "lib.labelled", "lib.recursive", "lib.Walk.length", "lib.Walk.rotate"]
    # a definition the tracer wraps is used
    assert _unused({"lib": lib, "cli": cli}, [tracer], {"lib.Walk.rotate"}) == [
        "lib.labelled", "lib.recursive", "lib.Walk.length"]
