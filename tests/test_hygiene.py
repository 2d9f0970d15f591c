"""Source hygiene of the package: no module imports a name it never uses,
no function, class or method outlives its callers, and no module starts a
process-global cache.

The scans are syntactic.  Every name bound by an import statement in a module
of src/brieskornlab (the package __init__, which re-exports, excepted) must
appear as a name somewhere else in that module; `from __future__` imports
are directives, not names, and are skipped.  Every module-level function or
class, public or private, and every method of such a class but the dunders
must be referenced, as a name or an attribute, by some module of the package
outside its own definition: a re-export from the package __init__ is no
reference, so an export that nothing in the package calls fails the scan.
Reference implementations that only tests call live under tests/ (the
`oracles` module).  `_KEPT_UNREFERENCED` names the one exception.  No
module binds an empty mutable container ({}, [], set(), dict(), list()) at
module level: such a binding is a cache or registry that lives as long as
the process, where per-polynomial state belongs on an object that dies with
the polynomial.  Non-empty tables (cli._COMMANDS, cli._SECTIONS) are data.
One function uses `heapq`, the pivot loop `exactlinalg._forward_eliminate`:
every elimination, exact or modulo a prime, runs through it with its own row
step, and a second heap-driven loop would be a second copy of it.  Every
function that calls `monomial_basis` also calls `_basis_overflow`, so no
basis past the input budget of `gradedpoly` is built before it is refused.

One check is not syntactic: a cold `import brieskornlab.cli`, which every
CLI job pays, loads no `dataclasses` and none of the source-introspection
modules it pulls in.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brieskornlab"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import Iterator, Mapping\n"
              "from . import sibling\n"
              "def f(x: Mapping) -> int:\n"
              "    return sibling.g(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "Iterator")]


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _references(tree, skip=None) -> set:
    """Names and attribute names used in tree, outside the node skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# cli.parse_report reads a rendered report back, the round trip README documents
_KEPT_UNREFERENCED = frozenset({"parse_report"})


def _defs(tree):
    """Module-level defs and classes of tree and the methods of those
    classes, but the dunders, which the language calls."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, _DEFS))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_defs(sources: dict, kept=frozenset()) -> list:
    """(module, name) of each def, class or method from `_defs`, except the
    names in kept, that no module in sources references outside the
    definition itself."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    elsewhere = {name: set().union(*(_references(t) for other, t in trees.items() if other != name))
                 for name in trees}
    out = []
    for name, tree in trees.items():
        for node in _defs(tree):
            if (not _is_dunder(node.name) and node.name not in kept
                    and node.name not in elsewhere[name] | _references(tree, skip=node)):
                out.append((name, node.name))
    return sorted(out)


def test_scanner_flags_only_unreferenced_private_defs():
    """Private defs, and public defs and methods alike."""
    sources = {"a": ("def _used_here(): pass\n"
                     "def _recursive(n): return _recursive(n - 1)\n"
                     "class _Dead: pass\n"
                     "def _used_there(): pass\n"
                     "def __dunder__(): pass\n"
                     "def public(): return _used_here()\n"
                     "def exported(): pass\n"
                     "def documented(): pass\n"
                     "class Shape:\n"
                     "    def __init__(self): self.area()\n"
                     "    def area(self): return self.side()\n"
                     "    def side(self): return 1\n"
                     "    def unused(self): return self.unused()\n"
                     "    @property\n"
                     "    def dead_property(self): return 0\n"),
               "b": ("from . import a\n"
                     "def f(): return a._used_there(), a.public(), a.Shape()\n"),
               "__init__": "from .a import exported\n__all__ = ['exported']\n"}
    assert unreferenced_defs(sources, kept={"documented"}) == [
        ("a", "_Dead"), ("a", "_recursive"), ("a", "dead_property"), ("a", "exported"),
        ("a", "unused"), ("b", "f")]


def test_no_private_def_is_left_unreferenced():
    """Nor any public def or method (`_defs`), but `_KEPT_UNREFERENCED`."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 1
    assert unreferenced_defs(sources, _KEPT_UNREFERENCED) == []


_EMPTY_CALLS = {"set", "dict", "list"}


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EMPTY_CALLS and not node.args and not node.keywords)


def module_level_empty_containers(source: str) -> list:
    """(line, target) of each module-level binding of an empty mutable
    container, plain or annotated."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _is_empty_container(node.value):
            out.extend((node.lineno, ast.unparse(t)) for t in targets)
    return out


def test_scanner_flags_only_empty_module_level_containers():
    source = ("import weakref\n"
              "_cache = {}\n"
              "_seen: list[int] = []\n"
              "_a = _b = set()\n"
              "_d = dict()\n"
              "_l = list()\n"
              "TABLE = {'a': 1}\n"
              "_pairs = dict(a=1)\n"
              "_copy = list((1, 2))\n"
              "_frozen = ()\n"
              "_live = weakref.WeakKeyDictionary()\n"
              "_declared: dict\n"
              "def f():\n"
              "    local = {}\n"
              "    return local\n"
              "class C:\n"
              "    def __init__(self):\n"
              "        self.memo = {}\n")
    assert module_level_empty_containers(source) == [
        (2, "_cache"), (3, "_seen"), (4, "_a"), (4, "_b"), (5, "_d"), (6, "_l")]


def test_no_module_binds_an_empty_container_at_module_level():
    found = {p.name: module_level_empty_containers(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 1
    assert {name: hits for name, hits in found.items() if hits} == {}


def functions_using(source: str, module: str) -> list:
    """Functions (innermost def, qualified by its enclosing classes and defs)
    that use a name bound by an import of module; "<module>" for uses
    outside any def."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names if alias.name == module}
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            bound |= {alias.asname or alias.name for alias in node.names}
    found = set()

    def visit(node, scope):
        if isinstance(node, _DEFS):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Name) and node.id in bound:
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def test_scanner_finds_the_functions_using_a_module():
    source = ("import heapq as hq\n"
              "import bisect\n"
              "from heapq import heappush\n"
              "def a(h): return hq.heapify(h)\n"
              "def b(h): return bisect.bisect(h, 1)\n"
              "class C:\n"
              "    def m(self, h):\n"
              "        return lambda: heappush(h, 1)\n"
              "TOP = hq.nlargest\n")
    assert functions_using(source, "heapq") == ["<module>", "C.m", "a"]
    assert functions_using(source, "bisect") == ["b"]


def test_one_function_holds_the_pivot_heap():
    found = {(p.name, fn) for p in sorted(PACKAGE.glob("*.py"))
             for fn in functions_using(p.read_text(), "heapq")}
    assert found == {("exactlinalg.py", "_forward_eliminate")}


def calls_by_function(source: str) -> dict:
    """{function: names it calls}, per innermost def qualified by its
    enclosing classes and defs ("<module>" outside any def); a call of an
    attribute counts by the attribute's name."""
    found: dict = {}

    def visit(node, scope):
        if isinstance(node, _DEFS):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found.setdefault(scope or "<module>", set()).add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def unbudgeted_basis_builders(source: str) -> list:
    """Functions that call `monomial_basis` but not `_basis_overflow`."""
    return sorted(fn for fn, names in calls_by_function(source).items()
                  if "monomial_basis" in names and "_basis_overflow" not in names)


def test_scanner_flags_only_unbudgeted_basis_builders():
    source = ("from .gradedpoly import _basis_overflow, monomial_basis\n"
              "from . import gradedpoly\n"
              "def guarded(n, m):\n"
              "    if _basis_overflow(n, m):\n"
              "        raise ValueError\n"
              "    return monomial_basis(n, m)\n"
              "def bare(n, m):\n"
              "    return gradedpoly.monomial_basis(n, m)\n"
              "def outer(n, m):\n"
              "    _basis_overflow(n, m)\n"
              "    def inner():\n"
              "        return monomial_basis(n, m)\n"
              "    return inner()\n"
              "class C:\n"
              "    def method(self, n):\n"
              "        return [monomial_basis(n, k) for k in range(3)]\n"
              "def mentions(n):\n"
              "    return monomial_basis\n"
              "TABLE = monomial_basis(3, 2)\n")
    assert unbudgeted_basis_builders(source) == ["<module>", "C.method", "bare", "outer.inner"]


def test_every_basis_builder_checks_the_budget():
    found = {p.name: unbudgeted_basis_builders(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 1
    assert {name: fns for name, fns in found.items() if fns} == {}


# `dataclasses` imports `inspect`, which imports `ast`, `dis` and `tokenize`
_START_UP_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_introspection_modules():
    probe = ("import sys, brieskornlab.cli; "
             f"print(' '.join(m for m in {_START_UP_HEAVY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
