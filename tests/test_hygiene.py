"""Source hygiene of the package: no module imports a name it never uses,
no function, class or method outlives its callers, the README documents
every exported name, and no module starts a process-global cache.

The scans are syntactic.  Every name bound by an import statement in a module
of src/brieskornlab (the package __init__, which re-exports, excepted) must
appear as a name somewhere else in that module; `from __future__` imports
are directives, not names, and are skipped.  Every module-level function or
class, public or private, and every method of such a class but the dunders
must be referenced by some module of the package outside its own definition,
with no exception.  A module-level def `name` of module M is referenced only
by the bare name in M, by an import of it by name (`from .M import name`)
or by a read of `M.name` in another module, so a method or a local of the
same name does not keep it alive; a method is referenced by any name or
attribute of its name.  A re-export from the package __init__ is no
reference, so an export that nothing in the package calls fails the scan.
Reference implementations that only tests call live under tests/ (the
`oracles` module).  Every name of the package's `__all__` appears in
backticks, or in the example's import, in README's Library section, and
the example imports nothing else from the package.  No module binds an
empty mutable container ({}, [], set(), dict(), list()) at module level:
such a binding is a cache or registry that lives as long as the process,
where per-polynomial state belongs on an object that dies with the
polynomial.  Non-empty tables (cli._COMMANDS, cli._SECTIONS) are data.
One function uses `heapq`, the pivot loop `exactlinalg._forward_eliminate`:
every elimination, exact or modulo a prime, runs through it with its own row
step, and a second heap-driven loop would be a second copy of it.  One
function builds the default `StabilizationPolicy()`, `brieskorn._stabilize`:
every entry point hands its policy, or None, through as given, so the
default is settled in one place.

Two checks are not syntactic.  A cold `import brieskornlab.cli`, which every
CLI job pays, loads no `dataclasses` and none of the source-introspection
modules it pulls in.  Every span target of the benchmark's tracer
(`bench/tracing.py`, `TARGETS`) resolves the way `Recorder.install` looks it
up, with nothing installed: a rename that would stop every traced benchmark
job with a LookupError fails here instead, naming the entry.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brieskornlab"
README = PACKAGE.parent.parent / "README.md"
TRACING = PACKAGE.parent.parent / "bench" / "tracing.py"


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


def _references(tree, skip=None) -> tuple:
    """(names, attribute names) used in tree, outside the node skip."""
    names, attrs, stack = set(), set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _qualified_references(tree) -> set:
    """(module, name) of each module-level name that tree imports by name
    (`from .M import name`) or reads as `M.name` through a module it
    imported (`from . import M`)."""
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules.update((a.asname or a.name, a.name) for a in node.names)
            else:
                found.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defs(tree):
    """(node, is_method) of the module-level defs and classes of tree and
    of the methods of those classes, but the dunders, which the language
    calls."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node, False
            if isinstance(node, ast.ClassDef):
                yield from ((m, True) for m in node.body if isinstance(m, _DEFS))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_defs(sources: dict) -> list:
    """(module, name) of each def, class or method from `_defs` that no
    module in sources (keyed by module name) references outside the
    definition itself.  A module-level def or class is referenced by a bare
    name in its own module, or from another module by name or as
    `module.name` (`_qualified_references`), the re-exports of the package
    __init__ excepted; a method by any name or attribute of its name."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    qualified = set().union(*(_qualified_references(tree)
                              for module, tree in trees.items() if module != "__init__"))
    used_in = {module: set().union(*_references(tree)) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for node, is_method in _defs(tree):
            if _is_dunder(node.name):
                continue
            names, attrs = _references(tree, skip=node)
            if is_method:
                used = node.name in names | attrs or any(
                    node.name in refs for other, refs in used_in.items() if other != module)
            else:
                used = node.name in names or (module, node.name) in qualified
            if not used:
                out.append((module, node.name))
    return sorted(out)


def test_scanner_flags_only_unreferenced_private_defs():
    """Private defs, and public defs and methods alike; a module function
    is not referenced by a call of a method of its name."""
    sources = {"a": ("def _used_here(): pass\n"
                     "def _recursive(n): return _recursive(n - 1)\n"
                     "class _Dead: pass\n"
                     "def _used_there(): pass\n"
                     "def _imported(): pass\n"
                     "def __dunder__(): pass\n"
                     "def public(): return _used_here()\n"
                     "def exported(): pass\n"
                     "def area(): pass\n"
                     "class Shape:\n"
                     "    def __init__(self): self.area()\n"
                     "    def area(self): return self.side()\n"
                     "    def side(self): return 1\n"
                     "    def unused(self): return self.unused()\n"
                     "    @property\n"
                     "    def dead_property(self): return 0\n"),
               "b": ("from . import a\n"
                     "from .a import _imported\n"
                     "def f(): return a._used_there(), a.public(), a.Shape().area(), _imported\n"),
               "__init__": "from .a import exported\n__all__ = ['exported']\n"}
    assert unreferenced_defs(sources) == [
        ("a", "_Dead"), ("a", "_recursive"), ("a", "area"), ("a", "dead_property"),
        ("a", "exported"), ("a", "unused"), ("b", "f")]


def test_no_private_def_is_left_unreferenced():
    """Nor any public def or method (`_defs`)."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 1
    assert unreferenced_defs(sources) == []


def library_names(readme: str) -> tuple:
    """(names in backticks, names the example imports from the package) of
    README's Library section, whose example is its one python block."""
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    before, rest = section.split("```python\n", 1)
    example, after = rest.split("```", 1)
    imported = {alias.name for node in ast.walk(ast.parse(example))
                if isinstance(node, ast.ImportFrom) and node.module == "brieskornlab"
                for alias in node.names}
    return set(re.findall(r"`([^`\n]+)`", before + after)), imported


def test_library_names_reads_prose_and_the_example_import():
    readme = ("## Install\n`hidden`\n## Library\nexports `a`, `b c`\n"
              "```python\nfrom brieskornlab import (d,\n    e)\nfrom os import f\n# `g`\n```\n"
              "then `h`\n## Tests\n`i`\n")
    assert library_names(readme) == ({"a", "b c", "h"}, {"d", "e"})


def test_readme_documents_the_exported_surface():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    documented, imported = library_names(README.read_text())
    assert len(exported) > 1
    assert sorted(set(exported) - documented - imported) == []
    assert sorted(imported - set(exported)) == []


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


def _scopes(tree, reads) -> set:
    """The innermost def (qualified by its enclosing classes and defs) of
    each node of tree that reads(node) is true for; "<module>" for nodes
    outside any def."""
    found = set()

    def visit(node, scope):
        if isinstance(node, _DEFS):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif reads(node):
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def functions_using(source: str, module: str) -> list:
    """Functions (`_scopes`) that use a name bound by an import of module."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names if alias.name == module}
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            bound |= {alias.asname or alias.name for alias in node.names}
    return sorted(_scopes(tree, lambda node: isinstance(node, ast.Name) and node.id in bound))


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


def readers_of(sources: dict, module: str, name: str) -> list:
    """(module, function) of each function (`_scopes`) of sources, keyed by
    module name, that reads `name` of `module`: by the bare name in module
    itself, through `from .module import name`, or as `module.name` through
    `from . import module`."""
    out = set()
    for here, source in sources.items():
        tree = ast.parse(source)
        bound, modules = ({name} if here == module else set()), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module == module and alias.name == name:
                        bound.add(alias.asname or name)
                    elif node.module is None and alias.name == module:
                        modules.add(alias.asname or module)

        def reads(node, bound=bound, modules=modules):
            if isinstance(node, ast.Attribute):
                return (node.attr == name and isinstance(node.value, ast.Name)
                        and node.value.id in modules)
            return isinstance(node, ast.Name) and node.id in bound

        out |= {(here, scope) for scope in _scopes(tree, reads)}
    return sorted(out)


def test_scanner_finds_the_readers_of_a_name():
    sources = {"a": ("def build(): return 1\n"
                     "def again(): return build()\n"),
               "b": ("from .a import build as make\n"
                     "class C:\n"
                     "    def m(self): return make()\n"
                     "def build(): return 2\n"),
               "c": ("from . import a\n"
                     "def f(x): return a.build(), x.build()\n"
                     "TOP = a.build\n")}
    assert readers_of(sources, "a", "build") == [
        ("a", "again"), ("b", "C.m"), ("c", "<module>"), ("c", "f")]


def test_gradedpoly_ranks_nothing_and_one_context_builds_its_bases():
    """gradedpoly is the bottom layer: of the package it imports only
    `InputError`, from exactlinalg, so no rank is taken there, and
    `monomial_basis` is read by `_JacContext.monomials` alone, so every
    basis of one degree is cached on the context of its hypersurface."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    imported = {(node.module, alias.name) for node in ast.walk(ast.parse(sources["gradedpoly"]))
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    assert imported == {("exactlinalg", "InputError")}
    assert readers_of(sources, "gradedpoly", "monomial_basis") == [
        ("jacobian", "_JacContext.monomials")]


def bare_calls(sources: dict, name: str) -> list:
    """(module, function) of each function (`_scopes`) of sources, keyed by
    module name, that calls `name` with no argument, by the bare name or as
    an attribute."""
    def reads(node):
        return (isinstance(node, ast.Call) and not node.args and not node.keywords
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))

    return sorted({(module, scope) for module, source in sources.items()
                   for scope in _scopes(ast.parse(source), reads)})


def test_scanner_finds_the_calls_without_arguments():
    sources = {"a": ("class P:\n"
                     "    def __init__(self, window=None): self.window = window\n"
                     "def _stabilize(policy=None): return policy or P()\n"
                     "def given(): return P(window=3)\n"),
               "b": ("from . import a\n"
                     "from .a import P\n"
                     "DEFAULT = a.P()\n"
                     "def entry(policy=None):\n"
                     "    return policy or P()\n"
                     "def spread(**overrides): return P(**overrides), P(None), a.P\n")}
    assert bare_calls(sources, "P") == [("a", "_stabilize"), ("b", "<module>"), ("b", "entry")]


def test_one_function_builds_the_default_policy():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert bare_calls(sources, "StabilizationPolicy") == [("brieskorn", "_stabilize")]


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


def unresolved_targets(targets, modules: dict) -> list:
    """"module.path" of each (module, path, group) target that
    `Recorder.install` could not wrap, `modules` mapping the imported module
    names to modules: the module is not imported, its function is not bound,
    or its method is not in the owner class's own __dict__."""
    out = []
    for module_name, path, _ in targets:
        module = modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = getattr(owner, "__dict__", {}).get(attr) is not None
        else:
            found = getattr(module, attr, None) is not None
        if not found:
            out.append(f"{module_name}.{path}")
    return out


def test_resolver_flags_only_untraceable_targets():
    class Owner:
        def method(self):
            pass

    class Heir(Owner):
        pass

    module = type(sys)("m")
    module.fn, module.Owner, module.Heir = len, Owner, Heir
    targets = (("m", "fn", None), ("m", "Owner.method", "g"), ("m", "Heir.method", None),
               ("m", "gone", None), ("m", "Owner.gone", None), ("absent", "fn", None))
    assert unresolved_targets(targets, {"m": module}) == [
        "m.Heir.method", "m.gone", "m.Owner.gone", "absent.fn"]


def test_every_trace_target_resolves():
    """The modules a benchmark job has imported when it installs the tracer
    (`import brieskornlab.cli`, cold) hold every target of `TARGETS`."""
    probe = ("import sys, brieskornlab.cli; "
             "print(' '.join(m for m in sys.modules if m.startswith('brieskornlab.')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    modules = {name.split(".", 1)[1]: importlib.import_module(name)
               for name in done.stdout.split()}
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) > 1
    assert unresolved_targets(tracing.TARGETS, modules) == []
