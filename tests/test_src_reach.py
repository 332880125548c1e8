"""Every definition in ``src/pathalg`` is reached by something that runs it.

A top-level function, class or method of ``src/pathalg`` must be referenced
in ``src/pathalg`` somewhere besides its own definition and ``__all__``.
Three kinds of use from outside count as well, each read from its own file:

- the benchmark: the functions ``perfbench/tracing.py`` spans (``SPANNED``)
  or rebinds (``_rebind``), what ``perfbench/*.py`` imports from ``pathalg``,
  and what it reads as ``<module>.X`` from a ``pathalg`` module;
- the README's ```` ```python ```` examples;
- the standard library: a method that overrides a method of a standard
  library base class, which that base calls (``_ArgumentParser.error``).

A reference is a ``Name``, ``Attribute`` or ``ImportFrom`` node, matched by
name; strings and comments are not references.  Methods named ``__x__`` are
called by the language itself and are not checked.  What only tests call
belongs in ``tests/``.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pathalg"
BENCH = ROOT / "perfbench"
README = ROOT / "README.md"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _references(tree: ast.AST):
    """(name, line) of every Name, Attribute and ImportFrom name in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _stdlib_bases(tree: ast.Module, cls: ast.ClassDef) -> list:
    """The classes among cls's bases that come from the standard library,
    resolved through the module's own imports."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    out = []
    for base in cls.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            module, attr = imported.get(base.value.id, (None, None))
            attr = base.attr if attr is None else None
        elif isinstance(base, ast.Name) and base.id in imported:
            module, attr = imported[base.id]
        elif isinstance(base, ast.Name) and hasattr(builtins, base.id):
            out.append(getattr(builtins, base.id))
            continue
        else:
            continue
        if attr and module and module.split(".")[0] in sys.stdlib_module_names:
            out.append(getattr(importlib.import_module(module), attr))
    return out


def _definitions():
    """(file, qualified name, name, first line, last line, stdlib override)
    of every top-level function and class and of every method of one."""
    for stem in MODULES:
        path = SRC / f"{stem}.py"
        tree = _tree(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name, node.name, node.lineno, node.end_lineno, False
            if isinstance(node, ast.ClassDef):
                bases = _stdlib_bases(tree, node)
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield (path, f"{node.name}.{item.name}", item.name, item.lineno,
                               item.end_lineno, any(hasattr(b, item.name) for b in bases))


def _bench_reach() -> set[str]:
    """The pathalg names the benchmark reaches."""
    names: set[str] = set()
    for node in ast.walk(_tree(BENCH / "tracing.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            for spanned in ast.literal_eval(node.value).values():
                names.update(spanned)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_rebind"
              and isinstance(node.args[1], ast.Constant)):  # the loop over SPANNED aside
            names.add(node.args[1].value)
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "pathalg"):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                names.add(node.attr)
    return names


def _readme_reach() -> set[str]:
    """The names the README's Python examples use."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    return {name for block in blocks for name, _ in _references(ast.parse(block))}


def _unreached() -> list[str]:
    refs: dict[str, list[tuple[Path, int]]] = {}
    for stem in MODULES:
        path = SRC / f"{stem}.py"
        for name, line in _references(_tree(path)):
            refs.setdefault(name, []).append((path, line))
    outside = _bench_reach() | _readme_reach()
    return [f"{path.stem}.{qual}"
            for path, qual, name, first, last, override in _definitions()
            if not override and name not in outside
            and not any(p != path or not first <= line <= last
                        for p, line in refs.get(name, ()))]


def test_every_definition_is_reached():
    assert _unreached() == []


def test_the_exemptions_are_read_from_their_files():
    bench, readme = _bench_reach(), _readme_reach()
    assert {"eval_graph", "rightmost_split", "graphical_star", "main"} <= bench
    assert {"poisson_to_cochain", "PoissonBivector"} <= readme
    overrides = [qual for _, qual, *_, override in _definitions() if override]
    assert "_ArgumentParser.error" in overrides


def test_every_all_entry_exists():
    for stem in MODULES:
        module = importlib.import_module(f"pathalg.{stem}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"{stem}.__all__ names {missing}"
