"""Every `/` in the library is a reviewed exact division.

Integral coefficients are Python ints, and `int / int` is a float.  So a
division is written `Fraction(a, b)` (no entry needed here) or, where `/`
is used, both operands must be Fractions and the site must be listed below.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathalg"

# site -> number of `/`; the operands of each are Fractions
REVIEWED = {
    "reduction_engine.py:_orient": 1,  # Fraction(1) / c.as_rational()
}


def _division_sites(path: Path) -> list[tuple[str, int]]:
    """(file:enclosing function, line) of every `/` and `/=` in the file."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                sites.append((f"{path.name}:{scope or '<module>'}", child.lineno))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sites


def test_every_division_is_reviewed():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in _division_sites(path)]
    found = Counter(site for site, _ in sites)
    assert found == Counter(REVIEWED), (
        "unreviewed or removed `/`: "
        + ", ".join(f"{site} line {line}" for site, line in sites
                    if found[site] != REVIEWED.get(site)))


def test_the_scan_sees_divisions_in_methods_and_augmented_assignments(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x = 1 / 2\n"
                    "class A:\n"
                    "    def f(self, v):\n"
                    "        v /= 3\n"
                    "        return v // 2\n")
    assert _division_sites(path) == [("m.py:<module>", 1), ("m.py:A.f", 4)]
