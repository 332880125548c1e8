"""The deformation variety at the undeformed point: its tangent space is the
cocycle space.

``variety`` pushes a generic symbolic cochain through the associators, and
``cohomology`` sums single-word normal forms; both compute the linearised
Maurer-Cartan map.  The Zariski tangent space of the variety at 0 is cut out
by the degree-1 parts of its equations, and it must be the space of
first-order cocycles that satisfy the degree condition: the cocycle matrix on
the columns of the condition's basis has the same row space.  Row spaces are
compared by their reduced echelon forms, computed by the elimination below,
which shares no code with ``cohomology.Echelon``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import make_brauer
from pathalg.cohomology import coboundary_space, cocycle_space
from pathalg.quantization import commutator_system
from pathalg.quiver_core import AdmissibleOrder, Element, Quiver
from pathalg.reduction_engine import ReductionSystem, Rule, reduce_full
from pathalg.star_product import two_cochain_basis
from pathalg.variety import STRICT, cochain_basis, mc_equations, order_condition


def rref(rows: list[list[Fraction]]) -> list[tuple[Fraction, ...]]:
    """The reduced row echelon form of dense rows, without its zero rows."""
    rows = [[Fraction(c) for c in row] for row in rows]
    done = 0
    for lead in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(done, len(rows)) if rows[i][lead]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        top = [c / rows[done][lead] for c in rows[done]]
        rows[done] = top
        for i, row in enumerate(rows):
            if i != done and row[lead]:
                rows[i] = [a - row[lead] * b for a, b in zip(row, top)]
        done += 1
    return [tuple(row) for row in rows[:done]]


def tangent_rows(R: ReductionSystem, cond) -> list[list[Fraction]]:
    """The degree-1 parts of the variety equations over the condition's
    basis, unknown c{k+1} in column k."""
    basis = cochain_basis(R, cond)
    column = {f"c{k + 1}": k for k in range(len(basis))}
    rows = []
    for eq in mc_equations(R, cond, basis=basis):
        assert () not in eq.terms  # the undeformed point lies on the variety
        row = [Fraction(0)] * len(basis)
        for m, c in eq.terms.items():
            if len(m) == 1 and m[0][1] == 1:
                row[column[m[0][0]]] = Fraction(c)
        rows.append(row)
    return rows


def cocycle_rows(R: ReductionSystem, cond) -> list[list[Fraction]]:
    """The cocycle matrix restricted to the columns of the condition's basis,
    in its order."""
    basis = cochain_basis(R, cond)
    bound = max(len(rule.lhs) for rule in R.rules) - (cond is STRICT)
    index = {pair: j for j, pair in enumerate(two_cochain_basis(R, bound))}
    columns = [index[pair] for pair in basis]
    return [[Fraction(row.get(j, 0)) for j in columns]
            for row in cocycle_space(R, bound).matrix]


def two_vertex():
    """Two vertices, arrows a, c: 1 -> 2 and b: 2 -> 1, with ab -> 0,
    ba -> 0 and cb -> ab: a quiver whose overlaps cross both vertices."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2")])
    return q, ReductionSystem(q, [Rule(q.path("a", "b"), Element.zero(q)),
                                  Rule(q.path("b", "a"), Element.zero(q)),
                                  Rule(q.path("c", "b"), Element.zero(q))])


SYSTEMS = {"commutator d=2": lambda: commutator_system(2),
           "commutator d=3": lambda: commutator_system(3),
           "brauer n=4": lambda: make_brauer(4),
           "brauer n=5": lambda: make_brauer(5),
           "brauer n=6": lambda: make_brauer(6),
           "two-vertex": two_vertex}
CASES = [("commutator d=2", "strict"), ("commutator d=3", "strict"),
         ("commutator d=2", "order"),
         *[(f"brauer n={n}", kind) for n in (4, 5, 6) for kind in ("strict", "order")],
         ("two-vertex", "strict"), ("two-vertex", "order")]


@pytest.mark.parametrize("name, kind", CASES)
def test_tangent_space_of_the_variety_is_the_cocycle_space(name, kind):
    q, R = SYSTEMS[name]()
    cond = STRICT if kind == "strict" else order_condition(AdmissibleOrder(q))
    tangent = rref(tangent_rows(R, cond))
    assert tangent == rref(cocycle_rows(R, cond))
    if name.startswith("brauer"):  # the ranks of the prototype at n = 4, 5, 6
        assert len(tangent) == int(name[-1]) - 2


def rescaling_column(R: ReductionSystem, basis, arrow: str) -> dict:
    """The coboundary of the gauge x -> x on the arrow x, by hand: it takes a
    path p to n*p, n the number of x in p, so on the rule s -> phi_s it is
    the sum over the terms c*p of s - phi_s of c*n*red(p)."""
    column: dict = {}
    for rule in R.rules:
        for p, c in (Element.from_path(rule.lhs) - rule.rhs).terms.items():
            n = c.as_rational() * p.arrows.count(arrow)
            for w, b in reduce_full(Element.from_path(p), R).terms.items():
                j = basis.index((rule.lhs, w))
                column[j] = column.get(j, 0) + n * b.as_rational()
    return {j: v for j, v in column.items() if v}


# the number of nonzero coboundary columns supported on the condition's basis
# (the gauge of one arrow by one arrow); every other case has none
INSIDE = {("brauer n=4", "order"): 4, ("brauer n=5", "order"): 6,
          ("brauer n=6", "order"): 8}


@pytest.mark.parametrize("name, kind", [
    *[(f"brauer n={n}", kind) for n in (4, 5, 6) for kind in ("strict", "order")],
    ("two-vertex", "strict"), ("two-vertex", "order")])
def test_coboundaries_in_the_condition_lie_in_the_tangent_space(name, kind):
    """The gauge side: a first-order coboundary is a cocycle, so each column
    of ``coboundary_space`` supported on the condition's basis satisfies the
    degree-1 parts of the variety equations.

    Under the strict condition no nonzero column is supported there: a gauge
    of an arrow by a parallel arrow keeps every length.  In the two-vertex
    quiver the one nonzero column, a -> c, has the value b*c on b*a, which the
    order does not admit.
    """
    q, R = SYSTEMS[name]()
    cond = STRICT if kind == "strict" else order_condition(AdmissibleOrder(q))
    space = coboundary_space(R, max(len(rule.lhs) for rule in R.rules))
    for (x, u), column in zip(space.domain, space.columns):
        if u == x:
            assert column == rescaling_column(R, space.basis, x.arrows[0])
    position = {space.basis.index(pair): k
                for k, pair in enumerate(cochain_basis(R, cond))}
    inside = [column for column in space.columns
              if column and set(column) <= set(position)]
    assert len(inside) == INSIDE.get((name, kind), 0)
    rows = tangent_rows(R, cond)
    for column in inside:
        vec = [Fraction(0)] * len(position)
        for j, c in column.items():
            vec[position[j]] = Fraction(c)
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
