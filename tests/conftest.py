"""Shared fixtures: small algebras used across the test suite, and the
Element-level references the quantization tests use as oracles."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

from pathalg.quantization import HBAR, PoissonBivector
from pathalg.quiver_core import Element, PolyScalar, Quiver, UsageError
from pathalg.reduction_engine import ReductionSystem, Rule


def dense(vectors, ncols: int) -> list[tuple]:
    """{column: value} vectors as tuples of length ncols, to compare with a
    dense reference.  Fails on a stored zero or a column outside the range,
    which the dense form would hide."""
    for v in vectors:
        assert all(c != 0 and 0 <= j < ncols for j, c in v.items()), v
    return [tuple(v.get(j, 0) for j in range(ncols)) for v in vectors]


def substitute(p: PolyScalar, values: dict[str, PolyScalar]) -> PolyScalar:
    """p with polynomials substituted for symbols (unmentioned symbols survive)."""
    out = PolyScalar.zero(p.trunc, p.params)
    for m, c in p.terms.items():
        term = PolyScalar.rational(c, p.trunc, p.params)
        for name, e in m:
            if name in values:
                for _ in range(e):
                    term = term * values[name]
            else:
                term = term * PolyScalar({((name, e),): 1}, p.trunc, p.params)
        out = out + term
    return out


def unit(quiver: Quiver) -> Element:
    """The sum of the trivial paths, the unit of kQ."""
    return Element(quiver, {e: PolyScalar.rational(1) for e in quiver.idempotents()})


def max_trunc(a: Element) -> int | None:
    """The lowest truncation order among a's coefficients (None if none has one)."""
    return min((c.trunc for c in a.terms.values() if c.trunc is not None), default=None)


@pytest.fixture
def two_cycle():
    """The 2-cycle quiver with rules ab -> 0, ba -> 0."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    R = ReductionSystem(q, [Rule(q.path("a", "b"), Element.zero(q)),
                            Rule(q.path("b", "a"), Element.zero(q))])
    return q, R


@pytest.fixture
def four_dim():
    """The one-vertex algebra on x, y with rules x^2, yx, y^2 -> 0."""
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    R = ReductionSystem(q, [Rule(q.path("x", "x"), Element.zero(q)),
                            Rule(q.path("y", "x"), Element.zero(q)),
                            Rule(q.path("y", "y"), Element.zero(q))])
    return q, R


@pytest.fixture
def nf_quiver():
    """The 4-vertex quiver with arrows x, y1, y2, z, w and rules xy1, y2z."""
    q = Quiver(["1", "2", "3", "4"],
               [("x", "1", "2"), ("y1", "2", "3"), ("y2", "2", "3"),
                ("z", "3", "4"), ("w", "2", "4")])
    R = ReductionSystem(q, [Rule(q.path("x", "y1"), Element.zero(q)),
                            Rule(q.path("y2", "z"), Element.zero(q))])
    return q, R


def make_brauer(n: int):
    """The zigzag special biserial algebra on vertices 1..n-1."""
    verts = [str(i) for i in range(1, n)]
    arrows = []
    for i in range(1, n - 1):
        arrows.append((f"x{i}", str(i), str(i + 1)))
        arrows.append((f"y{i}", str(i + 1), str(i)))
    q = Quiver(verts, arrows)
    rules = []
    for i in range(1, n - 2):
        rules.append(Rule(q.path(f"x{i}", f"x{i+1}"), Element.zero(q)))
        rules.append(Rule(q.path(f"y{i+1}", f"y{i}"), Element.zero(q)))
        rules.append(Rule(q.path(f"x{i+1}", f"y{i+1}"),
                          Element.from_path(q.path(f"y{i}", f"x{i}"))))
    rules.append(Rule(q.path("x1", "y1", "x1"), Element.zero(q)))
    rules.append(Rule(q.path("y1", "x1", "y1"), Element.zero(q)))
    return q, ReductionSystem(q, rules)


def make_deformed3(trunc: int):
    """The d=3 commutator rules deformed by x_j x_i -> hbar x_k x_k, {i, j, k} = {1, 2, 3}.

    The deformed word graph has cycles at positive degree: x1*x1*x3*x2*x2*x3
    rewrites back to itself, and only the truncation ends the reduction.
    """
    q = Quiver(["0"], [(f"x{i}", "0", "0") for i in (1, 2, 3)])
    h = PolyScalar.var("hbar", is_param=True, trunc=trunc)
    return q, ReductionSystem(q, [
        Rule(q.path(f"x{j}", f"x{i}"), Element.from_path(q.path(f"x{i}", f"x{j}"))
             + Element.from_path(q.path(f"x{k}", f"x{k}"), h))
        for j, i, k in ((2, 1, 3), (3, 1, 2), (3, 2, 1))])


# -- Element-level polynomial calculus on the commutator system ------------------
#
# Products and derivatives are written on paths (the normal form of a
# commutative monomial is its sorted arrows) and summed one Element addition
# at a time, so they share no helper with ``pathalg.quantization``.


def _path(quiver, arrows):
    arrows = sorted(arrows, key=lambda x: int(x[1:]))
    return quiver.path(*arrows) if arrows else quiver.trivial("0")


def ref_poly_mul(a: Element, b: Element) -> Element:
    """The product of normal-form polynomials: the sorted arrows of p*q."""
    out = Element.zero(a.quiver)
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            out = out + Element.from_path(_path(a.quiver, p.arrows + q.arrows),
                                          cp * cq)
    return out


def ref_poly_diff(a: Element, i: int) -> Element:
    """d/dx_i: each path loses one x_i, times the number it had."""
    out = Element.zero(a.quiver)
    for p, c in a.terms.items():
        n = p.arrows.count(f"x{i}")
        if n:
            arrows = list(p.arrows)
            arrows.remove(f"x{i}")
            out = out + Element.from_path(_path(a.quiver, arrows), c.scale(n))
    return out


def _constants(eta: PoissonBivector, trunc: int) -> dict:
    """The constant entries, entered at the order of the series (the one
    ring of a computation)."""
    if not all(p.is_trivial for v in eta.entries.values() for p in v.paths()):
        raise UsageError("this operation needs a constant Poisson bivector")
    return {ji: next(iter(v.terms.values())).truncated(trunc)
            for ji, v in eta.entries.items()}


def ref_moyal(f: Element, g: Element, eta: PoissonBivector, trunc: int = 4) -> Element:
    """The Moyal product exp((hbar/2) sum eta_ji (d_j x d_i - d_i x d_j)) of a
    constant bivector, expanded one derivative at a time."""
    consts = _constants(eta, trunc)
    hbar_half = PolyScalar.var(HBAR, is_param=True, trunc=trunc).scale(Fraction(1, 2))
    terms = [(PolyScalar.rational(1, trunc=trunc), f, g)]
    total = Element.zero(eta.quiver)
    for n in range(trunc + 1):
        for c, a, b in terms:
            total = total + ref_poly_mul(a, b).scale(
                c.scale(Fraction(1, factorial(n))))
        nxt = []
        for c, a, b in terms:
            for (j, i), e in consts.items():
                coeff = c * hbar_half * e
                if coeff.is_zero():
                    continue
                nxt.append((coeff, ref_poly_diff(a, j), ref_poly_diff(b, i)))
                nxt.append((coeff.scale(-1), ref_poly_diff(a, i),
                            ref_poly_diff(b, j)))
        terms = [(c, a, b) for c, a, b in nxt
                 if not (c.is_zero() or a.is_zero() or b.is_zero())]
        if not terms:
            break
    return total.truncated(trunc)


def ref_gauge_phi(f: Element, eta: PoissonBivector, trunc: int = 4) -> Element:
    """Phi(f) = exp((hbar/2) sum eta_ji d^2/dx_i dx_j)(f) of a constant
    bivector, expanded one derivative at a time."""
    consts = _constants(eta, trunc)
    hbar_half = PolyScalar.var(HBAR, is_param=True, trunc=trunc).scale(Fraction(1, 2))
    total = Element.zero(eta.quiver)
    current = [(PolyScalar.rational(1, trunc=trunc), f)]
    for n in range(trunc + 1):
        for c, a in current:
            total = total + a.scale(c.scale(Fraction(1, factorial(n))))
        nxt = []
        for c, a in current:
            for (j, i), e in consts.items():
                coeff = c * hbar_half * e
                da = ref_poly_diff(ref_poly_diff(a, i), j)
                if not (coeff.is_zero() or da.is_zero()):
                    nxt.append((coeff, da))
        current = nxt
        if not current:
            break
    return total.truncated(trunc)
