"""Moyal, its gauge and the Schouten-Jacobi check against Element-level code.

``moyal``, ``gauge_phi`` and ``schouten_jacobi_check`` compute on exponent
forms ({exponent tuple: coefficient}), the one polynomial calculus of
``quantization``.  The references below are the earlier Element-level
versions: lists of (coefficient, Element, Element) terms expanded one
derivative at a time, summed one Element addition at a time.  Their product
and derivative are written here on paths (the normal form of a commutative
monomial is its sorted arrows), so they share no helper with the code they
check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from pathalg.quantization import (
    HBAR,
    PoissonBivector,
    commutator_system,
    gauge_phi,
    monomial,
    moyal,
    schouten_jacobi_check,
)
from pathalg.quiver_core import Element, PolyScalar, UsageError
from pathalg.reduction_engine import reduce_full


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


def ref_schouten_jacobi_defects(eta: PoissonBivector) -> list:
    defects = []
    for i, j, k in itertools.combinations(range(1, eta.d + 1), 3):
        total = Element.zero(eta.quiver)
        for l in range(1, eta.d + 1):
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                total = total + ref_poly_mul(eta.entry(l, a),
                                             ref_poly_diff(eta.entry(b, c), l))
        defects.append(((i, j, k), total))
    return defects


def _constants(eta: PoissonBivector, trunc: int) -> dict:
    """The constant entries, entered at the order of the series (the one
    ring of a computation)."""
    if not eta.is_constant():
        raise UsageError("this operation needs a constant Poisson bivector")
    return {ji: next(iter(v.terms.values())).truncated(trunc)
            for ji, v in eta.entries.items()}


def ref_moyal(f: Element, g: Element, eta: PoissonBivector, trunc: int = 4) -> Element:
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


# -- strategies -----------------------------------------------------------------

RATIONALS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def coefficients(draw, trunc):
    """A rational, an unknown times it, or a rational plus hbar at ``trunc``."""
    q = draw(RATIONALS)
    kind = draw(st.sampled_from(["plain", "plain", "lam", "hbar"]))
    if kind == "plain":
        return PolyScalar.rational(q)
    if kind == "lam":
        return PolyScalar.var("lam").scale(q)
    hbar = PolyScalar.var(HBAR, is_param=True, trunc=trunc)
    return PolyScalar.rational(q, trunc, hbar.params) + hbar.scale(q)


@st.composite
def polynomials(draw, d, degree, trunc=None, max_terms=4):
    """1 to max_terms terms of total degree <= degree in x1..xd, the
    highest degrees first (hypothesis leans to the first choices)."""
    quiver = commutator_system(d)[0]
    exponents = st.sampled_from(sorted(
        (e for e in itertools.product(range(degree + 1), repeat=d)
         if sum(e) <= degree), key=lambda e: -sum(e)))
    out = Element.zero(quiver)
    for e in draw(st.lists(exponents, min_size=1, max_size=max_terms)):
        out = out + monomial(quiver, e, draw(coefficients(trunc)))
    return out


@st.composite
def bivectors(draw, d, degree):
    """Entries on a nonempty set of pairs (j, i), j > i."""
    pairs = [(j, i) for j in range(2, d + 1) for i in range(1, j)]
    chosen = draw(st.sets(st.sampled_from(pairs), min_size=1))
    return PoissonBivector(d, {ji: draw(polynomials(d, degree, max_terms=3))
                               for ji in sorted(chosen)})


@st.composite
def moyal_cases(draw):
    d = draw(st.integers(2, 4))
    trunc = draw(st.sampled_from([2, 3, 4, 1, 0]))
    eta = draw(bivectors(d, 0))
    f = draw(polynomials(d, 3, trunc, max_terms=3))
    g = draw(polynomials(d, 3, trunc, max_terms=3))
    return eta, f, g, trunc


# -- tests ----------------------------------------------------------------------


def test_reference_product_is_the_reduced_product():
    quiver, system = commutator_system(3)
    f = monomial(quiver, (2, 0, 1)) + monomial(quiver, (0, 1, 0))
    g = monomial(quiver, (1, 1, 0)) + monomial(quiver, (0, 0, 2))
    assert ref_poly_mul(f, g) == reduce_full(f * g, system)
    assert ref_poly_diff(f, 1) == monomial(quiver, (1, 0, 1), PolyScalar.rational(2))


@settings(max_examples=100, deadline=None)
@given(moyal_cases())
def test_moyal_and_gauge_match_the_element_level_series(case):
    eta, f, g, trunc = case
    assert moyal(f, g, eta, trunc) == ref_moyal(f, g, eta, trunc)
    assert gauge_phi(f, eta, trunc) == ref_gauge_phi(f, eta, trunc)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: bivectors(d, 2)))
def test_schouten_jacobi_defects_match_the_element_level_sum(eta):
    report = schouten_jacobi_check(eta)
    want = ref_schouten_jacobi_defects(eta)
    assert report.defects == want
    assert report.verdict == all(v.is_zero() for _, v in want)
