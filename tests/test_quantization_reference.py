"""The Schouten-Jacobi check against Element-level code.

``schouten_jacobi_check`` computes on exponent forms ({exponent tuple:
coefficient}), the one polynomial calculus of ``quantization``.  The
reference below is the earlier Element-level version, summed one Element
addition at a time from the product and derivative of ``conftest``, which
are written on paths and share no helper with the code they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_poly_diff, ref_poly_mul
from pathalg.quantization import (
    HBAR,
    PoissonBivector,
    commutator_system,
    monomial,
    schouten_jacobi_check,
)
from pathalg.quiver_core import Element, PolyScalar
from pathalg.reduction_engine import reduce_full


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


# -- strategies -----------------------------------------------------------------

RATIONALS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def coefficients(draw):
    """A rational, an unknown times it, or a rational plus hbar."""
    q = draw(RATIONALS)
    kind = draw(st.sampled_from(["plain", "plain", "lam", "hbar"]))
    if kind == "plain":
        return PolyScalar.rational(q)
    if kind == "lam":
        return PolyScalar.var("lam").scale(q)
    hbar = PolyScalar.var(HBAR, is_param=True)
    return PolyScalar.rational(q, params=hbar.params) + hbar.scale(q)


@st.composite
def polynomials(draw, d, degree, max_terms=4):
    """1 to max_terms terms of total degree <= degree in x1..xd, the
    highest degrees first (hypothesis leans to the first choices)."""
    quiver = commutator_system(d)[0]
    exponents = st.sampled_from(sorted(
        (e for e in itertools.product(range(degree + 1), repeat=d)
         if sum(e) <= degree), key=lambda e: -sum(e)))
    out = Element.zero(quiver)
    for e in draw(st.lists(exponents, min_size=1, max_size=max_terms)):
        out = out + monomial(quiver, e, draw(coefficients()))
    return out


@st.composite
def bivectors(draw, d, degree):
    """Entries on a nonempty set of pairs (j, i), j > i."""
    pairs = [(j, i) for j in range(2, d + 1) for i in range(1, j)]
    chosen = draw(st.sets(st.sampled_from(pairs), min_size=1))
    return PoissonBivector(d, {ji: draw(polynomials(d, degree, max_terms=3))
                               for ji in sorted(chosen)})


# -- tests ----------------------------------------------------------------------


def test_reference_product_is_the_reduced_product():
    quiver, system = commutator_system(3)
    f = monomial(quiver, (2, 0, 1)) + monomial(quiver, (0, 1, 0))
    g = monomial(quiver, (1, 1, 0)) + monomial(quiver, (0, 0, 2))
    assert ref_poly_mul(f, g) == reduce_full(f * g, system)
    assert ref_poly_diff(f, 1) == monomial(quiver, (1, 0, 1), PolyScalar.rational(2))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: bivectors(d, 2)))
def test_schouten_jacobi_defects_match_the_element_level_sum(eta):
    report = schouten_jacobi_check(eta)
    want = ref_schouten_jacobi_defects(eta)
    assert report.defects == want
    assert report.verdict == all(v.is_zero() for _, v in want)
