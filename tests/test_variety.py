"""Units for symbolic Maurer-Cartan equations and PBW checks."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_brauer
from pathalg.quiver_core import (
    AdmissibleOrder,
    Element,
    Path,
    PolyScalar,
    Quiver,
    UsageError,
    _mono_key,
)
from pathalg.reduction_engine import ReductionSystem, Rule
from pathalg.variety import (
    STRICT,
    WEAK,
    DegreeCondition,
    EquationSet,
    canonical_poly,
    canonical_set,
    cochain_basis,
    mc_equations,
    order_condition,
    pbw_check,
    symbolic_cochain,
)


def _poly(expr: dict[tuple[tuple[str, int], ...], int]) -> PolyScalar:
    return PolyScalar({m: Fraction(c) for m, c in expr.items()})


class TestDegreeCondition:
    def test_strict_weak_admit(self, two_cycle):
        q, R = two_cycle
        ab = q.path("a", "b")
        e1 = q.trivial("1")
        assert STRICT.admits(ab, e1)
        assert WEAK.admits(ab, ab)
        assert not STRICT.admits(ab, ab)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            DegreeCondition("medium")

    def test_order_kind_needs_order(self):
        with pytest.raises(UsageError):
            DegreeCondition("order")

    def test_order_condition_matches_order(self, two_cycle):
        q, R = two_cycle
        cond = order_condition(AdmissibleOrder(q, ["a", "b"]))
        ab = q.path("a", "b")
        assert cond.admits(ab, q.trivial("1"))
        assert not cond.admits(ab, ab)


class TestCochainBasis:
    def test_two_cycle_strict(self, two_cycle):
        _, R = two_cycle
        basis = cochain_basis(R, STRICT)
        assert [(repr(s), repr(u)) for s, u in basis] == \
            [("a*b", "e1"), ("b*a", "e2")]

    def test_weak_rejected(self, two_cycle):
        _, R = two_cycle
        with pytest.raises(UsageError):
            cochain_basis(R, WEAK)

    def test_four_dim_strict(self, four_dim):
        _, R = four_dim
        basis = cochain_basis(R, STRICT)
        # each of the three rules admits targets e0, x, y
        assert len(basis) == 9
        assert all(len(u) < 2 for _, u in basis)


class TestSymbolicCochain:
    def test_default_names(self, two_cycle):
        _, R = two_cycle
        basis = cochain_basis(R, STRICT)
        cochain, names = symbolic_cochain(R, basis)
        assert names == ["c1", "c2"]
        ab = R.quiver.path("a", "b")
        assert repr(cochain.values[ab]) == "c1*e1"

    def test_duplicate_names_rejected(self, two_cycle):
        _, R = two_cycle
        basis = cochain_basis(R, STRICT)
        with pytest.raises(UsageError):
            symbolic_cochain(R, basis, names=["c", "c"])


class TestCanonicalPoly:
    def test_clears_denominators_and_content(self):
        p = _poly({(("lam", 1),): 1, (("mu", 1),): -1}).scale(Fraction(3, 2))
        assert canonical_poly(p) == _poly({(("lam", 1),): 1, (("mu", 1),): -1})

    def test_leading_sign_positive(self):
        p = _poly({(("lam", 1),): -2, (("mu", 1),): 2})
        # deglex leader is lam (earlier name ranks higher); sign flipped
        assert canonical_poly(p) == _poly({(("lam", 1),): 1, (("mu", 1),): -1})

    def test_zero_stays_zero(self):
        assert canonical_poly(PolyScalar.zero()) == PolyScalar.zero()

    def test_canonical_set_dedupes_and_drops_zero(self):
        p = _poly({(("lam", 1),): 2})
        q = _poly({(("lam", 1),): -7})
        eqs = canonical_set([p, q, PolyScalar.zero()])
        assert len(eqs) == 1
        assert list(eqs) == [_poly({(("lam", 1),): 1})]

    def test_equation_set_equality(self):
        a = canonical_set([_poly({(("lam", 1),): 3})])
        b = canonical_set([_poly({(("lam", 1),): -1})])
        assert a == b
        assert a != EquationSet(())


def _fraction_canonical_poly(p: PolyScalar) -> PolyScalar:
    """The reference: every coefficient scaled by one Fraction, lcm of the
    denominators over gcd of the numerators, negated when the deglex lead
    is negative."""
    terms = {m: c for m, c in p.terms.items() if c != 0}
    if not terms:
        return PolyScalar.zero()
    scale = Fraction(lcm(*(c.denominator for c in terms.values())),
                     gcd(*(abs(c.numerator) for c in terms.values())))
    names = sorted({name for m in terms for name, _ in m})

    def lead_key(m):
        exps = dict(m)
        vec = tuple(exps.get(name, 0) for name in names)
        return (sum(vec), vec)

    if terms[max(terms, key=lead_key)] < 0:
        scale = -scale
    return PolyScalar({m: c * scale for m, c in terms.items()})


_UNKNOWNS = ("c1", "c2", "c3")
_monomial = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(
    lambda exps: tuple((n, e) for n, e in zip(_UNKNOWNS, exps) if e))
_coefficient = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-20, max_value=20, max_denominator=12)
).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_monomial, _coefficient, max_size=5))
# a negative lead: c1 outranks c2 at equal degree
@example({(("c1", 1),): Fraction(-3, 4), (("c2", 1),): Fraction(9, 8)})
# single terms of either sign
@example({(("c2", 2),): Fraction(-7, 3)})
@example({(): 12})
def test_canonical_poly_matches_the_fraction_reference(terms):
    """The int canonicalisation equals scaling by one Fraction: same terms,
    same text, and every coefficient an int."""
    p = PolyScalar(terms)
    got, want = canonical_poly(p), _fraction_canonical_poly(p)
    assert got.terms == want.terms
    assert repr(got) == repr(want)
    assert all(type(c) is int for c in got.terms.values())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(_monomial, _coefficient, max_size=5), max_size=6))
def test_equation_texts_are_the_reprs(polys):
    """``texts`` reads the stored term order without sorting: it must equal
    ``repr``, which sorts.  The equations come out in the order of their
    sorted terms, zero and repeats dropped."""
    eqs = canonical_set(PolyScalar(t) for t in polys)
    assert eqs.texts() == [repr(p) for p in eqs]
    canon = {canonical_poly(PolyScalar(t)) for t in polys} - {PolyScalar.zero()}
    assert list(eqs) == sorted(canon, key=lambda p: sorted(
        (_mono_key(m), c) for m, c in p.terms.items()))


class TestMcEquations:
    def test_two_cycle_variety(self, two_cycle):
        _, R = two_cycle
        eqs = mc_equations(R, STRICT, names=["lam", "mu"])
        assert eqs == canonical_set(
            [_poly({(("lam", 1),): 1, (("mu", 1),): -1})])

    def test_four_dim_subspace(self, four_dim):
        _, R = four_dim
        q = R.quiver
        basis = [(q.path("y", "x"), q.path("x", "y")),
                 (q.path("x", "x"), q.path("x")),
                 (q.path("y", "y"), q.path("y"))]
        eqs = mc_equations(R, WEAK, names=["lam", "mu", "nu"], basis=basis)
        expected = canonical_set([
            _poly({(("lam", 2), ("mu", 1)): 1, (("lam", 1), ("mu", 1)): -1}),
            _poly({(("lam", 2), ("nu", 1)): 1, (("lam", 1), ("nu", 1)): -1}),
        ])
        assert eqs == expected

    def test_basis_violating_condition_rejected(self, two_cycle):
        _, R = two_cycle
        q = R.quiver
        ab = q.path("a", "b")
        with pytest.raises(UsageError):
            mc_equations(R, STRICT, basis=[(ab, ab)])

    def test_brauer_contains_known_equations(self):
        q, R = make_brauer(4)
        basis = [(q.path("x1", "y1", "x1"), q.path("x1")),
                 (q.path("y1", "x1", "y1"), q.path("y1")),
                 (q.path("x2", "y2"), q.trivial("2")),
                 (q.path("x2", "y2"), q.path("y1", "x1"))]
        eqs = mc_equations(R, WEAK, names=["lam1", "mu1", "lam2", "mu2"],
                           basis=basis)
        reprs = {repr(p) for p in eqs}
        assert "lam1 - mu1" in reprs
        assert "lam2 + mu1 + mu1*mu2" in reprs


class TestPbwCheck:
    def _quadratic(self):
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
        yx = q.path("y", "x")
        R = ReductionSystem(q, [Rule(yx, Element.zero(q))])
        return q, R

    def test_passing_and_failing_values(self, two_cycle):
        q, R = two_cycle
        ab = q.path("a", "b")
        ba = q.path("b", "a")
        one = PolyScalar.rational(1)
        good = {ab: Element.from_path(q.trivial("1"), one),
                ba: Element.from_path(q.trivial("2"), one)}
        assert pbw_check(R, good)
        bad = {ab: Element.from_path(q.trivial("1"), one)}
        assert not pbw_check(R, bad)

    def test_zero_cochain_passes(self, two_cycle):
        _, R = two_cycle
        assert pbw_check(R, {})

    def test_inhomogeneous_system_rejected(self):
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
        yx = q.path("y", "x")
        R = ReductionSystem(
            q, [Rule(yx, Element.from_path(q.path("x"), PolyScalar.rational(1)))])
        with pytest.raises(UsageError):
            pbw_check(R, {})

    def test_strict_condition_enforced(self):
        q, R = self._quadratic()
        yx = q.path("y", "x")
        xy = q.path("x", "y")
        with pytest.raises(UsageError):
            pbw_check(R, {yx: Element.from_path(xy, PolyScalar.rational(1))})
