"""Units for paths, scalars, elements and admissible orders."""

from __future__ import annotations

import operator
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from pathalg.quiver_core import (
    AdmissibleOrder,
    Element,
    Path,
    PolyScalar,
    Quiver,
    UsageError,
    _mono_deg,
    compose,
)


@pytest.fixture
def kronecker():
    return Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


class TestPath:
    def test_trivial_path_has_matching_endpoints(self, kronecker):
        e = Path(kronecker, vertex="1")
        assert e.is_trivial and e.source == e.target == "1"

    def test_arrow_word_endpoints(self, kronecker):
        p = kronecker.path("a")
        assert (p.source, p.target) == ("1", "2")

    def test_non_composable_word_rejected(self, kronecker):
        with pytest.raises(UsageError):
            kronecker.path("a", "b")

    def test_unknown_arrow_rejected(self, kronecker):
        with pytest.raises(UsageError):
            kronecker.path("c")

    def test_compose_returns_none_on_mismatch(self, kronecker):
        a = kronecker.path("a")
        assert compose(a, a) is None

    def test_compose_with_trivial_is_identity(self, kronecker):
        a = kronecker.path("a")
        e1 = Path(kronecker, vertex="1")
        e2 = Path(kronecker, vertex="2")
        assert compose(e1, a) == a and compose(a, e2) == a

    def test_trusted_constructor_matches_checked(self, kronecker):
        p = Path._trusted(kronecker, ("a",), None)
        assert p == kronecker.path("a") and hash(p) == hash(kronecker.path("a"))

    def test_subword(self):
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
        p = q.path("x", "y", "x")
        assert p.subword(1, 3) == q.path("y", "x")
        assert p.subword(1, 1).is_trivial


# -- compose against the validating constructor -----------------------------

_MULTI = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"),
                                  ("d", "3", "1"), ("e", "2", "2")])


@st.composite
def _multi_path(draw):
    """A random path of _MULTI, trivial when it takes no step."""
    v = start = draw(st.sampled_from(_MULTI.vertices))
    arrows = []
    for _ in range(draw(st.integers(0, 4))):
        arrows.append(draw(st.sampled_from(_MULTI.arrows_from(v))))
        v = _MULTI.target(arrows[-1])
    return Path(_MULTI, arrows=tuple(arrows)) if arrows else Path(_MULTI, vertex=start)


@settings(max_examples=200, deadline=None)
@given(_multi_path(), _multi_path())
def test_compose_matches_the_validating_constructor(p, q):
    if p.is_trivial or q.is_trivial:
        other = q if p.is_trivial else p
        want = other if p.target == q.source else None
    else:
        try:
            want = Path(_MULTI, arrows=p.arrows + q.arrows)
        except UsageError:
            want = None
    got = compose(p, q)
    assert got == want
    if want is not None:
        assert (got.quiver, type(got.arrows), hash(got)) == (_MULTI, tuple, hash(want))


class TestPolyScalar:
    def test_rational_arithmetic(self):
        a = PolyScalar.rational(Fraction(1, 2))
        b = PolyScalar.rational(Fraction(1, 3))
        assert (a + b) == PolyScalar.rational(Fraction(5, 6))
        assert (a * b) == PolyScalar.rational(Fraction(1, 6))

    def test_param_truncation_drops_high_degree(self):
        t = PolyScalar.var("t", is_param=True, trunc=2)
        assert (t * t * t).is_zero()
        assert not (t * t).is_zero()

    def test_non_param_symbols_are_not_truncated(self):
        lam = PolyScalar.var("lam", trunc=2)
        assert not (lam * lam * lam).is_zero()

    def test_trunc_meta_takes_minimum(self):
        a = PolyScalar.var("t", is_param=True, trunc=5)
        b = PolyScalar.rational(1, trunc=2)
        assert (a * b).trunc == 2

    def test_coefficient_of(self):
        t = PolyScalar.var("t", is_param=True, trunc=3)
        p = PolyScalar.rational(2) + t * t.scale(3)
        assert p.coefficient_of("t", 2) == PolyScalar.rational(3)
        assert p.coefficient_of("t", 0) == PolyScalar.rational(2)

    def test_substitute(self):
        t = PolyScalar.var("t")
        p = t * t + PolyScalar.rational(1)
        assert p.substitute({"t": PolyScalar.rational(2)}) == \
            PolyScalar.rational(5)

    def test_repr_is_deterministic(self):
        p = PolyScalar.var("b") + PolyScalar.var("a")
        assert repr(p) == "a + b"


class TestExactArithmetic:
    def test_products_drop_terms_above_trunc(self):
        t = PolyScalar.var("t", is_param=True, trunc=3)
        p = PolyScalar.rational(1, trunc=3, params=t.params) + t * t
        assert p * p == PolyScalar.rational(1) + (t * t).scale(2)
        assert max(_mono_deg(m, p.params) for m in (p * p * t).terms) <= 3

    def test_sums_drop_terms_above_the_smaller_trunc(self):
        t = PolyScalar.var("t", is_param=True)
        t3 = t * t * t
        assert not t3.is_zero()
        low = PolyScalar.rational(1, trunc=2, params=t.params)
        assert t3 + low == PolyScalar.rational(1)
        assert (t3 + low).trunc == 2
        assert -(t3 + low) == PolyScalar.rational(-1)

    def test_cancellation_leaves_no_zero_terms(self):
        t = PolyScalar.var("t", is_param=True, trunc=2)
        assert (t - t).terms == {}
        assert (t * PolyScalar.rational(0)).terms == {}
        assert (t + t.scale(-1)).is_zero()

    def test_constructors_give_ints_and_as_rational_a_fraction(self):
        t = (("t", 1),)
        for q in (0, 2, Fraction(6, 3), Fraction(-1, 3)):
            r = PolyScalar.rational(q).as_rational()
            assert type(r) is Fraction and r == q
        assert type(PolyScalar.rational(Fraction(6, 3)).terms[()]) is int
        assert type(PolyScalar.var("t").terms[t]) is int
        assert type(PolyScalar({t: Fraction(4, 2)}).terms[t]) is int
        assert type(PolyScalar.var("t").scale(Fraction(1, 3)).terms[t]) is Fraction

    def test_repr_prints_coefficients_over_the_digit_limit(self):
        # Decimal converts ints without the interpreter's str() digit limit
        for q in (10 ** 5000, -(10 ** 6001) + 7, Fraction(3 ** 9000, 2 ** 15001)):
            q = Fraction(q)
            want = str(Decimal(q.numerator))
            if q.denominator != 1:
                want += "/" + str(Decimal(q.denominator))
            assert repr(PolyScalar.rational(q)) == want
            assert repr(PolyScalar({(("t", 1),): q})) == want + "*t"


class TestElement:
    def test_zero_terms_dropped(self, kronecker):
        a = Element.from_path(kronecker.path("a"))
        assert (a - a).is_zero()

    def test_multiplication_is_concatenation(self):
        q = Quiver(["0"], [("x", "0", "0")])
        x = Element.from_path(q.path("x"))
        assert (x * x).paths() == [q.path("x", "x")]

    def test_non_composable_products_vanish(self, kronecker):
        a = Element.from_path(kronecker.path("a"))
        assert (a * a).is_zero()

    def test_unit_is_multiplicative_identity(self, kronecker):
        one = Element.unit(kronecker)
        a = Element.from_path(kronecker.path("a"))
        assert one * a == a and a * one == a

    def test_cross_quiver_addition_rejected(self, kronecker):
        other = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        with pytest.raises(UsageError):
            Element.unit(kronecker) + Element.unit(other)

    def test_uniformity(self, kronecker):
        a = Element.from_path(kronecker.path("a"))
        b = Element.from_path(kronecker.path("b"))
        assert (a + b).is_uniform()
        assert not (a + Element.from_path(Path(kronecker, vertex="1"))).is_uniform()


# -- admissible-order axioms on sampled triples -----------------------------

_Q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0"), ("z", "0", "0")])
_ORDER = AdmissibleOrder(_Q, ["x", "y", "z"])


def _paths(draw_words):
    return [_Q.path(*w) if w else Path(_Q, vertex="0") for w in draw_words]


word = st.lists(st.sampled_from(["x", "y", "z"]), min_size=0, max_size=5)


@given(word, word, word)
def test_order_is_total_and_transitive(w1, w2, w3):
    p, q, r = _paths([tuple(w1), tuple(w2), tuple(w3)])
    # totality: exactly one of <, =, > holds
    assert (_ORDER.less(p, q) + _ORDER.less(q, p) + (p == q)) == 1
    if _ORDER.less(p, q) and _ORDER.less(q, r):
        assert _ORDER.less(p, r)


@given(word, word, word)
def test_order_is_compatible_with_concatenation(w1, w2, w3):
    p, q = _paths([tuple(w1), tuple(w2)])
    u = _Q.path(*w3) if w3 else Path(_Q, vertex="0")
    if _ORDER.less(p, q):
        assert _ORDER.less(compose(u, p), compose(u, q))
        assert _ORDER.less(compose(p, u), compose(q, u))


@given(word)
def test_order_is_well_founded_below_length(w):
    # deglex: strictly smaller paths never have greater length
    p = _Q.path(*w) if w else Path(_Q, vertex="0")
    assert not _ORDER.less(p, Path(_Q, vertex="0")) or len(p) == 0


# -- graded products against form-everything-then-truncate ----------------

_SYMBOLS = ("t", "h", "lam", "mu")
_CYCLE = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
_CYCLE_PATHS = [Path(_CYCLE, vertex="1"), Path(_CYCLE, vertex="2"),
                _CYCLE.path("a"), _CYCLE.path("b"), _CYCLE.path("a", "b"),
                _CYCLE.path("b", "a"), _CYCLE.path("a", "b", "a")]


def _reference_mul(a: PolyScalar, b: PolyScalar) -> dict:
    """Every monomial pair formed, then the terms over the merged
    truncation (degrees counted with the merged params) dropped."""
    truncs = [t for t in (a.trunc, b.trunc) if t is not None]
    trunc = min(truncs) if truncs else None
    params = a.params | b.params
    d: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for n, e in m2:
                exps[n] = exps.get(n, 0) + e
            m = tuple(sorted(exps.items()))
            d[m] = d.get(m, 0) + c1 * c2
    return {m: c for m, c in d.items() if c and (
        trunc is None or sum(e for n, e in m if n in params) <= trunc)}


def _ref_low(terms: dict, params) -> int:
    """The lowest parameter degree, recomputed from the terms."""
    return min((sum(e for n, e in m if n in params) for m in terms), default=0)


monomial = st.lists(st.integers(0, 3), min_size=4, max_size=4).map(
    lambda exps: tuple(sorted((n, e) for n, e in zip(_SYMBOLS, exps) if e)))
coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# one truncation order and one set of params per side, as for the
# coefficients of one computation; either may differ between the sides
side = st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                 st.frozensets(st.sampled_from(["t", "h"])))


@st.composite
def _poly(draw, meta):
    trunc, params = meta
    terms = draw(st.dictionaries(monomial, coefficient, max_size=4))
    return PolyScalar(terms, trunc, params)


@st.composite
def _element(draw, meta):
    paths = draw(st.lists(st.sampled_from(_CYCLE_PATHS), max_size=4, unique=True))
    return Element(_CYCLE, {p: draw(_poly(meta)) for p in paths})


def _pair(operand):
    """Two operands, each drawn with its own side's trunc and params."""
    return st.tuples(side, side).flatmap(
        lambda metas: st.tuples(operand(metas[0]), operand(metas[1])))


def _unit_or_poly(meta):
    """The rational 1 in a third of the draws, else a polynomial."""
    return st.one_of(_poly(meta), _poly(meta),
                     st.builds(PolyScalar.rational, st.just(1), st.just(meta[0]),
                               st.just(meta[1])))


_TWO_PLUS_T2 = PolyScalar({(("t", 2),): 1, (): 2}, None, frozenset({"t"}))


@settings(max_examples=150, deadline=None)
@given(_pair(_unit_or_poly))
# a 1 with a lower trunc, and a 1 with a param the other lacks: no shortcut
@example((PolyScalar.rational(1, 1, frozenset({"t"})), _TWO_PLUS_T2))
@example((_TWO_PLUS_T2, PolyScalar.rational(1, 1, frozenset())))
@example((PolyScalar.rational(1, None, frozenset({"h"})), _TWO_PLUS_T2))
# a 1 that widens neither: the other factor itself
@example((PolyScalar.rational(1), _TWO_PLUS_T2))
@example((_TWO_PLUS_T2, PolyScalar.rational(1, None, frozenset({"t"}))))
def test_graded_scalar_product_matches_reference(pair):
    """The product against the reference, and the rational 1 times x is x
    itself exactly when x's trunc and params are the product's."""
    a, b = pair
    a.min_param_degree(), b.min_param_degree()  # known, so a product may carry them
    ab = a * b
    truncs = [t for t in (a.trunc, b.trunc) if t is not None]
    assert ab.terms == _reference_mul(a, b)
    assert ab.trunc == (min(truncs) if truncs else None)
    assert ab.params == a.params | b.params
    assert ab.min_param_degree() == _ref_low(ab.terms, ab.params)
    shortcut = any(one.terms == {(): 1} and (x.trunc, x.params) == (ab.trunc, ab.params)
                   for one, x in ((a, b), (b, a)))
    assert (ab is a or ab is b) == shortcut


@settings(max_examples=60, deadline=None)
@given(_pair(_element))
def test_graded_element_product_matches_reference(pair):
    a, b = pair
    want: dict = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            pq = compose(p, q)
            if pq is None:
                continue
            acc = want.setdefault(pq, {})
            for m, c in _reference_mul(cp, cq).items():
                acc[m] = acc.get(m, 0) + c
    want = {p: {m: c for m, c in d.items() if c} for p, d in want.items()}
    assert {p: c.terms for p, c in (a * b).terms.items()} == \
        {p: d for p, d in want.items() if d}


# -- int coefficients when integral, against a Fraction-only reference -----

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_OPS = (*_BINARY, "scale", "truncated")
exact = st.one_of(st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=3))


def _ref_cut(terms: dict, trunc, params) -> tuple:
    return ({m: c for m, c in terms.items() if c and (
        trunc is None or sum(e for n, e in m if n in params) <= trunc)},
            trunc, params)


def _ref_apply(op: str, a: tuple, b: tuple, q: Fraction, n) -> tuple:
    """One operation on (Fraction terms, trunc, params) triples."""
    ta, tra, pa = a
    if op == "scale":
        return _ref_cut({m: c * q for m, c in ta.items()}, tra, pa)
    if op == "truncated":
        tr = n if tra is None else (n if n is not None and n < tra else tra)
        return _ref_cut(ta, tr, pa)
    tb, trb, pb = b
    truncs = [t for t in (tra, trb) if t is not None]
    tr, ps = (min(truncs) if truncs else None), pa | pb
    if op == "*":
        return _ref_cut(_reference_mul(SimpleNamespace(terms=ta, trunc=tra, params=pa),
                                       SimpleNamespace(terms=tb, trunc=trb, params=pb)),
                        tr, ps)
    sign = 1 if op == "+" else -1
    d = dict(ta)
    for m, c in tb.items():
        d[m] = d.get(m, Fraction(0)) + sign * c
    return _ref_cut(d, tr, ps)


@st.composite
def _program(draw):
    """Two polynomials with int or Fraction coefficients, a scale factor,
    a truncation order and a sequence of operations."""
    sides = [draw(side), draw(side)]
    terms = [draw(st.dictionaries(monomial, exact, max_size=4)) for _ in sides]
    return (terms, sides, draw(exact), draw(st.one_of(st.none(), st.integers(0, 3))),
            draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(_program(), st.booleans())
def test_coefficients_are_ints_when_integral(program, b_low_known):
    """Each operation against the reference, and the kernel's shortcuts
    against it too: the lowest degree that a product carries over from its
    factors (which happens when both already know theirs, so ``b`` is asked
    first in half the draws), and truncations that cut nothing."""
    terms, sides, q, n, ops = program
    a, b = (PolyScalar(t, tr, ps) for t, (tr, ps) in zip(terms, sides))
    ref_a, ref_b = (_ref_cut({m: Fraction(c) for m, c in t.items()}, tr, frozenset(ps))
                    for t, (tr, ps) in zip(terms, sides))
    integral = all(Fraction(c).denominator == 1
                   for c in [q, *terms[0].values(), *terms[1].values()])
    assert a.min_param_degree() == _ref_low(*ref_a[::2])
    if b_low_known:
        assert b.min_param_degree() == _ref_low(*ref_b[::2])
    for op in ops:
        before = a
        a = (a.scale(q) if op == "scale" else a.truncated(n) if op == "truncated"
             else _BINARY[op](a, b))
        ref_a = _ref_apply(op, ref_a, ref_b, Fraction(q), n)
        assert a.terms == ref_a[0] and a.trunc == ref_a[1] and a.params == ref_a[2]
        assert a.min_param_degree() == _ref_low(ref_a[0], ref_a[2])
        if op == "truncated" and (n is None or before.trunc is not None and n >= before.trunc):
            assert a is before
        assert all(type(c) in (int, Fraction) for c in a.terms.values())
        if integral:
            assert all(type(c) is int for c in a.terms.values())


@settings(max_examples=60, deadline=None)
@given(_element((2, frozenset({"t"}))), st.one_of(st.none(), st.integers(0, 3)))
def test_element_truncation_cuts_only_below_its_order(x, n):
    cut = x.truncated(n)
    if n is None or n >= 2:
        assert cut is x
    else:
        assert {p: c.terms for p, c in cut.terms.items()} == {
            p: d for p, d in ((p, _ref_cut(c.terms, n, c.params)[0])
                              for p, c in x.terms.items()) if d}
