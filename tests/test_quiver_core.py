"""Units for paths, scalars, elements and admissible orders."""

from __future__ import annotations

import itertools
import operator
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import substitute, unit
from pathalg.quiver_core import (
    AdmissibleOrder,
    Element,
    Path,
    PolyScalar,
    Quiver,
    RingError,
    UsageError,
    _mono_deg,
    _mono_mul,
    _ring,
    compose,
    lowest_order,
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

    def test_two_truncated_rings_do_not_meet(self):
        """Scalars at two orders raise, whatever the operation; entered at
        one order first (the lower), they combine in its ring."""
        a = PolyScalar.var("t", is_param=True, trunc=5)
        b = PolyScalar.rational(1, trunc=2, params=a.params)
        for op in _BINARY.values():
            with pytest.raises(RingError):
                op(a, b)
            with pytest.raises(RingError):
                op(b, a)
        assert (a.truncated(2) * b).trunc == 2
        # a rational with no order lies in every ring
        assert a * PolyScalar.rational(3) == a.scale(3)

    def test_coefficient_of(self):
        t = PolyScalar.var("t", is_param=True, trunc=3)
        p = PolyScalar.rational(2) + t * t.scale(3)
        assert p.coefficient_of("t", 2) == PolyScalar.rational(3)
        assert p.coefficient_of("t", 0) == PolyScalar.rational(2)

    def test_substitute(self):
        t = PolyScalar.var("t")
        p = t * t + PolyScalar.rational(1)
        assert substitute(p, {"t": PolyScalar.rational(2)}) == \
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

    def test_sums_take_exact_terms_only_through_the_entry_cut(self):
        """An exact sum with parameter terms does not meet a truncated ring:
        it is cut on entry, which drops the terms above the order."""
        t = PolyScalar.var("t", is_param=True)
        t3 = t * t * t
        assert not t3.is_zero()
        low = PolyScalar.rational(1, trunc=2, params=t.params)
        with pytest.raises(RingError):
            t3 + low
        assert t3.truncated(2) + low == PolyScalar.rational(1)
        assert (t3.truncated(2) + low).trunc == 2
        assert -(t3.truncated(2) + low) == PolyScalar.rational(-1)

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
        one = unit(kronecker)
        a = Element.from_path(kronecker.path("a"))
        assert one * a == a and a * one == a

    def test_cross_quiver_addition_rejected(self, kronecker):
        other = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        with pytest.raises(UsageError):
            unit(kronecker) + unit(other)

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


def _ref_deg(m, params) -> int:
    return sum(e for n, e in m if n in params)


def _reference_mul(a: PolyScalar, b: PolyScalar, ring) -> dict:
    """Every monomial pair formed, then the terms over the ring's truncation
    dropped."""
    trunc, params = ring
    d: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for n, e in m2:
                exps[n] = exps.get(n, 0) + e
            m = tuple(sorted(exps.items()))
            d[m] = d.get(m, 0) + c1 * c2
    return {m: c for m, c in d.items() if c and (
        trunc is None or _ref_deg(m, params) <= trunc)}


def _ref_low(terms: dict, params) -> int:
    """The lowest parameter degree, recomputed from the terms."""
    return min((_ref_deg(m, params) for m in terms), default=0)


def _in_ring(x: PolyScalar, ring) -> bool:
    """Whether x lies in the ring: it has the ring's order and params, or no
    order and no term in a parameter."""
    return (x.trunc, x.params) == ring or x.trunc is None and not any(
        _ref_deg(m, ring[1] | x.params) for m in x.terms)


monomial = st.lists(st.integers(0, 3), min_size=4, max_size=4).map(
    lambda exps: tuple(sorted((n, e) for n, e in zip(_SYMBOLS, exps) if e)))
# a monomial in the unknowns lam and mu only
unknown_monomial = st.lists(st.integers(0, 3), min_size=2, max_size=2).map(
    lambda exps: tuple((n, e) for n, e in zip(("lam", "mu"), exps) if e))
coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# one coefficient ring: a truncation order (or none) and a set of params
ring = st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                 st.frozensets(st.sampled_from(["t", "h"])))


@st.composite
def _poly(draw, ring):
    """A scalar in the ring, or in a third of the draws one with no order
    whose terms are in the unknowns, which lies in every ring."""
    trunc, params = ring
    if draw(st.integers(0, 2)):
        return PolyScalar(draw(st.dictionaries(monomial, coefficient, max_size=4)),
                          trunc, params)
    return PolyScalar(draw(st.dictionaries(unknown_monomial, coefficient, max_size=3)),
                      None, draw(st.sampled_from([frozenset(), params])))


@st.composite
def _element(draw, ring):
    paths = draw(st.lists(st.sampled_from(_CYCLE_PATHS), max_size=4, unique=True))
    return Element(_CYCLE, {p: draw(_poly(ring)) for p in paths})


def _pair(operand):
    """(ring, a, b): two operands drawn in one ring."""
    return ring.flatmap(lambda r: st.tuples(st.just(r), operand(r), operand(r)))


def _unit_or_poly(ring):
    """The rational 1 of the ring, or with no order, in a third of the
    draws, else a polynomial."""
    return st.one_of(_poly(ring), _poly(ring), st.sampled_from(
        [PolyScalar.rational(1), PolyScalar.rational(1, ring[0], ring[1])]))


@settings(max_examples=300, deadline=None)
@given(monomial, monomial)
# one operand runs out first, leaving a tail of the other
@example((("h", 1), ("t", 2)), (("lam", 1), ("mu", 1)))
@example((("lam", 1), ("mu", 1)), (("h", 1), ("lam", 2), ("t", 3)))
def test_mono_mul_matches_a_dict_and_a_sort(a, b):
    """Merging two name-sorted monomials equals adding the exponents in a
    dict and sorting by name."""
    exps = dict(a)
    for n, e in b:
        exps[n] = exps.get(n, 0) + e
    assert _mono_mul(a, b) == tuple(sorted(exps.items()))


_T_RING = (1, frozenset({"t"}))
_TWO_PLUS_T = PolyScalar({(("t", 1),): 1, (): 2}, *_T_RING)


@settings(max_examples=150, deadline=None)
@given(_pair(_unit_or_poly))
# the ring's 1 and the 1 with no order, on either side: the other factor
@example((_T_RING, PolyScalar.rational(1, *_T_RING), _TWO_PLUS_T))
@example((_T_RING, _TWO_PLUS_T, PolyScalar.rational(1)))
def test_graded_scalar_product_matches_reference(case):
    """The product against the reference in the operands' one ring, with
    that ring's order and params, and the rational 1 times x is x itself
    when x has them (otherwise a copy of x in the ring)."""
    r, a, b = case
    a.min_param_degree(), b.min_param_degree()  # known, so a product may carry them
    ab = a * b
    assert ab.terms == _reference_mul(a, b, r)
    assert _in_ring(ab, r)
    assert ab.min_param_degree() == _ref_low(ab.terms, r[1])
    # the order both operands have, params joined, or that of the one with one
    ring = ((a.trunc, a.params | b.params) if a.trunc == b.trunc
            else (b.trunc, b.params) if a.trunc is None else (a.trunc, a.params))
    assert (ab.trunc, ab.params) == ring
    assert (ab is a or ab is b) == any(
        one.terms == {(): 1} and (x.trunc, x.params) == ring
        for one, x in ((a, b), (b, a)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.integers(1, 3), st.frozensets(st.sampled_from(["t", "h"]),
                                                          min_size=1), st.data())
def test_scalars_of_two_orders_raise(low, gap, params, data):
    """Two scalars with parameter terms at two orders meet in no ring: every
    operation raises, in either order of the operands."""
    param_term = st.sampled_from(sorted(params)).map(lambda n: ((n, 1),))
    a, b = (PolyScalar({data.draw(param_term): 1, **data.draw(
        st.dictionaries(monomial, coefficient.filter(bool), max_size=2))}, n, params)
        for n in (low, low + gap))
    for op in _BINARY.values():
        with pytest.raises(RingError):
            op(a, b)
        with pytest.raises(RingError):
            op(b, a)


def _ref_ring(scalars):
    """The one ring of ``scalars`` by README's rule, or None if there is
    none.  The ring has their lowest order.  Scalars at that order lie in
    the ring on the union of their params, unless a symbol is a parameter of
    one and appears as an unknown in another.  A scalar with no order lies
    in a ring with one only if it has no parameter term, of its own params
    or the ring's.  Two orders never meet."""
    used = [{n for m in x.terms for n, _ in m} for x in scalars]
    n = min((x.trunc for x in scalars if x.trunc is not None), default=None)
    at_n = [(x, u) for x, u in zip(scalars, used) if x.trunc == n]
    if any(u & (y.params - x.params) for x, u in at_n for y, _ in at_n):
        return None
    params = frozenset().union(*(x.params for x, _ in at_n))
    for x, u in zip(scalars, used):
        if x.trunc != n and (x.trunc is not None or u & (x.params | params)):
            return None
    return n, params


# a scalar at any order or none, in params {t, h} or fewer, over t, h and lam
_any_ring_scalar = st.builds(
    PolyScalar,
    st.dictionaries(st.lists(st.integers(0, 2), min_size=3, max_size=3).map(
        lambda exps: tuple((n, e) for n, e in zip(("h", "lam", "t"), exps) if e)),
        coefficient.filter(bool), max_size=3),
    st.one_of(st.none(), st.integers(0, 3)),
    st.frozensets(st.sampled_from(["t", "h"])))
_H_AS_UNKNOWN = PolyScalar({(("h", 1), ("t", 1)): 1}, 1, frozenset({"t"}))


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_ring_scalar, min_size=1, max_size=4))
# h is an unknown of one scalar at order 1 and a parameter of another there
@example([_H_AS_UNKNOWN, PolyScalar.rational(1, 1, frozenset({"h"}))])
# the 1 with no order and param h leaves h out of the ring at order 1
@example([_H_AS_UNKNOWN, PolyScalar.rational(1, None, frozenset({"h"}))])
def test_one_ring_rule_for_any_scalars(scalars):
    """``_ring`` raises exactly when the README rule finds no ring, returns
    its ring otherwise, in every order of the scalars, and every scalar then
    joins that ring."""
    want = _ref_ring(scalars)
    for perm in itertools.permutations(scalars):
        if want is None:
            with pytest.raises(RingError):
                _ring(perm)
        else:
            assert _ring(perm) == want
    if want is not None:
        assert all(x._joins(*want) for x in scalars)


@settings(max_examples=60, deadline=None)
@given(_pair(_element))
def test_graded_element_product_matches_reference(case):
    r, a, b = case
    want: dict = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            pq = compose(p, q)
            if pq is None:
                continue
            acc = want.setdefault(pq, {})
            for m, c in _reference_mul(cp, cq, r).items():
                acc[m] = acc.get(m, 0) + c
    want = {p: {m: c for m, c in d.items() if c} for p, d in want.items()}
    assert {p: c.terms for p, c in (a * b).terms.items()} == \
        {p: d for p, d in want.items() if d}


# -- ring laws on elements of one ring ----------------------------------------

def _laws(a: Element, b: Element, c: Element) -> list[str]:
    """The ring laws of + - * that fail on a, b, c."""
    laws = {"+ associates": ((a + b) + c, a + (b + c)),
            "* associates": ((a * b) * c, a * (b * c)),
            "* distributes over + on the left": (a * (b + c), a * b + a * c),
            "* distributes over + on the right": ((a + b) * c, a * c + b * c),
            "- undoes +": ((a + b) - b, a),
            "- associates": ((a - b) - c, a - (b + c))}
    return [name for name, (x, y) in laws.items() if x != y]


@settings(max_examples=200, deadline=None)
@given(ring.flatmap(lambda r: st.tuples(*[_element(r)] * 3)))
def test_elements_of_one_ring_satisfy_the_ring_laws(triple):
    """Addition, subtraction and multiplication of elements entered into
    one ring (coefficients in it, or with no order and no parameter term)
    associate and distribute: no grouping cuts differently."""
    assert _laws(*triple) == []


def test_elements_of_two_orders_meet_only_through_the_entry_cut():
    """a = hbar^2*x at order 3, b = hbar*x and c = -hbar*x at order 1 lie
    in two rings.  Mixing them raised nothing before, and (a + b) + c was 0
    while a + (b + c) was hbar^2*x; now it raises.  Entered at the lowest
    order, a is 0 and the laws hold."""
    x = _Q.path("x")
    h2 = PolyScalar({(("hbar", 2),): 1}, 3, frozenset({"hbar"}))
    h1 = PolyScalar.var("hbar", is_param=True, trunc=1)
    a, b, c = Element.from_path(x, h2), Element.from_path(x, h1), Element.from_path(x, -h1)
    for op in _BINARY.values():
        with pytest.raises(RingError):
            op(a, b)
        with pytest.raises(RingError):
            op(b, a)
    n = lowest_order(a.order(), b.order(), c.order())
    assert n == 1
    a, b, c = (e.truncated(n) for e in (a, b, c))
    assert a.is_zero() and _laws(a, b, c) == []


# -- int coefficients when integral, against a Fraction-only reference -----

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_OPS = (*_BINARY, "scale", "truncated")
exact = st.one_of(st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=3))


def _ref_cut(terms: dict, trunc, params) -> tuple:
    return ({m: c for m, c in terms.items() if c and (
        trunc is None or _ref_deg(m, params) <= trunc)}, trunc, params)


def _ref_fits(x: tuple) -> bool:
    """A (terms, trunc, params) triple with no order and no parameter term."""
    terms, trunc, params = x
    return trunc is None and not any(_ref_deg(m, params) for m in terms)


def _ref_truncated(x: tuple, n) -> tuple:
    """The entry cut: x itself unless n is lower than its order, or x has
    no order and parameter terms."""
    terms, trunc, params = x
    if n is None or (trunc is not None and trunc <= n) or _ref_fits(x):
        return x
    return _ref_cut(terms, n, params)


def _ref_apply(op: str, a: tuple, b: tuple, q: Fraction) -> tuple:
    """One operation on (Fraction terms, trunc, params) triples of one ring:
    the order they share (params joined), or the order of the one that has
    one when the other has no order and no parameter term."""
    ta, tra, pa = a
    if op == "scale":
        return _ref_cut({m: c * q for m, c in ta.items()}, tra, pa)
    tb, trb, pb = b
    tr, ps = (tra, pa | pb) if tra == trb else (trb, pb) if _ref_fits(a) else (tra, pa)
    if op == "*":
        return _ref_cut(_reference_mul(SimpleNamespace(terms=ta), SimpleNamespace(terms=tb),
                                       (tr, ps)), tr, ps)
    sign = 1 if op == "+" else -1
    d = dict(ta)
    for m, c in tb.items():
        d[m] = d.get(m, Fraction(0)) + sign * c
    return _ref_cut(d, tr, ps)


@st.composite
def _program(draw):
    """Two polynomials in one ring, each in it or with no order and terms in
    the unknowns only, with int or Fraction coefficients; a scale factor, a
    truncation order and a sequence of operations."""
    trunc, params = draw(ring)
    sides, terms = [], []
    for _ in range(2):
        if draw(st.integers(0, 2)):
            sides.append((trunc, params))
            terms.append(draw(st.dictionaries(monomial, exact, max_size=4)))
        else:
            sides.append((None, draw(st.sampled_from([frozenset(), params]))))
            terms.append(draw(st.dictionaries(unknown_monomial, exact, max_size=3)))
    return (terms, sides, draw(exact), draw(st.one_of(st.none(), st.integers(0, 3))),
            draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(_program(), st.booleans())
def test_coefficients_are_ints_when_integral(program, b_low_known):
    """Each operation against the reference, and the kernel's shortcuts
    against it too: the lowest degree that a product carries over from its
    factors (which happens when both already know theirs, so ``b`` is asked
    first in half the draws), and truncations that cut nothing.  A
    truncation enters both operands at the order, so they stay in one ring."""
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
        if op == "truncated":
            a, b = a.truncated(n), b.truncated(n)
            ref_a, ref_b = _ref_truncated(ref_a, n), _ref_truncated(ref_b, n)
            assert (a is before) == (ref_a[1:] == (before.trunc, before.params))
        else:
            a = a.scale(q) if op == "scale" else _BINARY[op](a, b)
            ref_a = _ref_apply(op, ref_a, ref_b, Fraction(q))
        assert a.terms == ref_a[0] and a.trunc == ref_a[1] and a.params == ref_a[2]
        assert a.min_param_degree() == _ref_low(ref_a[0], ref_a[2])
        assert all(type(c) in (int, Fraction) for c in a.terms.values())
        if integral:
            assert all(type(c) is int for c in a.terms.values())


@settings(max_examples=60, deadline=None)
@given(_element((2, frozenset({"t"}))), st.one_of(st.none(), st.integers(0, 3)))
def test_element_truncation_cuts_only_below_its_order(x, n):
    """Entering at order n cuts the coefficients at order 2 when n is
    lower; one with no order and no parameter term lies in every ring and
    stays.  When nothing is cut, the element itself comes back."""
    cut = x.truncated(n)
    exact = all(c.trunc is None for c in x.terms.values())
    assert (cut is x) == (n is None or n >= 2 or exact)
    assert {p: c.terms for p, c in cut.terms.items()} == {
        p: d for p, d in ((p, c.terms if c.trunc is None else _ref_cut(c.terms, n, c.params)[0])
                          for p, c in x.terms.items()) if d}
