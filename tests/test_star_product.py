"""Units for the combinatorial star product, MC checks and gauge maps."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_brauer, make_deformed3
from pathalg.quantization import commutator_system
from pathalg.quiver_core import Element, Path, PolyScalar, Quiver, UsageError
from pathalg.reduction_engine import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ReductionSystem,
    Rule,
    check_diamond,
    irreducible_paths,
    overlaps,
    reduce_full,
)
from pathalg.star_product import (
    DeformationCochain,
    GaugeOnArrows,
    Z_SYMBOL,
    associator_defects,
    gauge_check,
    mc_check,
    star,
    star_k,
)
from pathalg.variety import STRICT, cochain_basis, symbolic_cochain
from test_reduce_order import _walk


def _t(trunc=4):
    return PolyScalar.var("t", is_param=True, trunc=trunc)


@pytest.fixture
def deformed_two_cycle(two_cycle):
    q, R = two_cycle
    values = {q.path("a", "b"): Element.from_path(Path(q, vertex="1"), _t()),
              q.path("b", "a"): Element.from_path(Path(q, vertex="2"), _t())}
    return q, R, DeformationCochain(R, values, trunc=4)


class TestCochainValidation:
    def test_value_must_be_parallel(self, two_cycle):
        q, R = two_cycle
        with pytest.raises(UsageError):
            DeformationCochain(R, {q.path("a", "b"):
                                   Element.from_path(Path(q, vertex="2"), _t())})

    def test_value_must_be_irreducible(self, four_dim):
        q, R = four_dim
        bad = Element.from_path(q.path("y", "x"), _t())
        with pytest.raises(UsageError):
            DeformationCochain(R, {q.path("y", "x"): bad})

    def test_lhs_must_be_a_rule(self, two_cycle):
        q, R = two_cycle
        with pytest.raises(UsageError):
            DeformationCochain(R, {q.path("a"): Element.from_path(q.path("a"), _t())})

    def test_formal_needs_positive_degree(self, two_cycle):
        q, R = two_cycle
        const = Element.from_path(Path(q, vertex="1"))
        with pytest.raises(UsageError):
            DeformationCochain(R, {q.path("a", "b"): const})

    def test_reserved_symbol_rejected(self, two_cycle):
        q, R = two_cycle
        z = Element.from_path(Path(q, vertex="1"), PolyScalar.var(Z_SYMBOL))
        with pytest.raises(UsageError):
            DeformationCochain(R, {q.path("a", "b"): z})

    def test_formal_needs_finite_trunc(self, two_cycle):
        q, R = two_cycle
        v = Element.from_path(Path(q, vertex="1"), _t(None))
        with pytest.raises(UsageError):
            DeformationCochain(R, {q.path("a", "b"): v}, trunc=None)


class TestStar:
    def test_two_cycle_star(self, deformed_two_cycle):
        q, R, coc = deformed_two_cycle
        a = Element.from_path(q.path("a"))
        b = Element.from_path(q.path("b"))
        # a * b = ab -> t e1
        assert star(a, b, coc) == \
            Element.from_path(Path(q, vertex="1"), _t())

    def test_star_zero_stratum_is_plain_reduction(self, deformed_two_cycle):
        q, R, coc = deformed_two_cycle
        a = Element.from_path(q.path("a"))
        b = Element.from_path(q.path("b"))
        assert star_k(a, b, coc, 0) == reduce_full(a * b, R)
        assert star_k(a, b, coc, 1) == \
            Element.from_path(Path(q, vertex="1"), _t())

    def test_star_strata_sum_to_star(self, deformed_two_cycle):
        q, R, coc = deformed_two_cycle
        aba = Element.from_path(q.path("a", "b", "a"))
        b = Element.from_path(q.path("b"))
        total = Element.zero(q)
        for k in range(5):
            total = total + star_k(aba, b, coc, k)
        assert total == star(aba, b, coc)

    def test_unit_is_star_identity(self, deformed_two_cycle):
        q, R, coc = deformed_two_cycle
        one = Element.unit(q)
        for p in irreducible_paths(R.lhs_set(), q):
            a = Element.from_path(p)
            assert star(one, a, coc) == a
            assert star(a, one, coc) == a


class TestMaurerCartan:
    def test_two_cycle_equal_parameters_pass(self, deformed_two_cycle):
        _, R, coc = deformed_two_cycle
        assert mc_check(coc).verdict

    def test_two_cycle_unequal_parameters_fail(self, two_cycle):
        q, R = two_cycle
        values = {q.path("a", "b"): Element.from_path(Path(q, vertex="1"), _t())}
        coc = DeformationCochain(R, values, trunc=4)
        assert not mc_check(coc).verdict

    def test_empty_s3_is_vacuous(self, nf_quiver):
        q, R = nf_quiver
        values = {q.path("x", "y1"): Element.from_path(q.path("x", "y2"), _t())}
        coc = DeformationCochain(R, values, trunc=4)
        assert mc_check(coc).verdict

    def test_associativity_beyond_overlaps_when_mc_passes(self,
                                                          deformed_two_cycle):
        """MC on overlaps implies associativity on sampled longer triples."""
        q, R, coc = deformed_two_cycle
        rng = random.Random(7)
        basis = irreducible_paths(R.lhs_set(), q)
        for _ in range(40):
            u, v, w = (Element.from_path(rng.choice(basis)) for _ in range(3))
            left = star(star(u, v, coc), w, coc)
            right = star(u, star(v, w, coc), coc)
            assert (left - right).is_zero()


class TestGauge:
    def test_identity_gauge_preserves_cochain(self, deformed_two_cycle):
        q, R, coc = deformed_two_cycle
        psi = GaugeOnArrows(R, {}, trunc=coc.trunc)
        assert gauge_check(psi, coc, coc)

    def test_nontrivial_gauge_detects_mismatch(self, deformed_two_cycle):
        q, R, coc = deformed_two_cycle
        psi = GaugeOnArrows(R, {q.path("a"):
                                Element.from_path(q.path("a"), _t())},
                            trunc=coc.trunc)
        assert not gauge_check(psi, coc, coc)

    def test_gauge_values_must_be_arrows(self, deformed_two_cycle):
        q, R, coc = deformed_two_cycle
        with pytest.raises(UsageError):
            GaugeOnArrows(R, {q.path("a", "b"):
                              Element.from_path(Path(q, vertex="1"), _t())})

    @pytest.mark.parametrize("word, coeff, message", [
        (("b",), _t(), "gauge value for a not parallel: b"),
        (("a", "b", "a"), _t(), "gauge value for a has reducible term a*b*a"),
        (("a",), PolyScalar.rational(2), "gauge value for a has a parameter-degree-0 term"),
    ])
    def test_gauge_values_are_checked(self, deformed_two_cycle, word, coeff, message):
        q, R, coc = deformed_two_cycle
        with pytest.raises(UsageError) as info:
            GaugeOnArrows(R, {q.path("a"): Element.from_path(q.path(*word), coeff)})
        assert str(info.value) == message


class TestNonFormal:
    """The 4-vertex example separates termination regimes."""

    def _values(self, q, lam, mu, nu):
        v1 = Element.from_path(q.path("x", "y2"), lam)
        v2 = Element.from_path(q.path("y1", "z"), mu) + \
            Element.from_path(q.path("w"), nu)
        return {q.path("x", "y1"): v1, q.path("y2", "z"): v2}

    def test_reduce_diverges_with_all_parameters(self, nf_quiver):
        q, R0 = nf_quiver
        lam, mu, nu = (PolyScalar.var(n) for n in ("lam", "mu", "nu"))
        coc = DeformationCochain(R0, self._values(q, lam, mu, nu),
                                 trunc=None, formal=False)
        with pytest.raises(BudgetExceeded):
            reduce_full(Element.from_path(q.path("x", "y1", "z")),
                        coc._deformed, budget=500)

    def test_star_terminates_when_nu_vanishes(self, nf_quiver):
        """Formal truncation realizes the adic convergence of the cycle."""
        q, R0 = nf_quiver
        lam = PolyScalar.var("lam", is_param=True, trunc=8)
        mu = PolyScalar.var("mu", is_param=True, trunc=8)
        coc = DeformationCochain(
            R0, self._values(q, lam, mu, PolyScalar.zero(trunc=8)), trunc=8)
        basis = [p for p in irreducible_paths(R0.lhs_set(), q) if len(p) <= 2]
        for p, r in itertools.product(basis, repeat=2):
            a, b = Element.from_path(p), Element.from_path(r)
            star(a, b, coc, budget=10_000)  # must not raise

    def test_cycling_product_converges_to_zero(self, nf_quiver):
        q, R0 = nf_quiver
        lam = PolyScalar.var("lam", is_param=True, trunc=8)
        mu = PolyScalar.var("mu", is_param=True, trunc=8)
        coc = DeformationCochain(
            R0, self._values(q, lam, mu, PolyScalar.zero(trunc=8)), trunc=8)
        x = Element.from_path(q.path("x"))
        y1z = Element.from_path(q.path("y1", "z"))
        assert star(x, y1z, coc).is_zero()


# ---------------------------------------------------------------------------
# star on the untagged deformed system against the z-tagged reference


def _tagged_system(R, cochain):
    """Reference: the rules s -> phi_s + z*phitilde_s, z counting strata."""
    z = PolyScalar.var(Z_SYMBOL)
    return ReductionSystem(R.quiver, [
        Rule(rule.lhs, (rule.rhs + cochain.value(rule.lhs).scale(z))
             .truncated(cochain.trunc)) for rule in R.rules])


def _set_z_to_one(a):
    one = {Z_SYMBOL: PolyScalar.rational(1)}
    return Element(a.quiver, {p: c.substitute(one) for p, c in a.terms.items()})


def reference_star(a, b, R, cochain, budget=DEFAULT_BUDGET):
    """Reduce a*b on the z-tagged system, then set z = 1."""
    red = reduce_full((a * b).truncated(cochain.trunc),
                      _tagged_system(R, cochain), budget)
    return _set_z_to_one(red).truncated(cochain.trunc)


def reference_gauge_check(psi, R, cochain, cochain_prime):
    """gauge_check with every product taken by the tagged reference."""
    trunc = cochain.trunc

    def t_of(a):
        out = Element.zero(a.quiver)
        for p, c in a.terms.items():
            if p.is_trivial:
                term = Element.from_path(p)
            else:
                term = psi.t_of_arrow(p.subword(0, 1))
                for i in range(1, len(p)):
                    term = reference_star(
                        term, psi.t_of_arrow(p.subword(i, i + 1)), R, cochain)
            out = out + term.scale(c)
        return out.truncated(trunc)

    for rule in R.rules:
        s = rule.lhs
        lhs = t_of(rule.rhs + cochain_prime.value(s))
        prod = psi.t_of_arrow(s.subword(0, 1))
        for i in range(1, len(s)):
            prod = prod * psi.t_of_arrow(s.subword(i, i + 1))
        red = _set_z_to_one(reduce_full(prod.truncated(trunc),
                                        _tagged_system(R, cochain)))
        if not (lhs - red).truncated(trunc).is_zero():
            return False
    return True


def _deformed_commutator(d, trunc=3):
    """k[x1..xd] with phitilde(x_j x_i) = hbar*(x1^2 + (j-i)*x_i) - 2*hbar^2*x_i^2."""
    q, R = commutator_system(d)
    h = PolyScalar.var("hbar", is_param=True, trunc=trunc)
    values = {}
    for j in range(2, d + 1):
        for i in range(1, j):
            values[q.path(f"x{j}", f"x{i}")] = (
                Element.from_path(q.path("x1", "x1"), h)
                + Element.from_path(q.path(f"x{i}"), h.scale(j - i))
                + Element.from_path(q.path(f"x{i}", f"x{i}"), h * h.scale(-2)))
    return q, R, DeformationCochain(R, values, trunc=trunc), "hbar"


def _brauer_generic(n=5):
    """A Brauer zigzag algebra with one unknown per strictly shorter target."""
    q, R = make_brauer(n)
    cochain, _ = symbolic_cochain(R, cochain_basis(R, STRICT))
    return q, R, cochain, None


def _formal_lam_mu(trunc=8):
    """x y1 -> lam x y2, y2 z -> mu y1 z on the 4-vertex quiver (formal)."""
    q = Quiver(["1", "2", "3", "4"],
               [("x", "1", "2"), ("y1", "2", "3"), ("y2", "2", "3"),
                ("z", "3", "4"), ("w", "2", "4")])
    R = ReductionSystem(q, [Rule(q.path("x", "y1"), Element.zero(q)),
                            Rule(q.path("y2", "z"), Element.zero(q))])
    lam = PolyScalar.var("lam", is_param=True, trunc=trunc)
    mu = PolyScalar.var("mu", is_param=True, trunc=trunc)
    values = {q.path("x", "y1"): Element.from_path(q.path("x", "y2"), lam),
              q.path("y2", "z"): Element.from_path(q.path("y1", "z"), mu)}
    return q, R, DeformationCochain(R, values, trunc=trunc), "lam"


DEFORMED = {
    "commutator-2": _deformed_commutator(2),
    "commutator-3": _deformed_commutator(3),
    "brauer-5-generic": _brauer_generic(),
    "formal-lam-mu": _formal_lam_mu(),
}


def _element(q, param, terms):
    a = Element.zero(q)
    for start, choices, c, pdeg in terms:
        coeff = PolyScalar.rational(c)
        if param is not None:
            for _ in range(pdeg):
                coeff = coeff * PolyScalar.var(param, is_param=True)
        a = a + Element.from_path(_walk(q, start, choices), coeff)
    return a


_terms = st.lists(
    st.tuples(st.integers(0, 5), st.lists(st.integers(0, 3), max_size=4),
              st.sampled_from([-2, -1, 1, 3]), st.integers(0, 2)),
    min_size=1, max_size=3)


@pytest.mark.parametrize("name", sorted(DEFORMED))
@settings(max_examples=40, deadline=None)
@given(left=_terms, right=_terms)
def test_star_matches_tagged_reference(name, left, right):
    q, R, cochain, param = DEFORMED[name]
    a, b = _element(q, param, left), _element(q, param, right)
    assert star(a, b, cochain) == reference_star(a, b, R, cochain)


def _star_associators(cochain):
    """(word, (u*v)*w - u*(v*w)) per overlap, straight from the star definition."""
    out = []
    for amb in overlaps(cochain.system.lhs_set()):
        u, v, w = (Element.from_path(f) for f in amb.factors)
        left = star(star(u, v, cochain), w, cochain)
        right = star(u, star(v, w, cochain), cochain)
        out.append((amb.word, left - right))
    return out


@pytest.mark.parametrize("name", sorted(DEFORMED))
def test_defects_match_star_definition(name):
    """The overlap kernel gives the full associator, at every order."""
    _, _, cochain, _ = DEFORMED[name]
    got = [(word, defect) for _, word, defect in associator_defects(cochain)]
    assert got == _star_associators(cochain)


def _non_confluent():
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    return q, ReductionSystem(q, [Rule(q.path("x", "x"),
                                       Element.from_path(q.path("y")))])


SYSTEMS = {"brauer-5": lambda: make_brauer(5),
           "deformed3": lambda: make_deformed3(3),
           "non-confluent": _non_confluent}


@pytest.mark.parametrize("name", ["two_cycle", "four_dim", "nf_quiver",
                                  *SYSTEMS])
def test_diamond_defects_are_undeformed_associators(request, name):
    """The diamond condition is the Maurer-Cartan equation at phitilde = 0."""
    _, R = SYSTEMS[name]() if name in SYSTEMS else request.getfixturevalue(name)
    zero = DeformationCochain(R, {}, trunc=None, formal=False)
    want = [(amb.word, Element.zero(R.quiver) if defect is None else defect)
            for amb, _, defect in check_diamond(R).statuses]
    assert [(word, defect) for _, word, defect in associator_defects(zero)] == want


def test_gauge_verdicts_match_reference(deformed_two_cycle):
    q, R, coc = deformed_two_cycle
    t = _t()
    scaled = {q.path("a"): Element.from_path(q.path("a"), t)}
    # T(a) = (1+t)*a carries phitilde' = (t+t^2)*e onto phitilde = t*e
    primed = DeformationCochain(R, {
        q.path("a", "b"): Element.from_path(Path(q, vertex="1"), t + t * t),
        q.path("b", "a"): Element.from_path(Path(q, vertex="2"), t + t * t)},
        trunc=coc.trunc)
    for values, cochain_prime, verdict in [({}, coc, True), (scaled, coc, False),
                                           (scaled, primed, True)]:
        psi = GaugeOnArrows(R, values, trunc=coc.trunc)
        assert gauge_check(psi, coc, cochain_prime) is verdict
        assert reference_gauge_check(psi, R, coc, cochain_prime) is verdict
