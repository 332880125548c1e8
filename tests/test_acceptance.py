"""Acceptance suite: one test per headline capability, end to end.

Every test is self-contained and exact; each line of ``pytest -v`` output for
this file is the pass/fail verdict of one criterion.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import make_brauer
from pathalg.cohomology import cocycle_space, coboundary_space, hh2
from pathalg.quantization import (
    HBAR,
    PoissonBivector,
    commutator_system,
    enumerate_graphs,
    gauge_phi,
    graphical_star,
    monomial,
    moyal,
    poisson_to_cochain,
    quantize_check,
    schouten_jacobi_check,
)
from pathalg.quiver_core import (
    AdmissibleOrder,
    Element,
    PolyScalar,
    Quiver,
)
from pathalg.reduction_engine import (
    BudgetExceeded,
    ReductionSystem,
    Rule,
    irreducible_paths,
    reduce_full,
)
from pathalg.star_product import DeformationCochain, mc_check, star
from pathalg.variety import (
    STRICT,
    WEAK,
    canonical_set,
    mc_equations,
    pbw_check,
)


def _hbar(trunc):
    return PolyScalar.var(HBAR, is_param=True, trunc=trunc)


def _monomials(quiver, d, max_deg):
    out = []
    for total in range(max_deg + 1):
        for exps in itertools.product(range(total + 1), repeat=d):
            if sum(exps) == total:
                out.append(monomial(quiver, exps))
    return out


def test_criterion_01_commutator_normal_form_vs_brute_force():
    q, R = commutator_system(3)
    word = q.path("x3", "x2", "x2", "x1")
    nf = reduce_full(Element.from_path(word), R)
    assert nf == Element.from_path(q.path("x1", "x2", "x2", "x3"))

    # Oracle: replay every possible reduction sequence on the letter word.
    start = (3, 2, 2, 1)
    seen = set()
    terminals = set()
    stack = [start]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        moves = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not moves:
            terminals.add(w)
        for i in moves:
            stack.append(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
    assert terminals == {(1, 2, 2, 3)}
    assert len(seen - terminals) == 11


def test_criterion_02_two_cycle_variety_mc_and_pbw(two_cycle):
    q, R = two_cycle
    ab, ba = q.path("a", "b"), q.path("b", "a")
    e1, e2 = q.trivial("1"), q.trivial("2")

    eqs = mc_equations(R, STRICT, names=["lam", "mu"])
    assert [repr(p) for p in eqs] == ["lam - mu"]

    def numeric(lam, mu):
        values = {ab: Element.from_path(e1, PolyScalar.rational(lam)),
                  ba: Element.from_path(e2, PolyScalar.rational(mu))}
        cochain = DeformationCochain(R, values, trunc=None, formal=False)
        return mc_check(cochain).verdict

    assert numeric(1, 1)
    assert not numeric(1, 0)
    assert pbw_check(R, {ab: Element.from_path(e1), ba: Element.from_path(e2)})


def test_criterion_03_non_terminating_example(nf_quiver):
    q, R = nf_quiver
    assert len(irreducible_paths(R.lhs_set(), q)) == 12

    # The deformed rules with free lam, mu cycle forever on x*y1*z.
    lam, mu = PolyScalar.var("lam"), PolyScalar.var("mu")
    deformed = ReductionSystem(q, [
        Rule(q.path("x", "y1"), Element.from_path(q.path("x", "y2"), lam)),
        Rule(q.path("y2", "z"), Element.from_path(q.path("y1", "z"), mu))])
    with pytest.raises(BudgetExceeded):
        reduce_full(Element.from_path(q.path("x", "y1", "z")), deformed,
                    budget=10_000)

    # With lam, mu treated as formal parameters the star product converges.
    lam_f = PolyScalar.var("lam", is_param=True, trunc=8)
    mu_f = PolyScalar.var("mu", is_param=True, trunc=8)
    cochain = DeformationCochain(R, {
        q.path("x", "y1"): Element.from_path(q.path("x", "y2"), lam_f),
        q.path("y2", "z"): Element.from_path(q.path("y1", "z"), mu_f)},
        trunc=8)
    paths = irreducible_paths(R.lhs_set(), q, max_len=2)
    for a in paths:
        for b in paths:
            star(Element.from_path(a), Element.from_path(b), cochain)
    out = star(Element.from_path(q.path("x")),
               Element.from_path(q.path("y1", "z")), cochain)
    assert out.is_zero()


def test_criterion_04_four_dimensional_algebra(four_dim):
    q, R = four_dim
    result = hh2(R)
    assert result.dimension == 3

    cs = cocycle_space(R)
    must_vanish = {("y*x", "e0"), ("x*x", "e0"), ("x*x", "y"),
                   ("y*y", "e0"), ("y*y", "x")}
    idx = [i for i, (s, u) in enumerate(cs.basis)
           if (repr(s), repr(u)) in must_vanish]
    assert len(idx) == 5
    assert all(v[i] == 0 for v in cs.kernel for i in idx)

    basis = [(q.path("y", "x"), q.path("x", "y")),
             (q.path("x", "x"), q.path("x")),
             (q.path("y", "y"), q.path("y"))]
    lam, mu, nu = (PolyScalar.var(n) for n in ("lam", "mu", "nu"))
    eqs = mc_equations(R, WEAK, basis=basis, names=["lam", "mu", "nu"])
    assert eqs == canonical_set([lam * lam * mu - lam * mu,
                                 lam * lam * nu - lam * nu])


def test_criterion_05_brauer_family():
    from pathalg.cohomology import two_cochain_basis

    for n in range(4, 8):
        q, R = make_brauer(n)
        assert len(two_cochain_basis(R)) == 2 * n - 4
        assert len(irreducible_paths(R.lhs_set(), q)) == 4 * n - 6
        assert hh2(R).dimension == 1

        # The substitution lam_1 = mu_1,
        # lam_i = (-1)^(i+1) mu_1 (1+mu_2)...(1+mu_i) solves every equation.
        mus = {i: PolyScalar.var(f"mu{i}") for i in range(1, n - 1)}
        one = PolyScalar.rational(1)
        values = {
            q.path("x1", "y1", "x1"): Element.from_path(q.path("x1"), mus[1]),
            q.path("y1", "x1", "y1"): Element.from_path(q.path("y1"), mus[1]),
        }
        for i in range(2, n - 1):
            lam_i = mus[1]
            for j in range(2, i + 1):
                lam_i = lam_i * (one + mus[j])
            if i % 2 == 0:
                lam_i = -lam_i
            values[q.path(f"x{i}", f"y{i}")] = (
                Element.from_path(q.trivial(str(i)), lam_i)
                + Element.from_path(q.path(f"y{i-1}", f"x{i-1}"), mus[i]))
        cochain = DeformationCochain(R, values, trunc=None, formal=False)
        assert mc_check(cochain).verdict

    # Spot-check the defining equations themselves at n = 4.
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


def test_criterion_06_graph_enumeration_counts():
    assert len(enumerate_graphs(1)) == 1
    assert len(enumerate_graphs(2)) == 6
    # 80 was produced by an independent brute-force enumeration (all labeled
    # graphs classified up to relabeling of internal vertices) fixed before
    # this implementation existed.
    assert len(enumerate_graphs(3)) == 80


def test_criterion_07_graphical_star_equals_reduction_star():
    rng = random.Random(20260826)
    for d in (2, 3):
        q, R = commutator_system(d)
        monos = _monomials(q, d, 3)
        coeff_monos = _monomials(q, d, 2)
        rules = [(j, i) for j in range(2, d + 1) for i in range(1, j)]
        for _ in range(5):
            values = {}
            for j, i in rules:
                value = Element.zero(q)
                for _ in range(rng.randint(1, 3)):
                    c = Fraction(rng.randint(-2, 2))
                    value = value + rng.choice(coeff_monos).scale(
                        PolyScalar.rational(c))
                values[q.path(f"x{j}", f"x{i}")] = value.scale(_hbar(3))
            cochain = DeformationCochain(R, values, trunc=3)
            for f in monos:
                for g in monos:
                    assert graphical_star(f, g, cochain) == \
                        star(f, g, cochain)


def test_criterion_08_constant_poisson_exponential_and_gauge():
    cases = {2: {(2, 1): 1}, 3: {(2, 1): 1, (3, 1): -1, (3, 2): 2}}
    for d, consts in cases.items():
        q, R = commutator_system(d)
        eta = PoissonBivector(d, {ji: Element.from_path(
            q.trivial("0"), PolyScalar.rational(c)) for ji, c in consts.items()})
        cochain = poisson_to_cochain(eta, trunc=4)
        hbar = _hbar(4)

        def one_sided(f, g):
            """mul . exp(hbar * sum eta_ji d_j (x) d_i), truncated at order 4."""
            from pathalg.quantization import poly_diff
            total = Element.zero(q)
            terms = [(PolyScalar.rational(1, trunc=4), f, g)]
            fact = 1
            for m in range(5):
                for c, a, b in terms:
                    total = total + reduce_full(a * b, R).scale(
                        c.scale(Fraction(1, fact)))
                fact *= m + 1
                nxt = []
                for c, a, b in terms:
                    for (j, i), e in consts.items():
                        coeff = c * hbar.scale(e)
                        da, db = poly_diff(a, j), poly_diff(b, i)
                        if not (coeff.is_zero() or da.is_zero()
                                or db.is_zero()):
                            nxt.append((coeff, da, db))
                terms = nxt
            return total.truncated(4)

        monos = _monomials(q, d, 3)
        for f in monos:
            for g in monos:
                assert star(f, g, cochain).truncated(4) == one_sided(f, g)

        # Gauge equivalence with the Moyal product, exactly to order 3.
        cochain3 = poisson_to_cochain(eta, trunc=3)
        small = _monomials(q, d, 3 if d == 2 else 2)
        for f in small:
            for g in small:
                left = star(gauge_phi(f, eta, trunc=3),
                            gauge_phi(g, eta, trunc=3), cochain3)
                right = gauge_phi(moyal(f, g, eta, trunc=3), eta, trunc=3)
                assert left == right


def test_criterion_09_quadratic_poisson_quantization():
    q, R = commutator_system(3)
    lam = PolyScalar.var("lam")
    v = monomial(q, (2, 0, 0)) + monomial(q, (0, 1, 1), lam)
    eta = PoissonBivector(3, {(3, 2): -v})
    assert schouten_jacobi_check(eta).verdict
    cochain = poisson_to_cochain(eta, trunc=4)
    assert quantize_check(cochain).verdict

    x1, x2, x3 = (monomial(q, {i: 1}) for i in (1, 2, 3))
    zy_x = star(star(x3, x2, cochain), x1, cochain)
    hbar = _hbar(4)
    expected = (monomial(q, (1, 1, 1))
                - monomial(q, (3, 0, 0), hbar)
                - monomial(q, (1, 1, 1), hbar * lam))
    assert zy_x == expected


def test_criterion_10_higher_corrections():
    q, R = commutator_system(3)
    hbar = _hbar(5)

    def series(coeffs):
        out = PolyScalar.rational(0, trunc=5)
        power = PolyScalar.rational(1, trunc=5)
        for c in coeffs:
            power = power * hbar
            out = out + power.scale(c)
        return out

    for k in (2, 3):
        yx_full = series([1, -1, 1, -1, 1])
        zx_full = series([-1, 2, -4, 8, -16])
        zy = (monomial(q, (0, 1, 1)) + monomial(q, (k, 0, 0))).scale(hbar)

        def cochain_for(yx_c, zx_c):
            values = {q.path("x2", "x1"): monomial(q, (1, 1, 0), yx_c),
                      q.path("x3", "x1"): monomial(q, (1, 0, 1), zx_c),
                      q.path("x3", "x2"): zy}
            return DeformationCochain(R, values, trunc=5)

        assert quantize_check(cochain_for(yx_full, zx_full)).verdict
        # The first-order part alone is not associative ...
        assert not quantize_check(cochain_for(series([1]), series([-1]))).verdict
        # ... and flipping the sign of the degree-one zx coefficient breaks
        # the corrected series as well.
        assert not quantize_check(
            cochain_for(yx_full, series([1, 2, -4, 8, -16]))).verdict


def test_criterion_11_property_suites(two_cycle, four_dim, nf_quiver):
    rng = random.Random(11)

    # (a) Confluence oracle on 50 random monomial systems: reducible words
    # reduce to zero, irreducible words to themselves.
    q3 = Quiver(["0"], [("a", "0", "0"), ("b", "0", "0"), ("c", "0", "0")])
    letters = ["a", "b", "c"]
    for _ in range(50):
        lhss = []
        while len(lhss) < 3:
            w = tuple(rng.choice(letters) for _ in range(rng.randint(2, 3)))
            if any(_subword(x, w) or _subword(w, x) for x in lhss):
                continue
            lhss.append(w)
        R = ReductionSystem(q3, [Rule(q3.path(*w), Element.zero(q3))
                                 for w in lhss])
        for _ in range(10):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
            nf = reduce_full(Element.from_path(q3.path(*w)), R)
            if any(_subword(s, w) for s in lhss):
                assert nf.is_zero()
            else:
                assert nf == Element.from_path(q3.path(*w))

    # (b) Associativity beyond the overlap words whenever mc_check passes.
    q, R = two_cycle
    t = PolyScalar.var("t", is_param=True, trunc=3)
    cochain = DeformationCochain(R, {
        q.path("a", "b"): Element.from_path(q.trivial("1"), t),
        q.path("b", "a"): Element.from_path(q.trivial("2"), t)}, trunc=3)
    assert mc_check(cochain).verdict
    basis = sorted(irreducible_paths(R.lhs_set(), q), key=lambda p: p.sort_key())

    def random_element():
        out = Element.zero(q)
        for p in rng.sample(basis, 2):
            out = out + Element.from_path(p, PolyScalar.rational(
                Fraction(rng.randint(-3, 3))))
        return out

    for _ in range(40):
        a, b, c = random_element(), random_element(), random_element()
        left = star(star(a, b, cochain), c, cochain)
        right = star(a, star(b, c, cochain), cochain)
        assert left == right

    # (c) Image contained in the kernel on every fixture.
    for _, R in (two_cycle, four_dim, nf_quiver, make_brauer(5)):
        cs, cb = cocycle_space(R), coboundary_space(R)
        for vec in cb.image:
            assert all(sum(row[j] * vec[j] for j in range(len(vec))) == 0
                       for row in cs.matrix)

    # (d) Admissible-order axioms on sampled path triples: totality,
    # antisymmetry, transitivity, and compatibility with concatenation.
    order = AdmissibleOrder(q3, ["a", "b", "c"])
    paths = [q3.path(*(rng.choice(letters) for _ in range(rng.randint(1, 4))))
             for _ in range(60)] + [q3.trivial("0")]
    for _ in range(200):
        p, r, s = rng.sample(paths, 3)
        assert (p == r) or order.less(p, r) or order.less(r, p)
        assert not (order.less(p, r) and order.less(r, p))
        if order.less(p, r) and order.less(r, s):
            assert order.less(p, s)
    for p, r in itertools.combinations(paths[:12], 2):
        if order.less(p, r):
            for s in paths[:12]:
                if s.is_trivial:
                    continue
                assert order.less(q3.path(*(p.arrows + s.arrows)),
                                  q3.path(*(r.arrows + s.arrows)))


def _subword(sub, word):
    n = len(sub)
    return any(word[i:i + n] == sub for i in range(len(word) - n + 1))
