"""Units and properties for rewriting, ambiguities, diamond and completion."""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_brauer, make_deformed3
from pathalg.cli import main
from pathalg.quiver_core import (
    AdmissibleOrder,
    Element,
    Path,
    PolyScalar,
    Quiver,
    UsageError,
)
from pathalg.reduction_engine import (
    BudgetExceeded,
    CompletionError,
    ReductionSystem,
    Rule,
    ambiguities_n,
    check_diamond,
    complete,
    irreducible_paths,
    is_irreducible,
    overlaps,
    reduce_full,
    rightmost_split,
)


@pytest.fixture
def commutator2():
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    R = ReductionSystem(q, [Rule(q.path("y", "x"),
                                 Element.from_path(q.path("x", "y")))])
    return q, R


class TestReduce:
    def test_rightmost_split_picks_rightmost(self, commutator2):
        q, R = commutator2
        split = rightmost_split(q.path("y", "x", "y", "x"), R.lhs_set())
        assert split.q == q.path("y", "x")

    def test_reduce_full_sorts_word(self, commutator2):
        q, R = commutator2
        a = Element.from_path(q.path("y", "y", "x", "x"))
        assert reduce_full(a, R) == Element.from_path(q.path("x", "x", "y", "y"))

    def test_reduce_is_linear(self, commutator2):
        q, R = commutator2
        a = Element.from_path(q.path("y", "x"), PolyScalar.rational(2))
        b = Element.from_path(q.path("x", "y"), PolyScalar.rational(-2))
        assert reduce_full(a + b, R).is_zero()

    def test_budget_signal(self, nf_quiver):
        # xy1 -> xy2 and y2z -> y1z make xy1z cycle forever
        q, _ = nf_quiver
        R = ReductionSystem(q, [
            Rule(q.path("x", "y1"), Element.from_path(q.path("x", "y2"))),
            Rule(q.path("y2", "z"), Element.from_path(q.path("y1", "z"))),
        ])
        with pytest.raises(BudgetExceeded) as info:
            reduce_full(Element.from_path(q.path("x", "y1", "z")), R, budget=25)
        assert info.value.steps == 25
        assert not info.value.partial.is_zero()

    def test_budget_must_be_positive(self, commutator2):
        q, R = commutator2
        with pytest.raises(UsageError):
            reduce_full(Element.unit(q), R, budget=0)


def _growing():
    """a*a -> a*b, b*b -> a*b*a: every rewrite makes a new word, forever."""
    q = Quiver(["0"], [("a", "0", "0"), ("b", "0", "0")])
    return q, ReductionSystem(q, [
        Rule(q.path("a", "a"), Element.from_path(q.path("a", "b"))),
        Rule(q.path("b", "b"), Element.from_path(q.path("a", "b", "a")))])


class TestRankedWorklist:
    """The rank memo on ReductionSystem and the bound on its walk."""

    def test_growing_system_ends_at_the_budget(self):
        q, R = _growing()
        with pytest.raises(BudgetExceeded) as info:
            reduce_full(Element.from_path(q.path("a", "a", "a")), R, budget=300)
        assert info.value.steps == 300

    def test_growing_system_exits_3_from_the_cli(self, tmp_path):
        p = tmp_path / "grow.txt"
        p.write_text("vertex 0\narrow a : 0 -> 0\narrow b : 0 -> 0\n"
                     "rule a*a -> a*b\nrule b*b -> a*b*a\n")
        buf = io.StringIO()
        code = main([str(p), "reduce", "a*a*a", "--budget", "300"], out=buf)
        assert code == 3
        assert json.loads(buf.getvalue().strip().splitlines()[-1])["steps"] == 300

    def test_exhausted_call_leaves_a_usable_memo(self):
        q, R = make_deformed3(3)
        a = Element.from_path(q.path("x3", "x3", "x2", "x2", "x1", "x1", "x3", "x1"))
        with pytest.raises(BudgetExceeded):
            reduce_full(a, R, budget=5)
        assert reduce_full(a, R) == reduce_full(a, make_deformed3(3)[1])

    @pytest.mark.parametrize("make", [lambda: make_deformed3(3), lambda: make_brauer(6)],
                             ids=["deformed-3", "brauer-6"])
    def test_call_order_does_not_change_results(self, make):
        # each system's memo is filled in the order of its own calls
        q, R = make()
        _, R2 = make()
        words = [p for p in irreducible_paths([], q, 4) if len(p) >= 2][::7]
        forward = [reduce_full(Element.from_path(p), R) for p in words]
        backward = [reduce_full(Element.from_path(p), R2) for p in reversed(words)]
        assert forward == backward[::-1]
        assert forward == [reduce_full(Element.from_path(p), R2) for p in words]
        assert any(nf != Element.from_path(p) for p, nf in zip(words, forward))


class TestAmbiguities:
    def test_overlaps_of_four_dim(self, four_dim):
        q, R = four_dim
        words = {amb.word for amb in overlaps(R.lhs_set())}
        assert words == {q.path("x", "x", "x"), q.path("y", "x", "x"),
                         q.path("y", "y", "x"), q.path("y", "y", "y")}

    def test_single_commutator_has_no_overlap(self, commutator2):
        _, R = commutator2
        assert overlaps(R.lhs_set()) == []

    def test_chain_ambiguities_n0_is_s(self, four_dim):
        q, R = four_dim
        assert {a.word for a in ambiguities_n(R.lhs_set(), 0)} == \
            set(R.lhs_set())

    def test_chain_ambiguities_factor_shapes(self, four_dim):
        q, R = four_dim
        for amb in ambiguities_n(R.lhs_set(), 1):
            u, *rest = amb.factors
            assert len(u) == 1
            assert all(not f.is_trivial for f in amb.factors)


class TestIrreducible:
    def test_four_dim_basis(self, four_dim):
        q, R = four_dim
        paths = irreducible_paths(R.lhs_set(), q)
        assert len(paths) == 4  # e, x, y, xy

    def test_infinite_basis_raises_without_bound(self, commutator2):
        q, R = commutator2
        with pytest.raises(UsageError):
            irreducible_paths(R.lhs_set(), q, safety_cap=100)

    def test_infinite_basis_raises_before_the_safety_cap(self, commutator2):
        # L = 2 and 2 irreducible arrows: a length-3 irreducible path repeats
        # a state, long before the default safety cap
        q, R = commutator2
        with pytest.raises(UsageError):
            irreducible_paths(R.lhs_set(), q, safety_cap=10 ** 9)

    def test_safety_cap_says_whether_the_basis_was_shown_finite(self):
        # x1^4 -> 0 on ten loops: 111 paths of length <= 2 pass the cap of
        # 100 before the states of length 3 are known to admit no cycle
        q = Quiver(["0"], [(f"x{i}", "0", "0") for i in range(10)])
        S = [q.path(*["x1"] * 4)]
        with pytest.raises(UsageError, match="^the irreducible basis has more than 100 paths"):
            irreducible_paths(S, q, safety_cap=100)
        S = [q.path(f"x{i}", f"x{j}") for i in range(10) for j in range(10) if i >= j]
        with pytest.raises(UsageError, match="^the irreducible basis is finite but has more "
                                             "than 100 paths"):
            irreducible_paths(S, q, safety_cap=100)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_finite_bases_at_the_pumping_length(self, n):
        # x^n -> 0: the longest irreducible path x^(n-1) is one short of it
        q = Quiver(["0"], [("x", "0", "0")])
        R = ReductionSystem(q, [Rule(q.path(*["x"] * n), Element.zero(q))])
        assert len(irreducible_paths(R.lhs_set(), q)) == n
        # no rules on the linear quiver 1 -> ... -> n: paths of length < n
        q = Quiver([str(i) for i in range(1, n + 1)],
                   [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)])
        assert len(irreducible_paths([], q)) == n * (n + 1) // 2

    def test_max_len_bound(self, commutator2):
        q, R = commutator2
        paths = irreducible_paths(R.lhs_set(), q, max_len=2)
        # e, x, y, xx, xy, yy
        assert len(paths) == 6
        assert all(is_irreducible(p, R.lhs_set()) for p in paths)


class TestDiamond:
    def test_commutator_passes(self, commutator2):
        _, R = commutator2
        assert check_diamond(R).verdict == "pass"

    def test_failing_system_reports_defect(self):
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
        R = ReductionSystem(q, [
            Rule(q.path("x", "x"), Element.from_path(q.path("y"))),
            Rule(q.path("x", "y"), Element.zero(q)),
        ])
        report = check_diamond(R)
        assert report.verdict == "fail"
        assert any(st == "failed" and d is not None and not d.is_zero()
                   for _, st, d in report.statuses)


class TestCompletion:
    def test_quantum_plane(self):
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
        order = AdmissibleOrder(q, ["x", "y"])
        yx = Element.from_path(q.path("y", "x"))
        xy = Element.from_path(q.path("x", "y"))
        system = complete([yx - xy.scale(PolyScalar.rational(2))], order)
        assert check_diamond(system).verdict == "pass"
        assert [r.lhs for r in system.rules] == [q.path("y", "x")]

    def test_new_rules_from_unresolvable_overlap(self):
        # x^2 -> y with xy -> 0 forces yx and y^2 relations
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
        order = AdmissibleOrder(q, ["y", "x"])
        g1 = Element.from_path(q.path("x", "x")) - Element.from_path(q.path("y"))
        g2 = Element.from_path(q.path("x", "y"))
        system = complete([g1, g2], order)
        assert check_diamond(system).verdict == "pass"
        nf = reduce_full(Element.from_path(q.path("y", "x")), system)
        # yx = x^3 - xy*x = x*(x^2) - (xy)x must be consistent
        assert reduce_full(nf, system) == nf

    def test_leading_coefficient_three_gives_exact_thirds(self):
        q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
        yx, xy, xx = (Element.from_path(q.path(*w)) for w in ("yx", "xy", "xx"))
        three = PolyScalar.rational(3)
        system = complete([yx.scale(three) - xy - xx.scale(PolyScalar.rational(2))],
                          AdmissibleOrder(q, ["x", "y"]))
        [rule] = system.rules
        assert rule.lhs == q.path("y", "x")
        coeffs = {p: c.terms[()] for p, c in rule.rhs.terms.items()}
        assert coeffs == {q.path("x", "y"): Fraction(1, 3), q.path("x", "x"): Fraction(2, 3)}
        assert all(type(c) is Fraction for c in coeffs.values())
        assert reduce_full(yx.scale(three), system) == xy + xx.scale(PolyScalar.rational(2))


    @pytest.mark.parametrize("first", [0, 1])
    def test_parameter_leading_coefficient_is_rejected_in_either_order(self, first):
        # t*x*x lies in the ideal of x*x, but no relation may lead with t
        q = Quiver(["0"], [("x", "0", "0")])
        xx = Element.from_path(q.path("x", "x"))
        gens = [xx, xx.scale(PolyScalar.var("t", is_param=True))]
        with pytest.raises(UsageError, match="rational leading coefficients"):
            complete(gens[first:] + gens[:first], AdmissibleOrder(q))


# -- randomized confluence oracle -------------------------------------------

def _random_monomial_system(rng: random.Random):
    """A random monomial reduction system on a 2-arrow loop quiver."""
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    n_rules = rng.randint(1, 3)
    seen = set()
    rules = []
    for _ in range(n_rules):
        w = tuple(rng.choice(["x", "y"]) for _ in range(rng.randint(2, 3)))
        if any(_subword(s, w) or _subword(w, s) for s in seen):
            continue
        seen.add(w)
        rules.append(Rule(q.path(*w), Element.zero(q)))
    if not rules:
        rules = [Rule(q.path("x", "x"), Element.zero(q))]
    return q, ReductionSystem(q, rules)


def _subword(small, big):
    n = len(small)
    return any(big[i:i + n] == small for i in range(len(big) - n + 1))


def _all_normal_forms(word, S):
    """Every normal form reachable by reducing at ANY position (oracle)."""
    out = set()
    stack = [word]
    seen = set()
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        reducts = []
        for s in S:
            n = len(s.arrows)
            for i in range(len(w) - n + 1):
                if w[i:i + n] == s.arrows:
                    reducts.append(w[:i] + w[i + n:])
        if not reducts:
            out.add(w)
        # monomial rules with rhs 0 delete the subword entirely: reducts of a
        # zero-rhs rule are zero, so every reducible word normalizes to 0
        if reducts:
            out.add(None)  # marker: the word reduces to 0
    return out


def test_confluence_oracle_on_random_monomial_systems():
    """Monomial systems reduce every word to a unique normal form.

    For zero right-hand sides any reducible word is eventually zero, so the
    engine's normal form of a reducible word must be 0 and of an irreducible
    word the word itself; this cross-checks reduce_full against a direct
    subword scan on 50 random systems.
    """
    rng = random.Random(20240817)
    for _ in range(50):
        q, R = _random_monomial_system(rng)
        S = R.lhs_set()
        for _ in range(20):
            w = tuple(rng.choice(["x", "y"]) for _ in range(rng.randint(0, 6)))
            p = q.path(*w) if w else Path(q, vertex="0")
            nf = reduce_full(Element.from_path(p), R)
            if is_irreducible(p, S):
                assert nf == Element.from_path(p)
            else:
                assert nf.is_zero()


def test_confluence_oracle_on_random_invertible_rhs():
    """Completed systems agree with a brute-force any-position rewriter."""
    rng = random.Random(99)
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    order = AdmissibleOrder(q, ["x", "y"])
    for _ in range(25):
        c = Fraction(rng.randint(1, 3))
        rel = Element.from_path(q.path("y", "x")) - \
            Element.from_path(q.path("x", "y"), PolyScalar.rational(c))
        system = complete([rel], order)
        w = tuple(rng.choice(["x", "y"]) for _ in range(rng.randint(1, 6)))
        nf = reduce_full(Element.from_path(q.path(*w)), system)
        # the normal form is the sorted word times c^(number of inversions)
        inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
                  if w[i] == "y" and w[j] == "x")
        sorted_word = tuple(sorted(w))
        expected = Element.from_path(q.path(*sorted_word),
                                     PolyScalar.rational(c ** inv))
        assert nf == expected


# -- completion oracle: quotient dimensions of a homogeneous ideal -----------

def _paths_of_length(q, n):
    """Every path of length n, built arrow by arrow."""
    layer = [(v, v, ()) for v in q.vertices]  # (source, target, arrows)
    for _ in range(n):
        layer = [(s, b, w + (a,)) for s, t, w in layer
                 for a, src, b in q.arrows if src == t]
    return [q.path(*w) if w else Path(q, vertex=s) for s, _, w in layer]


def _absorb(pivots, vec):
    """Add vec to an exact echelon form unless it lies in its span.

    ``pivots`` maps a path to the row whose largest path it is, with
    coefficient 1 there; returns True when vec was independent.
    """
    vec = {p: c for p, c in vec.items() if c}
    while vec:
        top = max(vec, key=lambda p: p.sort_key())
        row = pivots.get(top)
        if row is None:
            pivots[top] = {p: c / vec[top] for p, c in vec.items()}
            return True
        f = vec[top]
        for p, c in row.items():
            vec[p] = vec.get(p, 0) - f * c
            if not vec[p]:
                del vec[p]
    return False


def _vector(f):
    return {p: c.as_rational() for p, c in f.terms.items()}


def _ideal_span(gens, q, n):
    """An echelon form of V_n, the span of the paths q*g*w of length n."""
    pivots = {}
    for g in gens:
        k = len(next(iter(g.terms)))
        for i in range(n - k + 1):
            for left in _paths_of_length(q, i):
                for right in _paths_of_length(q, n - k - i):
                    prod = Element.from_path(left) * g * Element.from_path(right)
                    _absorb(pivots, _vector(prod))
    return pivots


@st.composite
def _homogeneous_relations(draw):
    """1-2 vertices, 2-3 arrows in a random order, and 1-3 relations whose
    terms are parallel paths of one length, 2 or 3."""
    verts = [str(i) for i in range(draw(st.integers(1, 2)))]
    arrows = [(f"a{i}", draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
              for i in range(draw(st.integers(2, 3)))]
    q = Quiver(verts, arrows)
    order = AdmissibleOrder(q, draw(st.permutations([a for a, _, _ in arrows])))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths_of_length(q, draw(st.integers(2, 3)))
        if not paths:
            continue
        first = draw(st.sampled_from(paths))
        parallel = [p for p in paths if (p.source, p.target) == (first.source, first.target)]
        g = Element.zero(q)
        for p in draw(st.lists(st.sampled_from(parallel), min_size=1, max_size=3, unique=True)):
            c = draw(st.sampled_from([1, -1, 2, -2, 3]))
            g = g + Element.from_path(p, PolyScalar.rational(c))
        gens.append(g)
    return q, order, gens


@settings(max_examples=60, deadline=None)
@given(_homogeneous_relations())
def test_completion_matches_the_quotient_dimensions(case):
    """The irreducible paths of a completed system count the quotient.

    For homogeneous generators the ideal in length n is V_n, so a reduced
    Gröbner basis leaves (#paths of length n) - dim V_n irreducible paths of
    length n; dim V_n comes from an exact elimination, not from rewriting.
    """
    q, order, gens = case
    try:
        system = complete(gens, order, max_rounds=3, budget=300)
    except (BudgetExceeded, CompletionError):
        return  # no small confluent system within these bounds
    assert check_diamond(system).verdict == "pass"
    for g in gens:
        assert reduce_full(g, system).is_zero()
    spans = {}
    for n in {0, 1, 2, 3, 4} | {len(r.lhs) for r in system.rules}:
        spans[n] = _ideal_span(gens, q, n)
    irreducible = irreducible_paths(system.lhs_set(), q, max_len=4)
    for n in range(5):
        assert (len(_paths_of_length(q, n)) - len(spans[n])
                == sum(1 for p in irreducible if len(p) == n))
    for rule in system.rules:
        relation = Element.from_path(rule.lhs) - rule.rhs
        assert not _absorb(dict(spans[len(rule.lhs)]), _vector(relation))


class TestChainAmbiguityValues:
    """Chain ambiguities for n <= 4 on fixed systems."""

    def test_four_dim_chains_up_to_four(self, four_dim):
        _, R = four_dim
        for n in range(5):
            words = [repr(a.word) for a in ambiguities_n(R.lhs_set(), n)]
            # the chains are y^i x^(n+2-i), in deglex order
            assert words == ["*".join("y" * i + "x" * (n + 2 - i)) for i in range(n + 3)]

    def test_counts_up_to_four(self):
        q = Quiver(["0"], [(f"x{i}", "0", "0") for i in range(1, 5)])
        comm = ReductionSystem(q, [
            Rule(q.path(f"x{j}", f"x{i}"), Element.from_path(q.path(f"x{i}", f"x{j}")))
            for j in range(2, 5) for i in range(1, j)])
        _, brauer = make_brauer(6)
        counts = {"comm": [len(ambiguities_n(comm.lhs_set(), n)) for n in range(5)],
                  "brauer": [len(ambiguities_n(brauer.lhs_set(), n)) for n in range(5)]}
        assert counts == {"comm": [6, 4, 1, 0, 0], "brauer": [11, 14, 17, 21, 28]}
        assert [repr(a.word) for a in ambiguities_n(comm.lhs_set(), 1)] == [
            "x3*x2*x1", "x4*x2*x1", "x4*x3*x1", "x4*x3*x2"]
        assert [repr(a.word) for a in ambiguities_n(comm.lhs_set(), 2)] == [
            "x4*x3*x2*x1"]
