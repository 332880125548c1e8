"""Units for the second-cohomology computation."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense, make_brauer
from pathalg.cohomology import (
    Echelon,
    coboundary_space,
    cocycle_space,
    hh2,
    one_cochain_basis,
    two_cochain_basis,
)
from pathalg.quantization import commutator_system
from pathalg.quiver_core import Element, PolyScalar, Quiver
from pathalg.reduction_engine import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ReductionSystem,
    Rule,
    _reduce_words,
    overlaps,
)
from pathalg.star_product import (
    DeformationCochain,
    GaugeOnArrows,
    _t_of_element,
    mc_check,
    star,
)


class TestBases:
    def test_four_dim_two_cochain_basis(self, four_dim):
        q, R = four_dim
        basis = two_cochain_basis(R)
        assert len(basis) == 12  # 3 rules x 4 parallel irreducibles
        assert all(s in R.by_lhs and (u.source, u.target) == (s.source, s.target)
                   for s, u in basis)

    def test_two_cycle_bases(self, two_cycle):
        q, R = two_cycle
        assert len(two_cochain_basis(R)) == 2  # (ab, e1), (ba, e2)
        assert len(one_cochain_basis(R)) == 2  # (a, a), (b, b)

    def test_brauer_two_cochain_dimensions(self):
        for n in (4, 5, 6, 7):
            _, R = make_brauer(n)
            assert len(two_cochain_basis(R)) == 2 * n - 4


class TestSpaces:
    def test_image_contained_in_kernel(self, four_dim, two_cycle):
        """d . d = 0 at first order: every coboundary is a cocycle."""
        for _, R in (four_dim, two_cycle, make_brauer(5)):
            cocycles = cocycle_space(R)
            coboundaries = coboundary_space(R)
            n = len(cocycles.basis)
            matrix = dense(cocycles.matrix, n)
            for vec in dense(coboundaries.image, n):
                residual = [sum(row[j] * vec[j] for j in range(len(vec)))
                            for row in matrix]
                assert all(c == 0 for c in residual)

    def test_four_dim_cocycle_conditions(self, four_dim):
        q, R = four_dim
        cs = cocycle_space(R)
        must_vanish = {("x*x", "e0"), ("x*x", "y"), ("y*x", "e0"),
                       ("y*y", "e0"), ("y*y", "x")}
        idx = [i for i, (s, u) in enumerate(cs.basis)
               if (repr(s), repr(u)) in must_vanish]
        assert len(idx) == 5
        assert len(cs.kernel) == len(cs.basis) - 5
        assert all(v[i] == 0 for v in dense(cs.kernel, len(cs.basis)) for i in idx)


class TestHh2:
    def test_two_cycle_dimension_one(self, two_cycle):
        _, R = two_cycle
        assert hh2(R).dimension == 1

    def test_four_dim_dimension_three(self, four_dim):
        _, R = four_dim
        result = hh2(R)
        assert result.dimension == 3
        assert len(result.representatives) == 3

    def test_brauer_dimension_one(self):
        for n in (4, 5, 6):
            _, R = make_brauer(n)
            assert hh2(R).dimension == 1

    def test_budget_quoted_in_the_readme(self):
        """The d=3 commutator system with bound 3 needs a budget of 3: the
        budget bounds one overlap side or one word, in either pass."""
        R = commutator_system(3)[1]
        assert hh2(R, 3, budget=3).dimension == 60
        with pytest.raises(BudgetExceeded):
            hh2(R, 3, budget=2)
        coboundary_space(R, 3, budget=3)
        with pytest.raises(BudgetExceeded):
            coboundary_space(R, 3, budget=2)

    def test_hh2_reduces_each_word_once(self, monkeypatch):
        """The two maps of one hh2 call share a word memo: no word is reduced
        twice, though the maps called on their own reduce shared words."""
        from pathalg import cohomology

        words: list = []

        def spy(terms, *args, **kwargs):
            words.extend(terms)  # engine words: arrow tuples, or trivial paths
            return _reduce_words(terms, *args, **kwargs)

        monkeypatch.setattr(cohomology, "_reduce_words", spy)
        R = commutator_system(4)[1]
        cocycle_space(R, 2)
        coboundary_space(R, 2)
        alone = list(words)
        words.clear()
        hh2(R, 2)
        assert len(set(alone)) < len(alone)
        assert sorted(words, key=repr) == sorted(set(alone), key=repr)

    def test_representatives_are_first_order_mc(self, four_dim):
        """Representatives times t satisfy MC mod t^2 (they are cocycles)."""
        _, R = four_dim
        t = PolyScalar.var("t", is_param=True, trunc=1)
        for rep in hh2(R).representatives:
            values = {s: v.scale(t) for s, v in rep.items()}
            coc = DeformationCochain(R, values, trunc=1)
            assert mc_check(coc).verdict


class TestHkrOracle:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_commutator_dimension(self, d, n):
        """HKR: HH^2(k[x1..xd]) in cochain lengths <= n is the bivectors
        sum_{i<j} f_ij d_i ^ d_j with deg f_ij <= n."""
        _, R = commutator_system(d)
        want = comb(d, 2) * sum(comb(m + d - 1, d - 1) for m in range(n + 1))
        assert hh2(R, bound=n).dimension == want


# -- per-basis-vector reference for the generic passes ------------------------

def _reference_cocycle_matrix(R, bound=None):
    """One associator pass per basis cochain t*(s -> u); rows keyed and
    ordered by (overlap index, path), only rows with a nonzero entry.  A
    problem file cannot declare the symbol "t[]", so no rule meets it."""
    t = PolyScalar.var("t[]", is_param=True, trunc=1)
    columns = []
    for s, u in two_cochain_basis(R, bound):
        cochain = DeformationCochain(R, {s: Element.from_path(u, t)}, trunc=1)
        col = {}
        for idx, amb in enumerate(overlaps(R.lhs_set())):
            x, v, w = (Element.from_path(f) for f in amb.factors)
            left = star(star(x, v, cochain), w, cochain)
            right = star(x, star(v, w, cochain), cochain)
            for p, c in (left - right).coefficient_of("t[]", 1).terms.items():
                col[(idx, p)] = c.as_rational()
        columns.append(col)
    keys = sorted({k for col in columns for k in col},
                  key=lambda k: (k[0], k[1].sort_key()))
    return [tuple(col.get(k, Fraction(0)) for col in columns) for k in keys]


def _reference_coboundary_columns(R, bound=None):
    """One gauge pass per basis 1-cochain t*(x -> u)."""
    t = PolyScalar.var("t", is_param=True, trunc=1)
    index = {pair: i for i, pair in enumerate(two_cochain_basis(R, bound))}
    zero = DeformationCochain(R, {}, trunc=1)
    columns = []
    for x, u in one_cochain_basis(R, bound):
        psi = GaugeOnArrows(R, {x: Element.from_path(u, t)})
        col = [Fraction(0)] * len(index)
        for rule in R.rules:
            s = rule.lhs
            lhs = _t_of_element(Element.from_path(s), psi, zero, DEFAULT_BUDGET)
            rhs = _t_of_element(rule.rhs, psi, zero, DEFAULT_BUDGET)
            for p, c in (lhs - rhs).coefficient_of("t", 1).terms.items():
                col[index[(s, p)]] = c.as_rational()
        columns.append(tuple(col))
    return columns


def _reference_rref(rows):
    """Dense reduced row echelon form with first-nonzero pivoting."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for lead in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][lead] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [c / rows[r][lead] for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][lead] != 0:
                f = rows[i][lead]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(lead)
        r += 1
    return [tuple(row) for row in rows[:r]], pivots


def _reference_kernel(rows, ncols):
    rref, pivots = _reference_rref(rows)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            vec = [Fraction(0)] * ncols
            vec[j] = Fraction(1)
            for row, pj in zip(rref, pivots):
                vec[pj] = -row[j]
            basis.append(tuple(vec))
    return basis


def _two_cycle_with_t_in_a_rule():
    """ab -> t*e1: order-t defects that no cochain term contributes."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    t = Element.from_path(q.trivial("1"), PolyScalar.var("t", is_param=True))
    return ReductionSystem(q, [Rule(q.path("a", "b"), t),
                               Rule(q.path("b", "a"), Element.zero(q))])


REFERENCE_SYSTEMS = {
    "two-cycle, t in a rule": (_two_cycle_with_t_in_a_rule, None),
    "commutator d=2, bound 3": (lambda: commutator_system(2)[1], 3),
    "commutator d=3, bound 2": (lambda: commutator_system(3)[1], 2),
    "brauer n=5": (lambda: make_brauer(5)[1], None),
    "brauer n=6": (lambda: make_brauer(6)[1], None),
}


class TestGenericPasses:
    """One pass with a generic cochain equals one pass per basis vector."""

    def _check(self, R, bound):
        cocycles = cocycle_space(R, bound)
        coboundaries = coboundary_space(R, bound)
        n = len(cocycles.basis)
        # dense() also fails on a stored 0 or a column >= n
        matrix, kernel = dense(cocycles.matrix, n), dense(cocycles.kernel, n)
        columns, image = dense(coboundaries.columns, n), dense(coboundaries.image, n)
        assert matrix == _reference_cocycle_matrix(R, bound)
        assert columns == _reference_coboundary_columns(R, bound)
        assert kernel == _reference_kernel(matrix, n)
        assert image == _reference_rref(columns)[0]
        return len(image)

    @pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
    def test_matches_per_basis_reference(self, name):
        build, bound = REFERENCE_SYSTEMS[name]
        rank = self._check(build(), bound)
        if name.startswith("brauer"):
            assert rank == int(name[-1]) - 3  # a nonzero image is compared

    def test_four_dim_matches_per_basis_reference(self, four_dim):
        _, R = four_dim
        assert self._check(R, None) > 0


def _sparse(row):
    """A dense row as a {column: value} dict, the input ``Echelon`` takes."""
    return {j: c for j, c in enumerate(row) if c}


def _echelon_rows(echelon, ncols):
    """The echelon's rows in pivot order, dense."""
    return dense([row for _, row in sorted(echelon.rows.items())], ncols)


fractions = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=3))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(fractions, min_size=n, max_size=n), max_size=8)
    .map(lambda rows: (n, rows))))
def test_echelon_matches_dense_rref(shape):
    """absorb verdicts, row space and kernel equal a dense reference RREF."""
    ncols, rows = shape
    echelon = Echelon()
    for i, row in enumerate(rows):
        before = len(_reference_rref(rows[:i])[0])
        after = len(_reference_rref(rows[:i + 1])[0])
        assert echelon.absorb(_sparse(row)) == (after > before)
    assert _echelon_rows(echelon, ncols) == _reference_rref(rows)[0]
    assert dense(echelon.kernel(ncols), ncols) == _reference_kernel(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=12)
    .map(lambda rows: (n, rows))))
def test_echelon_holders_equal_the_map_from_rows(shape):
    """After every absorb, ``holders`` is the column -> {pivots of the rows
    holding it} map recomputed from ``rows``: no empty set, no stale pivot."""
    _, rows = shape
    echelon = Echelon()
    for row in rows:
        echelon.absorb(_sparse(row))
        want: dict[int, set[int]] = {}
        for pivot, r in echelon.rows.items():
            for j in r:
                want.setdefault(j, set()).add(pivot)
        assert echelon.holders == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=8)
    .map(lambda rows: (n, rows))))
def test_echelon_on_int_vectors_matches_a_fraction_elimination(shape):
    """Int input divides exactly: the entries equal a Fraction-only
    elimination, and none of them is a float."""
    ncols, rows = shape
    echelon = Echelon(map(_sparse, rows))
    want = [[Fraction(c) for c in row] for row in rows]
    kernel = echelon.kernel(ncols)
    assert _echelon_rows(echelon, ncols) == _reference_rref(want)[0]
    assert dense(kernel, ncols) == _reference_kernel(want, ncols)
    entries = [c for vec in [*echelon.rows.values(), *kernel] for c in vec.values()]
    assert all(type(c) in (int, Fraction) for c in entries)
