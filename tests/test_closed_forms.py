"""Closed-form oracles for whole families of algebras.

None of them shares code with what it checks:

- HH^2 of a radical square zero algebra kQ/(Q_2) is |Q_2 || Q_1| - |Q_1 || Q_0|
  when Q is connected and not a crown (Cibils 1998), where X || Y counts the
  pairs of X x Y with one source and one target;
- the chains of Anick's resolution (vertices, arrows, left sides, then
  ``ambiguities_n``) and the irreducible paths satisfy the Euler identity
  (sum_j (-1)^(j+1) C_j(t)) * H(t) = I of matrix power series over the
  vertices (Anick 1986), for any set of left sides;
- ``hh2``'s representatives are classes: each is a first-order
  Maurer-Cartan cochain, and together with the coboundaries they span a
  space of dimension dim HH^2 + rank(coboundaries).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_brauer
from pathalg.cohomology import coboundary_space, hh2
from pathalg.quantization import commutator_system
from pathalg.quiver_core import Element, PolyScalar, Quiver
from pathalg.reduction_engine import (
    ReductionSystem,
    Rule,
    ambiguities_n,
    irreducible_paths,
)
from pathalg.star_product import DeformationCochain, mc_check


@st.composite
def connected_quivers(draw, max_vertices=4, max_arrows=6):
    """A connected quiver: a random spanning tree, then random arrows."""
    n = draw(st.integers(1, max_vertices))
    ends = [(i, j) if draw(st.booleans()) else (j, i)
            for i in range(1, n) for j in [draw(st.integers(0, i - 1))]]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ends += draw(st.lists(pair, min_size=0 if ends else 1,
                          max_size=max(max_arrows - len(ends), 1)))
    return Quiver([str(v) for v in range(n)],
                  [(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(ends)])


def is_crown(q: Quiver) -> bool:
    """An oriented cycle: as many arrows as vertices, one in and one out at
    each vertex (the quiver is connected)."""
    outs = sorted(s for _, s, _ in q.arrows)
    ins = sorted(t for _, _, t in q.arrows)
    return outs == ins == sorted(q.vertices)


def radical_square_zero(q: Quiver) -> ReductionSystem:
    """kQ modulo every path of length 2: a rule a*b -> 0 per composable pair."""
    return ReductionSystem(q, [Rule(q.path(a, b), Element.zero(q))
                               for a, _, t in q.arrows for b in q.arrows_from(t)])


def cibils_hh2(q: Quiver) -> int:
    ends = {a: (s, t) for a, s, t in q.arrows}
    two = [(ends[a][0], ends[b][1]) for a, _, t in q.arrows for b in q.arrows_from(t)]
    parallel = sum(two.count(e) for e in ends.values())
    loops = sum(s == t for s, t in ends.values())
    return parallel - loops


# -- HH^2 of radical square zero algebras ------------------------------------

@settings(max_examples=120, deadline=None)
@given(connected_quivers())
def test_hh2_of_radical_square_zero_is_cibils_count(q):
    assume(not is_crown(q))
    assert hh2(radical_square_zero(q)).dimension == cibils_hh2(q)


@pytest.mark.parametrize("vertices, want", [(1, 1), (2, 1)])
def test_crowns_are_the_exception(vertices, want):
    """The loop and the 2-cycle: HH^2 is 1, against 0 from the count."""
    q = Quiver([str(v) for v in range(vertices)],
               [(f"a{v}", str(v), str((v + 1) % vertices)) for v in range(vertices)])
    assert cibils_hh2(q) == 0
    assert hh2(radical_square_zero(q)).dimension == want


# -- the chains as a resolution ----------------------------------------------

def _series(paths, cut: int, sign: int, into: dict) -> None:
    """Add sign * (count of paths by (source, target) and length) to into."""
    for p in paths:
        if len(p) <= cut:
            into.setdefault((p.source, p.target), [0] * (cut + 1))[len(p)] += sign


def euler_product(S, q: Quiver, cut: int) -> dict:
    """(sum_j (-1)^(j+1) C_j(t)) * H(t) cut at length ``cut``, as
    {(u, v): counts by length}, zero entries left out.  A chain of level
    j >= 1 has j + 1 factors, so levels above cut - 1 are all longer."""
    chains: dict = {}
    _series([q.trivial(v) for v in q.vertices], cut, 1, chains)
    _series([q.path(a) for a in q.arrow_names()], cut, -1, chains)
    for j in range(1, cut):
        _series([amb.word for amb in ambiguities_n(S, j - 1)], cut,
                (-1) ** (j + 1), chains)
    basis: dict = {}
    _series(irreducible_paths(S, q, max_len=cut), cut, 1, basis)
    product: dict = {}
    for (u, w), c in chains.items():
        for (w2, v), h in basis.items():
            if w2 == w:
                row = product.setdefault((u, v), [0] * (cut + 1))
                for i, ci in enumerate(c):
                    for k in range(cut + 1 - i):
                        row[i + k] += ci * h[k]
    return {k: row for k, row in product.items() if any(row)}


def identity(q: Quiver, cut: int) -> dict:
    return {(v, v): [1] + [0] * cut for v in q.vertices}


def _one_vertex(names, tips):
    q = Quiver(["0"], [(a, "0", "0") for a in names])
    return q, [q.path(*t) for t in tips]


def _named_tip_sets():
    x3, comm3 = commutator_system(3)
    x4, comm4 = commutator_system(4)
    two = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    out = {
        "commutator d=3": (x3, list(comm3.lhs_set())),
        "commutator d=4": (x4, list(comm4.lhs_set())),
        "x*y": _one_vertex("xy", ["xy"]),
        "x*x*y, x*y*x": _one_vertex("xy", ["xxy", "xyx"]),
        "x^3": _one_vertex("x", ["xxx"]),
        "two-cycle": (two, [two.path("a", "b"), two.path("b", "a")]),
        "a*b*a": (two, [two.path("a", "b", "a")]),
    }
    for n in (4, 5, 6):
        q, R = make_brauer(n)
        out[f"brauer n={n}"] = (q, list(R.lhs_set()))
    return out


NAMED_TIPS = _named_tip_sets()


@pytest.mark.parametrize("name", sorted(NAMED_TIPS))
def test_chains_and_basis_satisfy_the_euler_identity(name):
    q, S = NAMED_TIPS[name]
    assert euler_product(S, q, 8) == identity(q, 8)


@st.composite
def tip_sets(draw):
    """1-2 vertices, 1-3 arrows, and 0-4 composable words of length 2-3 no
    one of which is a subword of another."""
    n = draw(st.integers(1, 2))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=3))
    q = Quiver([str(v) for v in range(n)],
               [(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(ends)])
    words = set()
    for _ in range(draw(st.integers(0, 4))):
        word = [draw(st.sampled_from(q.arrow_names()))]
        for _ in range(draw(st.integers(1, 2))):
            nexts = q.arrows_from(q._tgt[word[-1]])
            if not nexts:
                break
            word.append(draw(st.sampled_from(nexts)))
        if len(word) >= 2:
            words.add(tuple(word))

    def inside(w, v):
        return w != v and any(v[i:i + len(w)] == w for i in range(len(v)))

    tips = sorted(v for v in words if not any(inside(w, v) for w in words))
    return q, [q.path(*w) for w in tips]


@settings(max_examples=150, deadline=None)
@given(tip_sets())
def test_random_tips_satisfy_the_euler_identity(case):
    q, S = case
    assert euler_product(S, q, 7) == identity(q, 7)


# -- hh2 representatives are classes ------------------------------------------

def _rank(rows) -> int:
    """Rank over Q by a dense elimination kept in this file."""
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def assert_representatives_are_classes(R: ReductionSystem, bound=None):
    result = hh2(R, bound)
    assert len(result.representatives) == result.dimension
    t = PolyScalar.var("t[]", is_param=True, trunc=1)  # no rule can use "t[]"
    index = {pair: j for j, pair in enumerate(result.basis)}
    vectors = []
    for rep in result.representatives:
        cochain = DeformationCochain(R, {s: v.scale(t) for s, v in rep.items()},
                                     trunc=1)
        assert mc_check(cochain).verdict, rep
        vec = [0] * len(index)
        for s, v in rep.items():
            for u, c in v.terms.items():
                vec[index[(s, u)]] = c.as_rational()
        vectors.append(vec)
    image = [[row.get(j, 0) for j in range(len(index))]
             for row in coboundary_space(R, bound).image]
    assert _rank(image + vectors) == _rank(image) + result.dimension


# the parameter-free systems of test_cohomology.py besides its fixtures: the
# Brauer algebras, and commutator systems at a bound
SYSTEMS = {
    **{f"brauer n={n}": (make_brauer(n)[1], None) for n in (4, 5, 6, 7)},
    **{f"commutator d={d}, bound {b}": (commutator_system(d)[1], b)
       for d, b in ((2, 3), (3, 2), (4, 1))},
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_hh2_representatives_are_classes(name):
    assert_representatives_are_classes(*SYSTEMS[name])


@pytest.mark.parametrize("fixture", ["four_dim", "two_cycle", "nf_quiver"])
def test_hh2_representatives_of_the_fixtures_are_classes(request, fixture):
    assert_representatives_are_classes(request.getfixturevalue(fixture)[1])


@settings(max_examples=40, deadline=None)
@given(connected_quivers(max_vertices=3, max_arrows=4))
def test_radical_square_zero_representatives_are_classes(q):
    assert_representatives_are_classes(radical_square_zero(q))
