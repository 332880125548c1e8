"""The graph operator built row by row on demand, against the eager build.

``graphical_star`` and ``eval_graph`` build a row of an operator table only
when both factors reach it, and scale a row by a rational product of
derivative coefficients instead of multiplying it out.  The reference below
is the earlier eager path: the flat integer tables keyed (factors, mf, mg),
every row multiplied out per cochain, applied by full polynomial products,
and f*g added to the graph sum on its own.  Both must give the same
elements for any cochain and any factors.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, prod

from hypothesis import example, given, settings, strategies as st

import pathalg.quantization as quantization
from pathalg.quantization import (
    F_SLOT,
    G_SLOT,
    HBAR,
    PoissonBivector,
    _element,
    _exponents,
    _derive,
    _history_count,
    _label_weights,
    _reach,
    _stratum_weights,
    commutator_system,
    enumerate_graphs,
    eval_graph,
    graphical_star,
    monomial,
    poisson_to_cochain,
    quantize_compare,
)
from pathalg.quiver_core import Element, PolyScalar, lowest_order
from pathalg.star_product import DeformationCochain, star

# -- the eager reference ------------------------------------------------------


def ref_derive(a: dict, m: tuple) -> dict:
    out = {}
    for e, c in a.items():
        if all(mi <= ei for mi, ei in zip(m, e)):
            b = prod(comb(ei, mi) for ei, mi in zip(e, m))
            out[tuple(ei - mi for ei, mi in zip(e, m))] = c.scale(b) if b != 1 else c
    return out


def ref_exp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


@lru_cache(maxsize=None)
def ref_label_weights(graph, d: int) -> tuple:
    """The flat table ((factors, mf, mg), weight) of one graph."""
    k = graph.k
    order_map = dict(graph.orders)
    placements = [tuple(zip(*(pair if (mask >> v) & 1 else pair[::-1]
                              for v, pair in enumerate(graph.targets))))
                  for mask in range(2 ** k)]
    weights: dict = {}
    for pairs in itertools.product(
            itertools.combinations(range(1, d + 1), 2), repeat=k):
        labels = tuple((j, i) for i, j in pairs)
        for out_j, out_i in placements:
            counts: dict[int, tuple[int, ...]] = {}
            for n, srcs in order_map.items():
                seq = [labels[v][0] if out_j[v] == n else labels[v][1]
                       for v in srcs]
                if any(x > y for x, y in zip(seq, seq[1:])):
                    break
                counts[n] = tuple(seq.count(i) for i in range(1, d + 1))
            else:
                mult = _history_count(k, out_j, out_i, graph.orders, labels)
                if mult:
                    none = (0,) * d
                    key = (tuple(sorted((labels[v], counts.get(v, none))
                                        for v in range(k))),
                           counts.get(F_SLOT, none), counts.get(G_SLOT, none))
                    weights[key] = weights.get(key, 0) + mult
    return tuple(weights.items())


@lru_cache(maxsize=None)
def ref_stratum_weights(d: int, strata: int) -> tuple:
    weights: dict = {}
    for k in range(1, strata + 1):
        for graph in enumerate_graphs(k, cap=strata):
            for key, w in ref_label_weights(graph, d):
                weights[key] = weights.get(key, 0) + w
    return tuple(weights.items())


def ref_graph_operator(weights: tuple, cochain: DeformationCochain):
    quiver = cochain.system.quiver
    d = len(quiver.arrow_names())
    values = {(j, i): _exponents(cochain.value(quiver.path(f"x{j}", f"x{i}")), d)
              for j in range(2, d + 1) for i in range(1, j)}
    prods: dict = {(): {(0,) * d: PolyScalar.rational(1)}}
    rows: dict = {}
    for (factors, mf, mg), w in weights:
        for n in range(1, len(factors) + 1):
            if factors[:n] not in prods:
                (ji, m), head = factors[n - 1], prods[factors[:n - 1]]
                prods[factors[:n]] = head and ref_exp_mul(
                    head, ref_derive(values[ji], m))
        row = rows.setdefault((mf, mg), {})
        for e, c in prods[factors].items():
            row[e] = row[e] + c.scale(w) if e in row else c.scale(w)
    return [(coeff, mf, mg) for (mf, mg), row in rows.items()
            if (coeff := {e: c for e, c in row.items() if not c.is_zero()})]


def ref_apply_operator(rows, quiver, f: Element, g: Element, trunc) -> Element:
    d = len(quiver.arrow_names())
    fe, ge = _exponents(f, d), _exponents(g, d)
    df: dict = {}
    dg: dict = {}
    total: dict = {}
    for coeff, mf, mg in rows:
        if mf not in df:
            df[mf] = ref_derive(fe, mf)
        if df[mf]:
            if mg not in dg:
                dg[mg] = ref_derive(ge, mg)
            for e, c in ref_exp_mul(coeff, ref_exp_mul(df[mf], dg[mg])).items():
                total[e] = total[e] + c if e in total else c
    return _element(quiver, total).truncated(trunc)


def one_ring(f, g, cochain, trunc):
    """(order, cochain, f, g) entered at one order: the lowest of ``trunc``
    and the orders the cochain and the factors carry."""
    n = lowest_order(trunc, cochain.trunc, f.order(), g.order())
    return n, cochain.truncated(n), f.truncated(n), g.truncated(n)


def ref_eval_graph(graph, cochain, f, g, trunc=None) -> Element:
    trunc, cochain, f, g = one_ring(f, g, cochain, trunc)
    quiver = cochain.system.quiver
    rows = ref_graph_operator(ref_label_weights(graph, len(quiver.arrow_names())),
                              cochain)
    return ref_apply_operator(rows, quiver, f, g, trunc)


def ref_graphical_star(f, g, cochain, trunc=None, cap=4) -> Element:
    trunc, cochain, f, g = one_ring(f, g, cochain, trunc)
    quiver = cochain.system.quiver
    d = len(quiver.arrow_names())
    rows = ref_graph_operator(ref_stratum_weights(d, min(trunc, cap)), cochain)
    fg = _element(quiver, ref_exp_mul(_exponents(f, d), _exponents(g, d)))
    return (fg + ref_apply_operator(rows, quiver, f, g, trunc)).truncated(trunc)


def _flat(table: tuple) -> dict:
    """A grouped table (rows, mgs) as the flat {(factors, mf, mg): weight}."""
    rows, mgs = table
    assert mgs == {mg for by_mg in rows.values() for mg in by_mg}
    out: dict = {}
    for mf, by_mg in rows.items():
        for mg, items in by_mg.items():
            for factors, w in items:
                assert (factors, mf, mg) not in out
                out[factors, mf, mg] = w
    return out


# -- inputs -------------------------------------------------------------------

# f and g coefficients: a plain rational (scaled), a rational carrying the
# truncation and params of a parsed file, and one with an hbar term (both
# multiplied out)
KINDS = ("plain", "parsed", "hbar")


def _coefficient(kind: str, q: int, trunc: int) -> PolyScalar:
    if kind == "plain":
        return PolyScalar.rational(q)
    hbar = PolyScalar.var(HBAR, is_param=True, trunc=trunc)
    if kind == "parsed":
        return PolyScalar.rational(q, trunc, hbar.params)
    return PolyScalar.rational(q, trunc, hbar.params) + hbar.scale(q + 1)


@st.composite
def polynomials(draw, d: int, trunc: int, max_terms: int = 3,
                kinds=st.sampled_from(KINDS)):
    """Up to max_terms terms of degree <= 3 in each variable."""
    quiver = commutator_system(d)[0]
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * d), kinds,
                  st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=max_terms))
    out = Element.zero(quiver)
    for e, kind, q in terms:
        out = out + monomial(quiver, e, _coefficient(kind, q, trunc))
    return out


def make_case(d: int, entries: dict, f: Element, g: Element, trunc: int, cap: int,
              cochain_trunc: int):
    """(a maker of fresh equal cochains, f, g, trunc, cap).  The maker takes
    an optional order to build the cochain at instead."""
    def cochain(order=cochain_trunc):
        return poisson_to_cochain(PoissonBivector(d, entries), trunc=order)

    return cochain, f, g, trunc, cap


@st.composite
def cases(draw):
    """``make_case`` in d = 2..3: at d = 1 the cochain has no entries, so it
    checks no graph row (one explicit example covers it)."""
    d = draw(st.integers(2, 3))
    cochain_trunc = draw(st.integers(1, 3))
    trunc = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 4))
    entries = {(j, i): draw(polynomials(d, cochain_trunc, 2))
               for j in range(2, d + 1) for i in range(1, j)
               if draw(st.booleans())}
    # half the cases have plain f and g, as quantize compare does
    kinds = st.just("plain") if draw(st.booleans()) else st.sampled_from(KINDS)
    # parsed at an order of their own: the computation runs at the lowest
    factor_trunc = draw(st.integers(1, 3))
    f = draw(polynomials(d, factor_trunc, kinds=kinds))
    g = draw(polynomials(d, factor_trunc, kinds=kinds))
    return make_case(d, entries, f, g, trunc, cap, cochain_trunc)


_Q1 = commutator_system(1)[0]
# d = 1: no entries; f = x1^2 + (1 + 2*hbar)*x1 and g = 3*x1^3 at order 2
D1_CASE = make_case(
    1, {}, monomial(_Q1, (2,)) + monomial(_Q1, (1,), _coefficient("hbar", 1, 2)),
    monomial(_Q1, (3,), _coefficient("parsed", 3, 2)), 2, 2, 3)


# -- tests --------------------------------------------------------------------


def test_grouped_tables_are_the_flat_tables():
    for d in (1, 2, 3):
        for strata in (1, 2, 3):
            assert _flat(_stratum_weights(d, strata)) == dict(
                ref_stratum_weights(d, strata))
            for graph in enumerate_graphs(strata):
                assert _flat(_label_weights(graph, d)) == dict(
                    ref_label_weights(graph, d))


@settings(max_examples=60, deadline=None)
@given(cases())
@example(D1_CASE)
def test_graphical_star_and_eval_graph_match_the_eager_build(case):
    cochain, f, g, trunc, cap = case
    assert graphical_star(f, g, cochain(), trunc, cap) == ref_graphical_star(
        f, g, cochain(), trunc, cap)
    fresh = cochain()  # one cochain caches the rows of every graph
    for k in range(1, min(trunc, cap) + 1):
        for graph in enumerate_graphs(k, cap=cap):
            assert eval_graph(graph, fresh, f, g, trunc) == ref_eval_graph(
                graph, fresh, f, g, trunc)


@settings(max_examples=30, deadline=None)
@given(cases(), st.data())
def test_rows_do_not_depend_on_the_order_they_are_built(case, data):
    make, f, g, trunc, cap = case
    h = data.draw(polynomials(len(f.quiver.arrow_names()), 2))
    pairs = [(f, g), (g, f), (f, h), (h, g), (h, h)]
    order = data.draw(st.permutations(range(len(pairs))))
    first, second = make(), make()
    forward = [graphical_star(a, b, first, trunc, cap) for a, b in pairs]
    shuffled = {i: graphical_star(*pairs[i], second, trunc, cap) for i in order}
    assert forward == [shuffled[i] for i in range(len(pairs))]


def test_low_degree_inputs_build_only_the_rows_they_reach(monkeypatch):
    """quantize compare at d=3 multiplies monomials of degree <= 2: only the
    rows with at most two labels on each side are built, once per cochain."""
    built = []
    real = quantization._graph_operator
    monkeypatch.setattr(quantization, "_graph_operator",
                        lambda items, cochain: built.append(items) or real(items, cochain))
    q, _ = commutator_system(3)
    eta = PoissonBivector(3, {(2, 1): monomial(q, (0, 0, 1)),
                              (3, 2): monomial(q, (1, 1, 0))})
    cochain = poisson_to_cochain(eta, trunc=3)
    monos = [monomial(q, e) for e in itertools.product(range(3), repeat=3)
             if sum(e) <= 2]
    for f in monos:
        for g in monos:
            graphical_star(f, g, cochain)
    keys = {(mf, mg) for _, mf, mg in _flat(_stratum_weights(3, 3))}
    reached = [key for key in keys if sum(key[0]) <= 2 and sum(key[1]) <= 2]
    assert len(built) == len(reached) < len(keys)


@st.composite
def reach_cases(draw):
    """An exponent form of 1-6 terms with exponents 0-6 in d = 1..4 variables,
    and a set of label counts, some of them above every exponent."""
    d = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 6)] * d)
    form = {e: PolyScalar.rational(q) for e, q in draw(st.lists(
        st.tuples(exps, st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=6, unique_by=lambda t: t[0]))}
    counts = draw(st.sets(st.tuples(*[st.integers(0, 8)] * d), max_size=40))
    return form, counts


@settings(max_examples=300, deadline=None)
@given(reach_cases())
def test_reach_is_the_nonzero_divided_derivatives(case):
    form, counts = case
    want = {m: der for m in counts if (der := _derive(form, m))}
    assert _reach(form, counts) == want
    assert _reach(form, frozenset(counts)) == want


def test_dense_factors_match_the_eager_build():
    """Every monomial of degree <= 4 in x1..x3 (35 terms) in f and in g, so
    that a term reaches most label counts and many terms share each."""
    q, _ = commutator_system(3)
    dense = Element(q, {p: c for e in itertools.product(range(5), repeat=3)
                        if sum(e) <= 4
                        for p, c in monomial(q, e, PolyScalar.rational(
                            1 + e[0] - 5 * e[1] + 25 * e[2])).terms.items()})
    assert len(dense.terms) == 35
    eta = PoissonBivector(3, {(2, 1): monomial(q, (0, 0, 1)),
                              (3, 1): monomial(q, (0, 2, 0)),
                              (3, 2): monomial(q, (1, 1, 0))})
    for f, g in ((dense, dense), (dense, monomial(q, (2, 0, 1)))):
        got = graphical_star(f, g, poisson_to_cochain(eta, trunc=3))
        assert got == ref_graphical_star(f, g, poisson_to_cochain(eta, trunc=3))


@settings(max_examples=80, deadline=None)
@given(cases(), st.integers(1, 2))
def test_compare_returns_the_pairs_whose_stars_differ(case, cap):
    """quantize_compare on the four pairs of [f, g] returns exactly the pairs
    where graphical_star differs from the reduction star cut at the same
    order: 2, or the lowest order the cochain or a factor carries.  The
    cochain is built at order 3 and cut at order 2, so the cut can remove
    terms, and a cap of 1 leaves out stratum 2, so both verdicts occur."""
    make, f, g, _, _ = case
    cochain, other = make(3), make(3)
    trunc = lowest_order(2, other.trunc, f.order(), g.order())
    want = [(a, b) for a in (f, g) for b in (f, g)
            if graphical_star(a, b, other, trunc, cap)
            != star(a, b, other).truncated(trunc)]
    assert quantize_compare(cochain, [f, g], trunc, cap) == want


def test_compare_merges_cancelling_words_and_keys_the_empty_word():
    """The reduction side of quantize_compare multiplies f and g on arrow
    words.  In (x1 + x1^2) * (x1*x2 - x2) the words x1.x1x2 and x1x1.x2
    cancel, and the factors with a constant term make the empty word, which
    the rule x2*x1 -> x1*x2 + hbar*(1 + x1*x2) also makes: in
    (x2 + hbar) * (x1 - 1) the two constants cancel.  At cap 4 every pair
    agrees, so a zero coefficient kept or an empty word keyed apart from the
    rule's shows as a mismatch; at cap 1 some pairs differ."""
    q, _ = commutator_system(2)
    hbar = PolyScalar.var(HBAR, is_param=True, trunc=3)
    factors = [monomial(q, (1, 0)) + monomial(q, (2, 0)),
               monomial(q, (1, 1)) - monomial(q, (0, 1)),
               monomial(q, (0, 1)) + monomial(q, (0, 0), hbar),
               monomial(q, (1, 0)) - monomial(q, (0, 0))]
    eta = PoissonBivector(2, {(2, 1): monomial(q, (0, 0)) + monomial(q, (1, 1))})
    for cap in (4, 1):
        cochain, other = (poisson_to_cochain(eta, trunc=3) for _ in range(2))
        want = [(a, b) for a in factors for b in factors
                if graphical_star(a, b, other, 3, cap)
                != star(a, b, other).truncated(3)]
        assert bool(want) == (cap == 1)
        assert quantize_compare(cochain, factors, 3, cap) == want
