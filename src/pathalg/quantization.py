"""Deformation quantization of polynomial algebras.

The polynomial algebra k[x_1..x_d] is presented as the path algebra of a
one-vertex quiver with arrows x1..xd modulo the commutator reduction system
x_j x_i -> x_i x_j (j > i), whose irreducible paths are the weakly increasing
monomials.  A Poisson bivector gives a first-order deformation cochain
phitilde(x_j x_i) = eta_ji * hbar, and the star product specializes to a
quantization exactly when associativity holds on decreasing generator
triples.

The graphical calculus expresses each stratum of the star product as a sum of
bidifferential operators indexed by acyclic Kontsevich-type graphs with
ordered incoming edges.  Evaluation sums over the realizable insertion
placements of a graph and over all index labelings compatible with the
orderings, with divided derivatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

from .quiver_core import Element, Path, PolyScalar, Quiver, UsageError, lowest_order
from .reduction_engine import DEFAULT_BUDGET, ReductionSystem, Rule, _reduce_words, reduce_full
from .star_product import DefectReport, DeformationCochain, _entered, mc_check

__all__ = [
    "HBAR",
    "F_SLOT",
    "G_SLOT",
    "commutator_system",
    "monomial",
    "PoissonBivector",
    "schouten_jacobi_check",
    "poisson_to_cochain",
    "quantize_check",
    "quantize_compare",
    "KGraph",
    "MAX_STRATUM",
    "enumerate_graphs",
    "eval_graph",
    "graphical_star",
]

HBAR = "hbar"  # the quantization parameter

# external graph slots: the left and right factor of the product
F_SLOT = -1
G_SLOT = -2

# the largest stratum that is enumerated: stratum 4 (1,754 graphs) takes about
# 0.5 s, and stratum 5 has 15^5 target choices against 10^4
MAX_STRATUM = 4


@lru_cache(maxsize=None)
def commutator_system(d: int) -> tuple[Quiver, ReductionSystem]:
    """k[x1..xd] as a one-vertex quiver with rules x_j x_i -> x_i x_j (j > i).

    Cached so repeated calls share one quiver object: elements only combine
    when they belong to the same quiver instance.
    """
    if d < 1:
        raise UsageError("dimension must be at least 1")
    quiver = Quiver(["0"], [(f"x{i}", "0", "0") for i in range(1, d + 1)])
    rules = [Rule(quiver.path(f"x{j}", f"x{i}"),
                  Element.from_path(quiver.path(f"x{i}", f"x{j}")))
             for j in range(2, d + 1) for i in range(1, j)]
    return quiver, ReductionSystem(quiver, rules)


def monomial(quiver: Quiver, exponents: dict[int, int] | tuple[int, ...],
             coeff: PolyScalar | None = None) -> Element:
    """The normal-form monomial prod x_i^{e_i}."""
    if isinstance(exponents, dict):
        exponents = tuple(exponents.get(i, 0)
                          for i in range(1, max(exponents, default=0) + 1))
    return _element(quiver, {tuple(exponents): PolyScalar.rational(1)
                             if coeff is None else coeff})


@lru_cache(maxsize=None)
def _names(d: int) -> tuple[str, ...]:
    """The arrow names x1..xd."""
    return tuple(f"x{i}" for i in range(1, d + 1))


def _exponents(a: Element, d: int) -> dict[tuple[int, ...], PolyScalar]:
    """A polynomial in x1..xd as {exponent tuple: coefficient}."""
    return _forms(a.terms.items(), d)


def _forms(terms, d: int) -> dict[tuple[int, ...], PolyScalar]:
    """The exponent form of (key, coefficient) pairs, a key a path or an
    engine word (an arrow tuple, or a trivial path): exponent i counts x{i}."""
    names = _names(d)
    out: dict[tuple[int, ...], PolyScalar] = {}
    for w, c in terms:
        w = w if type(w) is tuple else w.arrows
        e = tuple(map(w.count, names))
        out[e] = out[e] + c if e in out else c
    return out


def _element(quiver: Quiver, a: dict[tuple[int, ...], PolyScalar]) -> Element:
    """The normal-form element of an exponent form: exponent i counts the
    arrow named x{i}, whatever the order the arrows were declared in."""
    one = Path._trusted(quiver, (), quiver.vertices[0])
    names = _names(len(next(iter(a), ())))
    return Element(quiver, {
        Path._trusted(quiver, tuple(x for x, n in zip(names, e)
                                    for _ in range(n)), None)
        if any(e) else one: c for e, c in a.items()})


def _derive(a: dict, m: tuple[int, ...]) -> dict:
    """The divided derivative prod_i (1/m_i!) d^{m_i}/dx_i^{m_i} of a: it
    takes x^e to prod_i C(e_i, m_i) x^(e - m), and to 0 if some m_i > e_i."""
    out = {}
    for e, c in a.items():
        if all(mi <= ei for mi, ei in zip(m, e)):
            b = prod(comb(ei, mi) for ei, mi in zip(e, m))
            out[tuple(ei - mi for ei, mi in zip(e, m))] = c.scale(b)
    return out


def _exp_mul(a: dict, b: dict) -> dict:
    """The product of two exponent forms.  A coefficient of b that is a
    rational with no order lies in every ring, so it scales: the same product."""
    bq = [(e2, c2, c2.terms[()] if c2.trunc is None and c2.is_rational() else None)
          for e2, c2 in b.items()]
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2, q in bq:
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2 if q is None else c1.scale(q)
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _unit(d: int, *indices: int) -> tuple[int, ...]:
    """prod x_i over ``indices`` as an exponent tuple of length d."""
    return tuple(indices.count(n) for n in range(1, d + 1))


class PoissonBivector:
    """eta = sum_{i<j} eta_ji d/dx_j ^ d/dx_i with polynomial coefficients.

    Entries are indexed (j, i) with j > i and are normal-form Elements of the
    commutator system.
    """

    def __init__(self, d: int, entries: dict[tuple[int, int], Element],
                 quiver: Quiver | None = None, system: ReductionSystem | None = None):
        if quiver is None or system is None:
            quiver, system = commutator_system(d)
        self.d = d
        self.quiver = quiver
        self.system = system
        self.entries: dict[tuple[int, int], Element] = {}
        for (j, i), v in entries.items():
            if not (1 <= i < j <= d):
                raise UsageError(f"entry ({j}, {i}) must have 1 <= i < j <= d")
            if not v.is_zero():
                self.entries[(j, i)] = reduce_full(v, system)

    def entry(self, j: int, i: int) -> Element:
        """pi^{ji} for any pair, using antisymmetry."""
        if j == i:
            return Element.zero(self.quiver)
        if j > i:
            return self.entries.get((j, i), Element.zero(self.quiver))
        return -self.entries.get((i, j), Element.zero(self.quiver))

    def __repr__(self):
        body = ", ".join(f"eta_{j}{i}={v!r}" for (j, i), v in sorted(self.entries.items()))
        return f"PoissonBivector(d={self.d}, {body})"


def schouten_jacobi_check(eta: PoissonBivector) -> DefectReport:
    """[eta, eta] = 0: the standard trivector formula, componentwise.

    For each i < j < k the component is
    sum_l pi^{li} d_l pi^{jk} + pi^{lj} d_l pi^{ki} + pi^{lk} d_l pi^{ij}.
    """
    d = eta.d
    pi = {(j, i): _exponents(eta.entry(j, i), d)
          for j in range(1, d + 1) for i in range(1, d + 1)}
    defects = []
    for i, j, k in itertools.combinations(range(1, d + 1), 3):
        total: dict = {}
        for l in range(1, d + 1):
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                for e, v in _exp_mul(pi[l, a], _derive(pi[b, c], _unit(d, l))).items():
                    total[e] = total[e] + v if e in total else v
        defects.append(((i, j, k), _element(eta.quiver, total)))
    return DefectReport(defects)


def poisson_to_cochain(eta: PoissonBivector, trunc: int = 4) -> DeformationCochain:
    """First-order cochain phitilde(x_j x_i) = eta_ji * hbar, at the lowest
    of ``trunc`` and the entries' orders."""
    trunc = lowest_order(trunc, *(v.order() for v in eta.entries.values()))
    hbar = PolyScalar.var(HBAR, is_param=True, trunc=trunc)
    values = {}
    for (j, i), v in eta.entries.items():
        s = eta.quiver.path(f"x{j}", f"x{i}")
        values[s] = v.truncated(trunc).scale(hbar)
    return DeformationCochain(eta.system, values, trunc=trunc)


def quantize_check(cochain: DeformationCochain, *, budget: int = DEFAULT_BUDGET):
    """Associativity on all strictly decreasing generator triples x_k, x_j, x_i.

    This is the Maurer-Cartan check for the commutator system: its overlap
    words are exactly x_k x_j x_i with k > j > i.
    """
    return mc_check(cochain, budget)


def quantize_compare(cochain: DeformationCochain, factors: list[Element],
                     trunc: int | None, cap: int = MAX_STRATUM,
                     budget: int = DEFAULT_BUDGET
                     ) -> list[tuple[Element, Element]]:
    """The pairs (f, g) of ``factors`` whose graph expansion up to stratum
    ``cap`` (``graphical_star``) differs from the reduction star, both at
    the lowest of ``trunc`` (the cochain's order if None) and the orders of
    the cochain and the factors.

    Each factor's exponent form, its two reaches and its terms as (arrow
    word, path, coefficient) are read once, and the two sides of a pair are
    compared as exponent forms.  That is exact on the commutator system, the
    only one ``quantize`` admits (see ``cli._commutator_dimension``): its
    normal words are the sorted words ``_element`` builds, one per exponent
    tuple.  On its one vertex, f*g is the concatenation of words, so the
    reduction side is ``star`` on engine words: the product's words go to
    ``_reduce_words`` on the deformed system, which the cochain and the
    factors are already entered into.  The pairs run f by f, then g by g,
    graph side first, so an error (a stratum above MAX_STRATUM, an exhausted
    budget) is the one the first failing pair meets.
    """
    d = len(cochain.system.quiver.arrow_names())
    strata, (rows, mgs) = _summed_table(cochain, trunc, cap)
    cochain, *entered = _entered(cochain, trunc, *factors)
    deformed = cochain._deformed
    words = [[(p.arrows, p, c) for p, c in f.terms.items()] for f in entered]
    forms = [_exponents(f, d) for f in entered]
    reach_f = [_reach(fe, rows) for fe in forms]
    reach_g = [_reach(ge, mgs) for ge in forms]
    mismatches = []
    for f, fw, fe, df in zip(factors, words, forms, reach_f):
        for g, gw, ge, dg in zip(factors, words, forms, reach_g):
            lhs = _apply_operator(cochain, strata, rows, df, dg, _exp_mul(fe, ge))
            product: dict = {}  # f*g as Element.__mul__ builds it, keyed by engine words
            for u, p, cu in fw:
                for v, _, cv in gw:
                    w, c = u + v or p, cu * cv
                    product[w] = product[w] + c if w in product else c
            normal = _reduce_words({w: c for w, c in product.items() if not c.is_zero()},
                                   deformed, budget)
            if lhs != _forms(normal.items(), d):
                mismatches.append((f, g))
    return mismatches


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class KGraph:
    """An acyclic graph on k internal vertices with two ordered external slots.

    ``targets[v]`` is the sorted pair of endpoints of the two outgoing edges
    of internal vertex v (internal vertices are 0..k-1, the external slots
    are F_SLOT and G_SLOT).  ``orders[n]`` lists the sources of the incoming
    edges of node n in their fixed total order.
    """

    k: int
    targets: tuple[tuple[int, int], ...]
    orders: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if len(self.targets) != self.k:
            raise UsageError("need exactly one target pair per internal vertex")
        incoming: dict[int, int] = {}
        for v, (a, b) in enumerate(self.targets):
            if a == b:
                raise UsageError(f"vertex {v} has parallel edges")
            for t in (a, b):
                if t == v:
                    raise UsageError(f"vertex {v} has a loop")
                if not (t in (F_SLOT, G_SLOT) or 0 <= t < self.k):
                    raise UsageError(f"vertex {v} has an invalid target {t}")
                incoming[t] = incoming.get(t, 0) + 1
        order_map = dict(self.orders)
        for n, srcs in order_map.items():
            if sorted(srcs) != sorted(v for v, pair in enumerate(self.targets)
                                      if n in pair):
                raise UsageError(f"order at node {n} does not list its incoming edges")
        if set(order_map) != {n for n in incoming}:
            raise UsageError("orders must cover exactly the nodes with incoming edges")
        if _has_cycle(self.targets):
            raise UsageError("graph has an oriented cycle")


def _has_cycle(targets) -> bool:
    """Whether the edges v -> targets[v] close an oriented cycle: placing,
    round by round, every vertex whose targets are slots or placed vertices
    then leaves some vertex unplaced."""
    placed: set[int] = set()
    while len(placed) < len(targets):
        ready = {v for v, pair in enumerate(targets) if v not in placed
                 and all(t < 0 or t in placed for t in pair)}
        if not ready:
            return True
        placed |= ready
    return False


def _discovery_key(orders) -> tuple:
    """A complete isomorphism key of an acyclic graph, in O(k): each node's
    incoming order, vertices numbered as a breadth-first walk from F_SLOT,
    then G_SLOT, meets them.  Every internal vertex reaches F or G, and the
    ordered incoming edges leave the walk no choice."""
    order_map = dict(orders)
    number = {F_SLOT: F_SLOT, G_SLOT: G_SLOT}
    queue = [F_SLOT, G_SLOT]
    key = []
    for n in queue:  # the queue grows while the walk runs
        srcs = order_map.get(n, ())
        for v in srcs:
            if v not in number:
                number[v] = len(queue) - 2
                queue.append(v)
        key.append(tuple(number[v] for v in srcs))
    return tuple(key)


def _check_stratum(k: int) -> None:
    if k > MAX_STRATUM:
        raise UsageError(f"graph stratum {k} is above the limit {MAX_STRATUM}: "
                         f"strata above {MAX_STRATUM} are not enumerated")


def enumerate_graphs(k: int, cap: int = MAX_STRATUM) -> list[KGraph]:
    """All graphs in the k-th stratum, canonical and isomorphism-free."""
    if k < 1:
        raise UsageError("k must be at least 1")
    if k > cap:
        raise UsageError(f"k={k} exceeds the enumeration cap {cap}")
    _check_stratum(k)
    return list(_enumerate_graphs_cached(k))


@lru_cache(maxsize=None)
def _enumerate_graphs_cached(k: int) -> tuple[KGraph, ...]:
    nodes = list(range(k)) + [F_SLOT, G_SLOT]
    # discovery key -> least (targets, orders) of its class: the walk visits
    # every labelling of every class, so that is the canonical form
    seen: dict = {}
    target_choices = [list(itertools.combinations([n for n in nodes if n != v], 2))
                      for v in range(k)]
    for combo in itertools.product(*target_choices):
        targets = tuple(tuple(sorted(pair)) for pair in combo)
        if _has_cycle(targets):
            continue
        incoming: dict[int, list[int]] = {}
        for v, pair in enumerate(targets):
            for t in pair:
                incoming.setdefault(t, []).append(v)
        order_space = [
            [(n, perm) for perm in itertools.permutations(srcs)]
            for n, srcs in sorted(incoming.items())
        ]
        for orders in itertools.product(*order_space):
            key = _discovery_key(orders)
            form = (targets, orders)
            if key not in seen or form < seen[key]:
                seen[key] = form
    return tuple(KGraph(k, targets, orders) for targets, orders in sorted(seen.values()))


# ---------------------------------------------------------------------------
# realizability of insertion placements

# An insertion placement assigns to every internal vertex which of its two
# outgoing edges consumes the left letter (the "j" leg) of a descent.  For a
# fixed placement and index labeling the right-most reductions of a word with
# one letter per edge are replayed symbolically: each letter carries the
# variable index of its edge, the right-most descent is forced, and the only
# branch at each step is "commute" versus "insert the designated vertex".
# The number of complete replays is the multiplicity of the labeled graph in
# the star product.


def _history_count(k: int, out_j: tuple[int, ...], out_i: tuple[int, ...],
                   orders: tuple, labels: tuple[tuple[int, int], ...]) -> int:
    order_map = dict(orders)

    def value(letter):
        v, n = letter
        return labels[v][0] if out_j[v] == n else labels[v][1]

    fire_pair = {v: ((v, out_j[v]), (v, out_i[v])) for v in range(k)}
    emission = {v: tuple((w, v) for w in order_map.get(v, ())) for v in range(k)}
    init = (tuple((v, F_SLOT) for v in order_map.get(F_SLOT, ()))
            + tuple((v, G_SLOT) for v in order_map.get(G_SLOT, ())))

    def count(word, fired) -> int:
        # no memo: once the descent (a, b) that fires v is commuted, a and b
        # never stand as (a, b) again, so no (word, fired) state repeats
        if len(fired) == k:
            return 1
        p = next((q for q in range(len(word) - 2, -1, -1)
                  if value(word[q]) > value(word[q + 1])), None)
        total = 0
        if p is not None:
            a, b = word[p], word[p + 1]
            total += count(word[:p] + (b, a) + word[p + 2:], fired)
            for v in range(k):
                if v not in fired and (a, b) == fire_pair[v]:
                    total += count(word[:p] + emission[v] + word[p + 2:],
                                   fired | frozenset((v,)))
        return total

    return count(init, frozenset())


# ---------------------------------------------------------------------------
# graph evaluation


def _add_weights(weights: dict, graph: KGraph, d: int) -> None:
    """Add the integer part of a graph's operator in d variables to
    ``weights``, a dict {mf: {mg: {factors: weight}}}.

    mf and mg are the label counts on the edges into f and g, ``factors`` is
    the sorted ((j, i), incoming label counts) of the internal vertices, and
    the weight sums the replay multiplicities over the insertion placements
    and the index labelings (i_v < j_v at each vertex, labels weakly
    increasing along each incoming order) with that key.  It depends on no
    cochain.
    """
    k = graph.k
    order_map = dict(graph.orders)
    placements = [tuple(zip(*(pair if (mask >> v) & 1 else pair[::-1]
                              for v, pair in enumerate(graph.targets))))
                  for mask in range(2 ** k)]
    none = (0,) * d
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
                    row = weights.setdefault(counts.get(F_SLOT, none), {}) \
                        .setdefault(counts.get(G_SLOT, none), {})
                    factors = tuple(sorted((labels[v], counts.get(v, none))
                                           for v in range(k)))
                    row[factors] = row.get(factors, 0) + mult


def _table(weights: dict) -> tuple:
    """{mf: {mg: {factors: weight}}} as a table (rows, mgs): ``rows[mf][mg]``
    is ((factors, weight), ...) and ``mgs`` is the set of every mg."""
    rows = {mf: {mg: tuple(row.items()) for mg, row in by_mg.items()}
            for mf, by_mg in weights.items()}
    return rows, frozenset(mg for by_mg in rows.values() for mg in by_mg)


@lru_cache(maxsize=None)
def _label_weights(graph: KGraph, d: int) -> tuple:
    """The table of one graph's operator in d variables (``eval_graph``)."""
    weights: dict = {}
    _add_weights(weights, graph, d)
    return _table(weights)


@lru_cache(maxsize=None)
def _stratum_weights(d: int, strata: int) -> tuple:
    """The table of all graphs of strata 1..strata, their weights added in
    one pass (the operator is linear in its rows, so only the sum is kept)."""
    weights: dict = {}
    for k in range(1, strata + 1):
        for graph in enumerate_graphs(k, cap=strata):
            _add_weights(weights, graph, d)
    return _table(weights)


def _graph_operator(items: tuple, cochain: DeformationCochain) -> dict:
    """One row of an integer table for a cochain, as an exponent form: the sum
    over its items (factors, weight) of the weight times the product of the
    divided derivatives of the cochain values in ``factors``.  The products
    of sorted factor prefixes are shared by every row and cached on the
    cochain."""
    quiver = cochain.system.quiver
    d = len(quiver.arrow_names())
    if "_graph_prods" not in cochain.__dict__:
        cochain._graph_values = {
            (j, i): _exponents(cochain.value(quiver.path(f"x{j}", f"x{i}")), d)
            for j in range(2, d + 1) for i in range(1, j)}
        cochain._graph_prods = {(): {(0,) * d: PolyScalar.rational(1)}}
    values, prods = cochain._graph_values, cochain._graph_prods
    row: dict = {}
    for factors, w in items:
        for n in range(1, len(factors) + 1):
            if factors[:n] not in prods:
                (ji, m), head = factors[n - 1], prods[factors[:n - 1]]
                prods[factors[:n]] = head and _exp_mul(
                    head, _derive(values[ji], m))
        for e, c in prods[factors].items():
            row[e] = row[e] + c.scale(w) if e in row else c.scale(w)
    return {e: c for e, c in row.items() if not c.is_zero()}


def _reach(a: dict, counts) -> dict:
    """{m: _derive(a, m)} over the label counts m in ``counts`` where it is
    not empty."""
    return {m: der for m in counts if (der := _derive(a, m))}


def _apply_operator(cochain: DeformationCochain, key, rows: dict, df: dict,
                    dg: dict, total: dict) -> dict:
    """``total`` plus the operator of a table's ``rows`` applied to f and g,
    as an exponent form, in the cochain's ring (f and g entered into it).

    df and dg are the reaches (``_reach``) of f against the rows and of g
    against the table's mg counts, so only the rows (mf, mg) that both reach
    are visited.  A row is built once per cochain and ``key``, when it is
    first visited.
    """
    built = cochain.__dict__.setdefault("_graph_operators", {}).setdefault(key, {})
    for mf, dfm in (df if dg else {}).items():
        for mg, items in rows[mf].items():
            if mg not in dg:
                continue
            if (mf, mg) not in built:
                built[mf, mg] = _graph_operator(items, cochain)
            for e, c in _exp_mul(built[mf, mg], _exp_mul(dfm, dg[mg])).items():
                c = total.pop(e) + c if e in total else c
                if not c.is_zero():
                    total[e] = c
    return total


def eval_graph(graph: KGraph, cochain: DeformationCochain, f: Element,
               g: Element, trunc: int | None = None) -> Element:
    """The bidifferential operator of a graph applied to (f, g)."""
    cochain, f, g = _entered(cochain, trunc, f, g)
    quiver = cochain.system.quiver
    d = len(quiver.arrow_names())
    rows, mgs = _label_weights(graph, d)
    return _element(quiver, _apply_operator(
        cochain, graph, rows, _reach(_exponents(f, d), rows),
        _reach(_exponents(g, d), mgs), {}))


def _summed_table(cochain: DeformationCochain, trunc: int | None,
                  cap: int) -> tuple[int, tuple]:
    """(strata, table) of the graph expansion at order ``trunc``, or at the
    cochain's if it is None: strata beyond the order cannot contribute, and
    none may be above MAX_STRATUM."""
    n = cochain.trunc if trunc is None else trunc
    if n is None:
        raise UsageError("the graph star needs a finite truncation order")
    strata = min(n, cap)
    _check_stratum(strata)
    return strata, _stratum_weights(len(cochain.system.quiver.arrow_names()), strata)


def graphical_star(f: Element, g: Element, cochain: DeformationCochain,
                   trunc: int | None = None, cap: int = MAX_STRATUM) -> Element:
    """f * g as the graph expansion: sum over k and all graphs of stratum k.

    The deformation part has strictly positive parameter degree, so strata
    beyond the truncation order cannot contribute.  The graphs of strata
    1..min(trunc, cap) are applied as one summed table, added to f*g; that
    stratum may not be above MAX_STRATUM.
    """
    strata, (rows, mgs) = _summed_table(cochain, trunc, cap)
    cochain, f, g = _entered(cochain, trunc, f, g)
    quiver = cochain.system.quiver
    d = len(quiver.arrow_names())
    fe, ge = _exponents(f, d), _exponents(g, d)
    return _element(quiver, _apply_operator(
        cochain, strata, rows, _reach(fe, rows), _reach(ge, mgs), _exp_mul(fe, ge)))
