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
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .quiver_core import Element, PolyScalar, Quiver, UsageError
from .reduction_engine import DEFAULT_BUDGET, ReductionSystem, Rule, reduce_full
from .star_product import DeformationCochain, mc_check

__all__ = [
    "HBAR",
    "F_SLOT",
    "G_SLOT",
    "commutator_system",
    "monomial",
    "poly_diff",
    "PoissonBivector",
    "schouten_jacobi_check",
    "poisson_to_cochain",
    "quantize_check",
    "KGraph",
    "enumerate_graphs",
    "eval_graph",
    "graphical_star",
    "moyal",
    "gauge_phi",
]

HBAR = "hbar"  # the quantization parameter

# external graph slots: the left and right factor of the product
F_SLOT = -1
G_SLOT = -2


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
    if not isinstance(exponents, dict):
        exponents = {i + 1: e for i, e in enumerate(exponents)}
    arrows = [f"x{i}" for i in sorted(exponents) for _ in range(exponents[i])]
    path = quiver.path(*arrows) if arrows else quiver.trivial("0")
    return Element.from_path(path, coeff)


def _exponents(a: Element, d: int) -> dict[tuple[int, ...], PolyScalar]:
    """A polynomial in x1..xd as {exponent tuple: coefficient}."""
    out: dict[tuple[int, ...], PolyScalar] = {}
    for p, c in a.terms.items():
        e = tuple(p.arrows.count(f"x{i}") for i in range(1, d + 1))
        out[e] = out[e] + c if e in out else c
    return out


def _element(quiver: Quiver, a: dict[tuple[int, ...], PolyScalar]) -> Element:
    """The normal-form element of an exponent form."""
    return Element(quiver, {
        quiver.path(*[f"x{i}" for i, n in enumerate(e, 1) for _ in range(n)])
        if any(e) else quiver.trivial("0"): c for e, c in a.items()})


def _derive(a: dict, m: tuple[int, ...]) -> dict:
    """The divided derivative prod_i (1/m_i!) d^{m_i}/dx_i^{m_i} of a: it
    takes x^e to prod_i C(e_i, m_i) x^(e - m), and to 0 if some m_i > e_i."""
    out = {}
    for e, c in a.items():
        if all(mi <= ei for mi, ei in zip(m, e)):
            b = prod(comb(ei, mi) for ei, mi in zip(e, m))
            out[tuple(ei - mi for ei, mi in zip(e, m))] = c.scale(b) if b != 1 else c
    return out


def _exp_mul(a: dict, b: dict) -> dict:
    """The product of two exponent forms."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def poly_diff(a: Element, i: int) -> Element:
    """d/dx_i of a normal-form polynomial."""
    d = len(a.quiver.arrow_names())
    m = tuple(int(n == i) for n in range(1, d + 1))  # all 0 if i is no index
    return _element(a.quiver, _derive(_exponents(a, d), m) if any(m) else {})


def _poly_mul(a: Element, b: Element) -> Element:
    """Product of normal-form polynomials by exponent merging.

    Equivalent to multiplying in the path algebra and reducing with the
    commutator rules, but without the rewriting detour.
    """
    d = len(a.quiver.arrow_names())
    return _element(a.quiver, _exp_mul(_exponents(a, d), _exponents(b, d)))


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

    def is_constant(self) -> bool:
        return all(p.is_trivial for v in self.entries.values() for p in v.paths())

    def __repr__(self):
        body = ", ".join(f"eta_{j}{i}={v!r}" for (j, i), v in sorted(self.entries.items()))
        return f"PoissonBivector(d={self.d}, {body})"


@dataclass
class JacobiReport:
    defects: list[tuple[tuple[int, int, int], Element]]

    @property
    def verdict(self) -> bool:
        return all(v.is_zero() for _, v in self.defects)


def schouten_jacobi_check(eta: PoissonBivector) -> JacobiReport:
    """[eta, eta] = 0: the standard trivector formula, componentwise.

    For each i < j < k the component is
    sum_l pi^{li} d_l pi^{jk} + pi^{lj} d_l pi^{ki} + pi^{lk} d_l pi^{ij}.
    """
    defects = []
    for i, j, k in itertools.combinations(range(1, eta.d + 1), 3):
        total = Element.zero(eta.quiver)
        for l in range(1, eta.d + 1):
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                total = total + _poly_mul(eta.entry(l, a),
                                          poly_diff(eta.entry(b, c), l))
        defects.append(((i, j, k), total))
    return JacobiReport(defects)


def poisson_to_cochain(eta: PoissonBivector, trunc: int = 4) -> DeformationCochain:
    """First-order cochain phitilde(x_j x_i) = eta_ji * hbar."""
    hbar = PolyScalar.var(HBAR, is_param=True, trunc=trunc)
    values = {}
    for (j, i), v in eta.entries.items():
        s = eta.quiver.path(f"x{j}", f"x{i}")
        values[s] = v.scale(hbar)
    return DeformationCochain(eta.system, values, trunc=trunc)


def quantize_check(cochain: DeformationCochain, *, budget: int = DEFAULT_BUDGET):
    """Associativity on all strictly decreasing generator triples x_k, x_j, x_i.

    This is the Maurer-Cartan check for the commutator system: its overlap
    words are exactly x_k x_j x_i with k > j > i.
    """
    return mc_check(cochain, budget)


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

    def order_at(self, n: int) -> tuple[int, ...]:
        return dict(self.orders).get(n, ())


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


def enumerate_graphs(k: int, cap: int = 4) -> list[KGraph]:
    """All graphs in the k-th stratum, canonical and isomorphism-free."""
    if k < 1:
        raise UsageError("k must be at least 1")
    if k > cap:
        raise UsageError(f"k={k} exceeds the enumeration cap {cap}")
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _label_weights(graph: KGraph, d: int) -> tuple:
    """The integer part of a graph's operator in d variables.

    Items ((factors, mf, mg), weight): mf and mg count the labels on the
    edges into f and g, ``factors`` is the sorted ((j, i), incoming label
    counts) of the internal vertices, and the weight sums the replay
    multiplicities over the insertion placements and the index labelings
    (i_v < j_v at each vertex, labels weakly increasing along each incoming
    order) with that key.  It depends on no cochain.
    """
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
def _stratum_weights(d: int, strata: int) -> tuple:
    """The tables of all graphs of strata 1..strata, summed by key (the
    operator is linear in its rows, so the sum over the graphs is kept)."""
    weights: dict = {}
    for k in range(1, strata + 1):
        for graph in enumerate_graphs(k, cap=strata):
            for key, w in _label_weights(graph, d):
                weights[key] = weights.get(key, 0) + w
    return tuple(weights.items())


def _graph_operator(weights: tuple, cochain: DeformationCochain):
    """The operator of an integer table for a cochain, as rows (coeff, mf, mg).

    ``coeff`` is an exponent form: over the keys with label counts mf and mg,
    the sum of the weight times the product of the divided derivatives of the
    cochain values in ``factors``, taken once per distinct factor multiset.
    """
    quiver = cochain.system.quiver
    d = len(quiver.arrow_names())
    values = {(j, i): _exponents(cochain.value(quiver.path(f"x{j}", f"x{i}")), d)
              for j in range(2, d + 1) for i in range(1, j)}
    prods: dict = {(): {(0,) * d: PolyScalar.rational(1)}}
    rows: dict = {}
    for (factors, mf, mg), w in weights:
        for n in range(1, len(factors) + 1):  # sorted prefixes are shared
            if factors[:n] not in prods:
                (ji, m), head = factors[n - 1], prods[factors[:n - 1]]
                prods[factors[:n]] = head and _exp_mul(
                    head, _derive(values[ji], m))
        row = rows.setdefault((mf, mg), {})
        for e, c in prods[factors].items():
            row[e] = row[e] + c.scale(w) if e in row else c.scale(w)
    return [(coeff, mf, mg) for (mf, mg), row in rows.items()
            if (coeff := {e: c for e, c in row.items() if not c.is_zero()})]


def _apply_operator(rows, quiver: Quiver, f: Element, g: Element,
                    trunc: int | None) -> Element:
    d = len(quiver.arrow_names())
    fe, ge = _exponents(f, d), _exponents(g, d)
    df: dict = {}  # rows repeat label counts; f and g are fixed here
    dg: dict = {}
    total: dict = {}
    for coeff, mf, mg in rows:
        if mf not in df:
            df[mf] = _derive(fe, mf)
        if df[mf]:
            if mg not in dg:
                dg[mg] = _derive(ge, mg)
            for e, c in _exp_mul(coeff, _exp_mul(df[mf], dg[mg])).items():
                total[e] = total[e] + c if e in total else c
    return _element(quiver, total).truncated(trunc)


def _operator(cochain: DeformationCochain, key, weights):
    """The operator of the table ``weights()``, cached on the cochain."""
    cache = cochain.__dict__.setdefault("_graph_operators", {})
    if key not in cache:
        cache[key] = _graph_operator(weights(), cochain)
    return cache[key]


def eval_graph(graph: KGraph, cochain: DeformationCochain, f: Element,
               g: Element, trunc: int | None = None) -> Element:
    """The bidifferential operator of a graph applied to (f, g)."""
    quiver = cochain.system.quiver
    d = len(quiver.arrow_names())
    rows = _operator(cochain, graph, lambda: _label_weights(graph, d))
    return _apply_operator(rows, quiver, f, g,
                           cochain.trunc if trunc is None else trunc)


def graphical_star(f: Element, g: Element, cochain: DeformationCochain,
                   trunc: int | None = None, cap: int = 4) -> Element:
    """f * g as the graph expansion: sum over k and all graphs of stratum k.

    The deformation part has strictly positive parameter degree, so strata
    beyond the truncation order cannot contribute.  The graphs of strata
    1..min(trunc, cap) are applied as one summed table.
    """
    if trunc is None:
        trunc = cochain.trunc
    if trunc is None:
        raise UsageError("graphical_star needs a finite truncation order")
    quiver = cochain.system.quiver
    d, strata = len(quiver.arrow_names()), min(trunc, cap)
    rows = _operator(cochain, strata, lambda: _stratum_weights(d, strata))
    total = _poly_mul(f, g) + _apply_operator(rows, quiver, f, g, trunc)
    return total.truncated(trunc)


# ---------------------------------------------------------------------------
# Moyal product and gauge transformation for constant Poisson structures


def _constant_entries(eta: PoissonBivector) -> dict[tuple[int, int], PolyScalar]:
    if not eta.is_constant():
        raise UsageError("this operation needs a constant Poisson bivector")
    return {ji: next(iter(v.terms.values())) for ji, v in eta.entries.items()}


def moyal(f: Element, g: Element, eta: PoissonBivector, trunc: int = 4) -> Element:
    """The Moyal product exp((hbar/2) sum eta_ji (d_j x d_i - d_i x d_j))."""
    consts = _constant_entries(eta)
    hbar_half = PolyScalar.var(HBAR, is_param=True, trunc=trunc).scale(Fraction(1, 2))
    terms = [(PolyScalar.rational(1, trunc=trunc), f, g)]
    total = Element.zero(eta.quiver)
    for n in range(trunc + 1):
        for c, a, b in terms:
            total = total + _poly_mul(a, b).scale(
                c.scale(Fraction(1, factorial(n))))
        nxt = []
        for c, a, b in terms:
            for (j, i), e in consts.items():
                coeff = c * hbar_half * e
                if coeff.is_zero():
                    continue
                nxt.append((coeff, poly_diff(a, j), poly_diff(b, i)))
                nxt.append((coeff.scale(-1), poly_diff(a, i), poly_diff(b, j)))
        terms = [(c, a, b) for c, a, b in nxt
                 if not (c.is_zero() or a.is_zero() or b.is_zero())]
        if not terms:
            break
    return total.truncated(trunc)


def gauge_phi(f: Element, eta: PoissonBivector, trunc: int = 4) -> Element:
    """Phi(f) = exp((hbar/2) sum eta_ji d^2/dx_i dx_j)(f)."""
    consts = _constant_entries(eta)
    hbar_half = PolyScalar.var(HBAR, is_param=True, trunc=trunc).scale(Fraction(1, 2))
    total = Element.zero(eta.quiver)
    current = [(PolyScalar.rational(1, trunc=trunc), f)]
    for n in range(trunc + 1):
        for c, a in current:
            total = total + a.scale(c.scale(Fraction(1, factorial(n))))
        nxt = []
        for c, a in current:
            for (j, i), e in consts.items():
                coeff = c * hbar_half * e
                da = poly_diff(poly_diff(a, i), j)
                if not (coeff.is_zero() or da.is_zero()):
                    nxt.append((coeff, da))
        current = nxt
        if not current:
            break
    return total.truncated(trunc)
