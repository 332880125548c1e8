"""The ranked worklist in reduce_full: same normal forms, bounded work.

``reduce_full`` rewrites pending words lowest parameter degree first and,
within a degree, in topological order of the degree-0 rewrites.  Whenever
rewriting terminates the normal form does not depend on that order, so it must
agree with the plain last-in first-out loop kept below as a reference.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_brauer, make_deformed3, max_trunc
from pathalg.quiver_core import Element, Path, PolyScalar, Quiver, RingError
from pathalg.reduction_engine import (
    BudgetExceeded,
    ReductionSystem,
    Rule,
    overlaps,
    reduce_full,
    resolve_overlap,
    rightmost_split,
)
from pathalg.star_product import DeformationCochain, star


def lifo_normal_form(a: Element, R: ReductionSystem) -> Element:
    """Reference: pop the last pending term, rewrite it, repeat."""
    S = R.lhs_set()
    done = Element.zero(a.quiver)
    pending = dict(a.terms)
    while pending:
        p, c = pending.popitem()
        split = rightmost_split(p, S)
        if split is None:
            done = done + Element.from_path(p, c)
            continue
        reduct = (Element.from_path(split.q) * R.by_lhs[split.s].rhs
                  * Element.from_path(split.r)).scale(c)
        for q, cq in reduct.terms.items():
            cq = pending[q] + cq if q in pending else cq
            if cq.is_zero():
                pending.pop(q, None)
            else:
                pending[q] = cq
    return done


def _hbar(trunc):
    return PolyScalar.var("hbar", is_param=True, trunc=trunc)


def _deformed_commutator(d: int, trunc: int = 3):
    """x_j x_i -> x_i x_j + hbar * (fixed irreducible terms), j > i."""
    q = Quiver(["0"], [(f"x{i}", "0", "0") for i in range(1, d + 1)])
    h = _hbar(trunc)
    rules = []
    for j in range(2, d + 1):
        for i in range(1, j):
            rhs = (Element.from_path(q.path(f"x{i}", f"x{j}"))
                   + Element.from_path(q.path("x1", "x1"), h)
                   + Element.from_path(q.path(f"x{i}"), h.scale(j - i))
                   + Element.from_path(q.path(f"x{i}", f"x{i}"), h * h.scale(-2)))
            rules.append(Rule(q.path(f"x{j}", f"x{i}"), rhs))
    return q, ReductionSystem(q, rules)


def _formal_lam_mu(trunc: int = 8):
    """The 4-vertex quiver with x y1 -> lam x y2, y2 z -> mu y1 z (formal)."""
    q = Quiver(["1", "2", "3", "4"],
               [("x", "1", "2"), ("y1", "2", "3"), ("y2", "2", "3"),
                ("z", "3", "4"), ("w", "2", "4")])
    lam = PolyScalar.var("lam", is_param=True, trunc=trunc)
    mu = PolyScalar.var("mu", is_param=True, trunc=trunc)
    return q, ReductionSystem(q, [
        Rule(q.path("x", "y1"), Element.from_path(q.path("x", "y2"), lam)),
        Rule(q.path("y2", "z"), Element.from_path(q.path("y1", "z"), mu))])


def _cycle_to_vertices(n: int, trunc: int = 4):
    """The cycle x1: 1 -> 2, ..., xn: n -> 1 with each rotation of x1*...*xn
    rewritten to lam times the trivial path at its vertex, so words empty
    out at every vertex.  For n = 2, lam is an unknown: those rewrites keep
    the parameter degree, and the ranking walk meets the empty words too."""
    vertices = [str(v) for v in range(1, n + 1)]
    q = Quiver(vertices, [(f"x{v}", vertices[v - 1], vertices[v % n])
                          for v in range(1, n + 1)])
    lam = (PolyScalar.var("lam") if n == 2
           else PolyScalar.var("lam", is_param=True, trunc=trunc))
    rules = []
    for v in range(n):
        word = [f"x{(v + k) % n + 1}" for k in range(n)]
        rules.append(Rule(q.path(*word), Element.from_path(q.trivial(vertices[v]), lam)))
    return q, ReductionSystem(q, rules)


SYSTEMS = {
    "commutator-2": _deformed_commutator(2),
    "commutator-3": _deformed_commutator(3),
    "deep-deformed-3": make_deformed3(4),
    "brauer-6": make_brauer(6),
    "formal-lam-mu": _formal_lam_mu(),
    "two-cycle-to-vertices": _cycle_to_vertices(2),
    "three-cycle-to-vertices": _cycle_to_vertices(3),
}


def _walk(quiver: Quiver, start: int, choices: list[int]) -> Path:
    """The path that starts at a vertex and takes the chosen arrows."""
    vertex = quiver.vertices[start % len(quiver.vertices)]
    arrows: list[str] = []
    for k in choices:
        out = quiver.arrows_from(vertex)
        if not out:
            break
        arrows.append(out[k % len(out)])
        vertex = quiver.target(arrows[-1])
    if not arrows:
        return Path(quiver, vertex=vertex)
    return quiver.path(*arrows)


terms = st.lists(
    st.tuples(st.integers(0, 5),
              st.lists(st.integers(0, 3), max_size=6),
              st.sampled_from([-3, -2, -1, 1, 2, 3]),
              st.integers(0, 2)),
    min_size=1, max_size=4)


def _element(R: ReductionSystem, terms) -> Element:
    """An element in the ring of R's right sides: at their order, with
    hbar a parameter."""
    a = Element.zero(R.quiver)
    for start, choices, c, hdeg in terms:
        coeff = PolyScalar({(("hbar", hdeg),) if hdeg else (): Fraction(c)},
                           R.trunc, frozenset({"hbar"}))
        a = a + Element.from_path(_walk(R.quiver, start, choices), coeff)
    return a


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(terms=terms)
def test_worklist_matches_lifo_reference(name, terms):
    q, R = SYSTEMS[name]
    a = _element(R, terms)
    assert reduce_full(a, R) == lifo_normal_form(a, R)


def _unknowns_and_hbar(trunc: int = 2):
    """x_j x_i -> x_i x_j + lam*hbar*x_k x_k + (mu^2 - 2*hbar^2)*x_i on the
    d=3 commutator quiver, hbar a parameter at order ``trunc`` and lam, mu
    unknowns, which no order cuts."""
    q = Quiver(["0"], [(f"x{i}", "0", "0") for i in (1, 2, 3)])
    ring = trunc, frozenset({"hbar"})
    lam_hbar = PolyScalar({(("hbar", 1), ("lam", 1)): 1}, *ring)
    mu2 = PolyScalar({(("mu", 2),): 1, (("hbar", 2),): -2}, *ring)
    return q, ReductionSystem(q, [
        Rule(q.path(f"x{j}", f"x{i}"), Element.from_path(q.path(f"x{i}", f"x{j}"))
             + Element.from_path(q.path(f"x{k}", f"x{k}"), lam_hbar)
             + Element.from_path(q.path(f"x{i}"), mu2))
        for j, i, k in ((2, 1, 3), (3, 1, 2), (3, 2, 1))])


# name -> (system, the ring of its inputs, or None for inputs with no order
# and no parameter term, the symbols the inputs use)
RING_CASES = {
    "criterion-03 lam, mu at order 8": (_formal_lam_mu(8), (8, frozenset({"lam", "mu"})),
                                        ("lam", "mu")),
    "unknowns and hbar at order 2": (_unknowns_and_hbar(2), (2, frozenset({"hbar"})),
                                     ("hbar", "lam", "mu")),
    "order-less inputs, deformed system": (_deformed_commutator(3), None, ("lam", "mu")),
}


@st.composite
def ring_inputs(draw, name):
    """An element of the case's system whose coefficients each have up to
    three terms, of mixed degrees in the case's symbols."""
    (q, R), ring, symbols = RING_CASES[name]
    exponents = st.tuples(*[st.integers(0, 5)] * len(symbols))
    a = Element.zero(q)
    for _ in range(draw(st.integers(1, 4))):
        path = _walk(q, draw(st.integers(0, 5)), draw(st.lists(st.integers(0, 3), max_size=6)))
        terms = {tuple((n, e) for n, e in zip(symbols, exps) if e): draw(
            st.sampled_from([-3, -1, 1, 2, Fraction(1, 2)]))
            for exps in draw(st.lists(exponents, min_size=1, max_size=3))}
        coeff = (PolyScalar(terms, *ring) if ring is not None else
                 PolyScalar(terms, None, draw(st.sampled_from([frozenset(), R.params]))))
        if not coeff.is_zero():
            a = a + Element.from_path(path, coeff)
    return a


@pytest.mark.parametrize("name", sorted(RING_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_lifo_reference_in_the_calls_ring(name, data):
    """``reduce_full`` against ``lifo_normal_form``, which rewrites with
    PolyScalar arithmetic: the same normal form, and every coefficient of it
    in the call's ring (the system's, which every input here joins)."""
    (_, R), ring, _ = RING_CASES[name]
    a = data.draw(ring_inputs(name))
    got = reduce_full(a, R)
    assert got == lifo_normal_form(a, R)
    want = (R.trunc, R.params) if ring is None else ring
    assert {(c.trunc, c.params) for c in got.terms.values()} <= {want}


@pytest.mark.parametrize("coeff", [
    PolyScalar.rational(1, 2, frozenset({"hbar"})),
    PolyScalar.rational(1, 4, frozenset({"hbar"})),
    PolyScalar.var("hbar", is_param=True, trunc=4),
    PolyScalar.var("hbar", is_param=True),  # no order, but a parameter term
    PolyScalar.rational(1, 3, frozenset({"lam"}))
    + PolyScalar.var("hbar", trunc=3, params=frozenset({"lam"})),  # hbar no param
], ids=["order 2", "order 4", "hbar at order 4", "hbar with no order",
        "hbar an unknown at order 3"])
@pytest.mark.parametrize("word", [("x1", "x2"), ("x2", "x1")], ids=["irreducible", "reducible"])
def test_an_input_outside_the_ring_raises_at_entry(coeff, word):
    """The deformed d=3 commutator system lies at order 3 in hbar: an input
    of another order, or with a parameter term and no order, or using hbar
    as an unknown, meets it in no ring, even on a word no rule rewrites."""
    q, R = SYSTEMS["commutator-3"]
    assert (R.trunc, R.params) == (3, frozenset({"hbar"}))
    with pytest.raises(RingError):
        reduce_full(Element.from_path(q.path(*word), coeff), R)


def test_right_sides_in_two_rings_raise_when_the_system_is_built():
    """A system works in the one ring of its right sides: hbar at orders 2
    and 3, or hbar at order 3 next to hbar with no order, lie in none."""
    q = Quiver(["0"], [("x1", "0", "0"), ("x2", "0", "0")])
    for other in (PolyScalar.var("hbar", is_param=True, trunc=2),
                  PolyScalar.var("hbar", is_param=True)):
        rules = [Rule(q.path("x2", "x1"), Element.from_path(q.path("x1", "x2"), _hbar(3))),
                 Rule(q.path("x2", "x2"), Element.from_path(q.path("x1", "x1"), other))]
        with pytest.raises(RingError):
            ReductionSystem(q, rules)
        assert (ReductionSystem(q, rules[:1]).trunc, ReductionSystem(q, rules[1:]).trunc) == (
            3, other.trunc)


def _split_paths(q: Quiver, record):
    """The validated paths of a rewrite record (head, side, tail) of arrow words."""
    assert all(type(word) is tuple for word in record)
    head, side, tail = record
    s = Path(q, arrows=side)
    return (Path(q, arrows=head) if head else q.trivial(s.source), s,
            Path(q, arrows=tail) if tail else q.trivial(s.target))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=30, deadline=None)
@given(terms=terms, budget=st.integers(1, 40))
def test_rewrite_record_replays_the_normal_form(name, terms, budget):
    """The input plus c*(q*phi_s*r - q*s*r) over the recorded rewrites is the
    normal form; the record changes neither the result nor the raise point.
    Each call gets a fresh copy of the system, so no ranks are shared."""
    q, R = SYSTEMS[name]
    a = _element(R, terms)
    rewrites: list = []
    try:
        got = reduce_full(a, ReductionSystem(q, R.rules), budget, rewrites)
    except BudgetExceeded as exc:
        with pytest.raises(BudgetExceeded) as plain:
            reduce_full(a, ReductionSystem(q, R.rules), budget)
        assert (exc.steps, exc.word, exc.lhs, exc.partial) == (
            plain.value.steps, plain.value.word, plain.value.lhs, plain.value.partial)
        assert len(rewrites) == exc.steps
        return
    assert got == reduce_full(a, ReductionSystem(q, R.rules), budget)
    assert len(rewrites) <= budget
    replay = a
    for record, c in rewrites:
        head, s, tail = _split_paths(q, record)
        step = R.by_lhs[s].rhs - Element.from_path(s)
        replay = replay + (Element.from_path(head) * step
                           * Element.from_path(tail)).scale(c)
    assert replay.truncated(max_trunc(a)) == got


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("trunc", [None, 1])
def test_overlap_record_replays_the_defect(name, trunc):
    """From uvw - uvw, the rewrites that resolve an overlap sum to its
    defect, with the system entered at ``trunc``; passing the record changes
    no defect."""
    q, R = SYSTEMS[name]
    R = R.truncated(trunc)
    for amb in overlaps(R.lhs_set()):
        rewrites: list = []
        defect = resolve_overlap(amb, R, 10_000, rewrites)
        assert defect == resolve_overlap(amb, R, 10_000)
        replay = Element.zero(q)
        for record, c in rewrites:
            head, s, tail = _split_paths(q, record)
            step = R.by_lhs[s].rhs - Element.from_path(s)
            replay = replay + (Element.from_path(head) * step
                               * Element.from_path(tail)).scale(c)
        assert replay.truncated(trunc) == defect


def test_degree_five_star_fits_a_small_budget():
    # LIFO needs 67,800 rewrite steps here; the ordered worklist under 1,000
    q = Quiver(["0"], [("x1", "0", "0"), ("x2", "0", "0")])
    R = ReductionSystem(q, [Rule(q.path("x2", "x1"),
                                 Element.from_path(q.path("x1", "x2")))])
    h = _hbar(3)
    cochain = DeformationCochain(R, {q.path("x2", "x1"):
                                     Element.from_path(q.path("x1", "x1"), h)
                                     + Element.from_path(q.path("x2"), h)},
                                 trunc=3)
    a = Element.from_path(q.path(*["x2"] * 5))
    b = Element.from_path(q.path(*["x1"] * 5))
    out = star(a, b, cochain, budget=2000)
    assert out.truncated(0) == Element.from_path(q.path(*["x1"] * 5, *["x2"] * 5))
    assert max_trunc(out) == 3
    assert len(out.terms) > 1


def test_deep_star_fits_its_rewrite_count():
    # longest-first needed 182,450 rewrite steps here; the ranked worklist 16,269
    q = Quiver(["0"], [(f"x{i}", "0", "0") for i in (1, 2, 3)])
    R = ReductionSystem(q, [Rule(q.path(f"x{j}", f"x{i}"),
                                 Element.from_path(q.path(f"x{i}", f"x{j}")))
                            for j, i in ((2, 1), (3, 1), (3, 2))])
    h = _hbar(4)
    cochain = DeformationCochain(R, {q.path(f"x{j}", f"x{i}"):
                                     Element.from_path(q.path(f"x{k}", f"x{k}"), h)
                                     for j, i, k in ((2, 1, 3), (3, 1, 2), (3, 2, 1))},
                                 trunc=4)
    a = Element.from_path(q.path(*["x3"] * 4, *["x2"] * 4))
    b = Element.from_path(q.path(*["x1"] * 4, "x3", "x2", "x1"))
    out = star(a, b, cochain, budget=20_000)
    assert out.truncated(0) == Element.from_path(q.path(*["x1"] * 5, *["x2"] * 5, *["x3"] * 5))
    assert max_trunc(out) == 4
    assert len(out.terms) > 1


def test_budget_reports_word_and_rule(nf_quiver):
    q, _ = nf_quiver
    R = ReductionSystem(q, [
        Rule(q.path("x", "y1"), Element.from_path(q.path("x", "y2"))),
        Rule(q.path("y2", "z"), Element.from_path(q.path("y1", "z"))),
    ])
    with pytest.raises(BudgetExceeded) as info:
        reduce_full(Element.from_path(q.path("x", "y1", "z")), R, budget=25)
    exc = info.value
    assert exc.steps == 25
    assert exc.word in (q.path("x", "y1", "z"), q.path("x", "y2", "z"))
    assert exc.lhs == rightmost_split(exc.word, R.lhs_set()).s
    assert repr(exc.word) in str(exc) and repr(exc.lhs) in str(exc)
