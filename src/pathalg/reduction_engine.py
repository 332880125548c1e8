"""Reduction systems: right-most rewriting, ambiguities, confluence, completion.

A reduction system is a finite set of rules (s, phi_s) whose left sides are
pairwise non-subword paths of length >= 2.  Rewriting replaces the right-most
occurrence of a left side and iterates to a normal form; confluence is checked
on overlap ambiguities and a Buchberger-style completion builds a confluent
system from uniform relations.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .quiver_core import (
    AdmissibleOrder,
    Element,
    Path,
    PolyScalar,
    Quiver,
    UsageError,
    _mono_deg,
    _mono_mul,
    _plus,
    _ring,
)

__all__ = [
    "Rule",
    "LeftSides",
    "ReductionSystem",
    "SplitResult",
    "Ambiguity",
    "DiamondReport",
    "BudgetExceeded",
    "CompletionError",
    "is_irreducible",
    "rightmost_split",
    "reduce_full",
    "overlaps",
    "ambiguities_n",
    "irreducible_paths",
    "resolve_overlap",
    "check_diamond",
    "complete",
]

DEFAULT_BUDGET = 10**6
INTERREDUCE_ROUNDS = 1000  # passes before inter-reduction counts as diverging


class BudgetExceeded(RuntimeError):
    """Reduction budget ran out; carries the partially reduced element.

    ``word`` is the path that was about to be rewritten and ``lhs`` the left
    side of the rule that would have fired (both None when unknown).
    """

    def __init__(self, partial: Element, steps: int, word: Path | None = None,
                 lhs: Path | None = None):
        where = "" if word is None else f" rewriting {word!r} by the rule for {lhs!r}"
        super().__init__(f"reduction budget exceeded after {steps} steps{where}")
        self.partial = partial
        self.steps = steps
        self.word = word
        self.lhs = lhs


class CompletionError(RuntimeError):
    """Completion gave up; carries the outstanding overlap words."""

    def __init__(self, message: str, outstanding: list[Path]):
        super().__init__(message)
        self.outstanding = outstanding


@dataclass(frozen=True)
class Rule:
    lhs: Path
    rhs: Element

    def __post_init__(self):
        if len(self.lhs) < 2:
            raise UsageError(f"rule left side must have length >= 2: {self.lhs!r}")
        for p in self.rhs.terms:
            if (p.source, p.target) != (self.lhs.source, self.lhs.target):
                raise UsageError(f"rule {self.lhs!r}: right side not parallel ({p!r})")


@dataclass(frozen=True)
class SplitResult:
    q: Path
    s: Path
    r: Path


@dataclass(frozen=True)
class Ambiguity:
    """An overlap word with its factorization witness.

    For plain overlaps the factors are (u, v, w) with uv, vw both left sides;
    in general they are the chain decomposition (u0, ..., u_{n+1}).
    """

    word: Path
    factors: tuple[Path, ...]


@dataclass
class DiamondReport:
    # status strings: "resolved", "failed" (carries the defect), "budget"
    statuses: list[tuple[Ambiguity, str, Element | None]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if any(st == "budget" for _, st, _ in self.statuses):
            return "inconclusive"
        if any(st == "failed" for _, st, _ in self.statuses):
            return "fail"
        return "pass"


class LeftSides(tuple):
    """The left sides of a reduction system, indexed for subword questions.

    A tuple of the sides in rule order, plus ``by_word`` (arrow word -> side)
    and ``lengths`` (the distinct side lengths, ascending): whether some side
    occurs at a position is one dict lookup per length, not a scan of all
    sides.
    """

    def __new__(cls, sides):
        self = super().__new__(cls, sides)
        self.by_word = {}
        for s in self:
            self.by_word.setdefault(s.arrows, s)
        self.lengths = tuple(sorted({len(s) for s in self}))
        return self


def _indexed(S: Sequence[Path]) -> LeftSides:
    """S itself if it is already indexed, else its index (built once per call)."""
    return S if isinstance(S, LeftSides) else LeftSides(S)


def _windows(w: tuple, lengths):
    """Every contiguous subword of w whose length is in ``lengths``."""
    return (w[i:i + n] for n in lengths for i in range(len(w) - n + 1))


def _graded(p: Path, c: PolyScalar, params: frozenset[str]):
    """The right-side term c*p as (lowest parameter degree, arrow word, path,
    rational, pairs, terms): a c with no symbol is the rational, any other
    comes as pairs (monomial, parameter degree, rational) sorted by degree
    and as its terms {monomial: rational}."""
    if len(c.terms) == 1 and () in c.terms:  # a rational
        return 0, p.arrows, p, c.terms[()], (), None
    terms = sorted(((m, _mono_deg(m, params), q) for m, q in c.terms.items()),
                   key=lambda term: term[1])
    return terms[0][1], p.arrows, p, None, tuple(terms), c.terms


class ReductionSystem:
    def __init__(self, quiver: Quiver, rules: list[Rule], validate: bool = True):
        self.quiver = quiver
        self.rules = list(rules)
        self.by_lhs: dict[Path, Rule] = {}
        for rule in self.rules:
            if rule.lhs in self.by_lhs:
                raise UsageError(f"duplicate rule for {rule.lhs!r}")
            self.by_lhs[rule.lhs] = rule
        self._sides = LeftSides(rule.lhs for rule in self.rules)
        # the one ring the right sides lie in: its order (None: exact) and params
        self.trunc, self.params = _ring([c for r in self.rules for c in r.rhs.terms.values()])
        # each right side as _graded terms sorted by degree, so that rewriting
        # stops before a term over the trunc; the path keys the word of length
        # 0 that a trivial term makes of the side
        self.graded = {r.lhs: sorted((_graded(p, c, self.params)
                                      for p, c in r.rhs.terms.items()),
                                     key=lambda term: term[0]) for r in self.rules}
        # monomial -> parameter degree: the right sides', and the products'
        # that reduce_full makes in this ring
        self.degs = {(): 0, **{m: deg for ts in self.graded.values()
                               for t in ts for m, deg, _ in t[4]}}
        # word -> (rank, right-most split (i, j, side) or None), filled by reduce_full
        self.ranks: dict = {}
        # bound -> sorted irreducible paths up to it, filled by star_product
        self.bases: dict[int | None, list[Path]] = {}
        if validate:
            S = self._sides
            position = {s.arrows: i for i, s in enumerate(S)}
            pairs = [(position[x], j) for j, s in enumerate(S)
                     for x in _windows(s.arrows, S.lengths) if position.get(x, j) != j]
            if pairs:
                i, j = min(pairs)
                raise UsageError(f"left side {S[i]!r} is a subpath of {S[j]!r}")
            for rule in self.rules:
                for p in rule.rhs.terms:
                    if not is_irreducible(p, S):
                        raise UsageError(f"rule {rule.lhs!r}: right side term {p!r} is reducible")

    def lhs_set(self) -> LeftSides:
        return self._sides

    def truncated(self, n: int | None) -> "ReductionSystem":
        """The system with its right sides entered at order n: itself when
        that cuts nothing."""
        rules = [Rule(r.lhs, r.rhs.truncated(n)) for r in self.rules]
        same = all(new.rhs is r.rhs for new, r in zip(rules, self.rules))
        return self if same else ReductionSystem(self.quiver, rules, validate=False)

    def __repr__(self):
        return f"ReductionSystem({len(self.rules)} rules)"


def is_irreducible(p: Path, S: Sequence[Path]) -> bool:
    """True iff no contiguous subword of p is a rule left side."""
    return _scan(p.arrows, _indexed(S)) is None


def _scan(w, S: LeftSides):
    """The right-most side w[i:j] in the arrow word w as (i, j, side), or None
    (always for a trivial path, which the engine keys words of length 0 by).

    Start positions are tried from the right, and at each one the side
    lengths shortest first: no left side of a validated system is a prefix
    of another, so at most one side starts at a position (in a plain list
    where one is, the shorter side is taken).
    """
    by_word, lengths = S.by_word, S.lengths
    for i in range(len(w) - 1, -1, -1):
        for n in lengths:
            j = i + n
            if j > len(w):
                break
            s = by_word.get(w[i:j])
            if s is not None:
                return i, j, s
    return None


def rightmost_split(p: Path, S: Sequence[Path]) -> SplitResult | None:
    """The right-most occurrence of an S-word inside p, or None (``_scan``)."""
    w = p.arrows
    found = _scan(w, _indexed(S))
    if found is None:
        return None
    i, j, s = found
    return SplitResult(Path._trusted(p.quiver, w[:i], None if i else s.source), s,
                       Path._trusted(p.quiver, w[j:], None if j < len(w) else s.target))


def _path(quiver: Quiver, w) -> Path:
    """The path of an engine key (an arrow tuple, or a trivial path)."""
    return Path._trusted(quiver, w, None) if type(w) is tuple else w


def _rank(w, R: ReductionSystem, S: LeftSides, limit: int):
    """Rank the word w and, until ``R.ranks`` and the walk hold ``limit`` words,
    every unranked word its degree-0 rule terms reach, in depth-first
    post-order: ranks fall along every rewrite that keeps the parameter
    degree.  A word on the walk's stack closes a cycle and is skipped."""
    ranks, graded = R.ranks, R.graded
    stack = []  # (word, its split, iterator over its degree-0 replacements)
    on_stack = set()

    def enter(w):
        split = _scan(w, S)
        kids = ()
        if split is not None and len(ranks) + len(stack) < limit:
            i, j, s = split
            kids = [w[:i] + t[1] + w[j:] or t[2] for t in graded[s] if t[0] == 0]
        stack.append((w, split, iter(kids)))
        on_stack.add(w)

    enter(w)
    while stack:
        u, split, kids = stack[-1]
        for v in kids:
            if v not in ranks and v not in on_stack:
                enter(v)
                break
        else:
            stack.pop()
            on_stack.discard(u)
            ranks[u] = (len(ranks), split)
    return ranks[w]


def reduce_full(a: Element, R: ReductionSystem, budget: int = DEFAULT_BUDGET,
                rewrites: list | None = None) -> Element:
    """Iterate right-most reductions to the normal form (or raise BudgetExceeded).

    The element's terms go through ``_reduce_words`` keyed by their arrow
    words (a trivial path by itself), and the normal words come back as paths.
    """
    done = _reduce_words({p.arrows or p: c for p, c in a.terms.items()}, R, budget, rewrites)
    return Element(a.quiver, {_path(a.quiver, w): c for w, c in done.items()})


def _reduce_words(terms: dict, R: ReductionSystem, budget: int,
                  rewrites: list | None = None) -> dict:
    """The normal form of ``terms``, {word: PolyScalar}, as the same dict.

    A word is its arrow tuple here, or its trivial path if it has length 0 (a
    rule term that empties the word); paths are built only for
    BudgetExceeded.  The call works in one ring: R's, if every input joins it
    (``PolyScalar._joins``), else the one ring of R's right sides and the
    inputs (``_ring``, which raises ``RingError`` here if there is none).
    Inside, a coefficient is a plain {monomial: rational} dict, the parameter
    degree of each monomial is worked out once per system and ring
    (``R.degs``), and PolyScalars are built only for the results, the rewrite
    records and BudgetExceeded, all in the call's ring.  Reducible words wait in
    ``pending`` with their lowest parameter degree, and a heap hands them out
    lowest degree first and, within a degree, by descending rank (``_rank``).
    Degree-0 rule terms lead to lower ranks and the other terms to higher
    degrees, so when the degree-0 rules terminate, every (word, degree) state
    is rewritten once, after all its mass has arrived.  The normal form is
    linear in the pending terms, so it does not depend on this order whenever
    rewriting terminates.  ``budget`` bounds the number of rewrite steps; the
    ranking walk goes deep for at most ``budget`` new words per call, so a
    growing system still ends in BudgetExceeded.  Each rewrite
    c*(q s r) -> c*q*phi_s*r made is appended to ``rewrites``, if given, as
    ((q, s, r), c): three arrow words whose concatenation is the rewritten
    word, s the left side's.
    """
    if budget <= 0:
        raise UsageError("budget must be positive")
    S = R.lhs_set()
    quiver = R.quiver
    ranks, graded = R.ranks, R.graded
    tr, ps = R.trunc, R.params
    if not all(c.trunc == tr and c.params == ps or c._joins(tr, ps) for c in terms.values()):
        tr, ps = _ring([x for r in R.rules for x in r.rhs.terms.values()] + list(terms.values()))
    top = math.inf if tr is None else tr
    limit = len(ranks) + budget
    # monomial -> its parameter degree in the call's ring: the right sides'
    # are the same in it as in R's
    degs = R.degs if ps == R.params else dict(R.degs)
    done: dict = {}  # word -> {monomial: rational}
    pending: dict = {}  # word -> ({monomial: rational}, level)
    heap: list = []  # (level, -rank, word): ranks are unique, so no word is ever ordered

    def add(w, c: dict, level: int):
        """Add the terms c, of lowest parameter degree ``level``, at w."""
        entry = pending.get(w)
        if entry is not None:
            c = _plus(entry[0], c)
            if not c:
                del pending[w]  # its heap entries are skipped when popped
                return
            level = min(map(degs.__getitem__, c))
            if level != entry[1]:
                heapq.heappush(heap, (level, -ranks[w][0], w))
            pending[w] = (c, level)
        elif w in done:
            c = _plus(done[w], c)
            if c:
                done[w] = c
            else:
                del done[w]
        else:
            rank, split = ranks.get(w) or _rank(w, R, S, limit)
            if split is None:
                done[w] = c
            else:
                pending[w] = (c, level)
                heapq.heappush(heap, (level, -rank, w))

    for w, c in terms.items():
        c = c.terms
        for m in c:
            if m not in degs:
                degs[m] = _mono_deg(m, ps)
        if c:
            add(w, c, 0 if () in c else min(map(degs.__getitem__, c)))
    steps = 0
    while heap:
        level, _, w = heapq.heappop(heap)
        entry = pending.get(w)
        if entry is None or entry[1] != level:
            continue  # stale: the word was rewritten or its level changed
        del pending[w]
        c = entry[0]
        i, j, s = ranks[w][1]
        steps += 1
        if steps > budget:
            rest = {**done, **{u: cu for u, (cu, _) in pending.items()}, w: c}
            partial = Element(quiver, {_path(quiver, u): PolyScalar._exact(cu, tr, ps)
                                       for u, cu in rest.items()})
            raise BudgetExceeded(partial, steps - 1, _path(quiver, w), s)
        head, tail = w[:i], w[j:]
        if rewrites is not None:
            rewrites.append(((head, s.arrows, tail), PolyScalar._exact(c, tr, ps)))
        # c * head * phi_s * tail; the graded terms stop at the first whose
        # lowest parameter degree exceeds the ring's order less the level
        room = top - level
        unit = len(c) == 1 and c.get(()) == 1
        for low, m, p, q, pairs, whole in graded[s]:
            if low > room:
                break
            if q is not None:  # a rational: c scaled, at c's level
                add(head + m + tail or p, c if q == 1 else {u: v * q for u, v in c.items()},
                    level)
                continue
            if unit:  # 1 times the coefficient, which lies in the ring
                add(head + m + tail or p, whole, low)
                continue
            # pair two monomials only if their parameter degrees sum to at most
            # the order; the lowest terms always pair, and Q[symbols] is a
            # domain, so the product is nonzero at level + low
            d: dict = {}
            for m1, q1 in c.items():
                d1 = degs[m1]
                for m2, d2, q2 in pairs:
                    if d1 + d2 > top:
                        break
                    u = _mono_mul(m1, m2)
                    degs[u] = d1 + d2
                    v = d.get(u, 0) + q1 * q2
                    if v:
                        d[u] = v
                    else:
                        del d[u]
            add(head + m + tail or p, d, level + low)
    return {w: PolyScalar._exact(c, tr, ps) for w, c in done.items()}


# ---------------------------------------------------------------------------
# Ambiguities
# ---------------------------------------------------------------------------

def overlaps(S: Sequence[Path]) -> list[Ambiguity]:
    """All overlap words uvw with uv and vw both in S, deterministically ordered."""
    out = []
    seen = set()
    for s1 in S:
        for s2 in S:
            w1, w2 = s1.arrows, s2.arrows
            # nonempty proper suffix of s1 equal to a nonempty proper prefix of s2
            for k in range(1, min(len(w1), len(w2))):
                if w1[len(w1) - k:] == w2[:k]:
                    # u, v, w are nonempty and the word composes, since s1 and s2 do
                    key = (w1 + w2[k:], len(w1) - k, k, len(w2) - k)
                    if key not in seen:
                        seen.add(key)
                        u, v, w = (Path._trusted(s1.quiver, x, None)
                                   for x in (w1[:-k], w1[-k:], w2[k:]))
                        word = Path._trusted(s1.quiver, key[0], None)
                        out.append(Ambiguity(word, (u, v, w)))
    out.sort(key=lambda amb: (amb.word.sort_key(), tuple(len(f) for f in amb.factors)))
    return out


def ambiguities_n(S: Sequence[Path], n: int) -> list[Ambiguity]:
    """The chain ambiguities on n+2 factors (n=0 returns S itself).

    An ambiguity is a word u0 u1 ... u_{n+1} where u0 is a single arrow, each
    u_i is irreducible, each product u_i u_{i+1} is reducible, and u_i d is
    irreducible for every proper left subpath d of u_{i+1}.
    """
    if n < 0:
        raise UsageError("n must be >= 0")
    if not S:
        return []
    S = _indexed(S)
    quiver = S[0].quiver
    out: list[Ambiguity] = []
    seen = set()
    # depth-first over partial chains with an explicit stack: chains can be
    # as long as n + 2 factors, far beyond the interpreter's recursion limit;
    # for n = 0 the chains (first arrow, rest) of S are already complete
    stack = ([[s.subword(0, 1), s.subword(1, len(s))] for s in S] if n == 0
             else [[quiver.path(arrow)] for arrow, _, _ in quiver.arrows])
    while stack:
        chain = stack.pop()
        if len(chain) == n + 2:
            word = Path(quiver, arrows=tuple(a for piece in chain for a in piece.arrows))
            key = (word.arrows, tuple(len(c) for c in chain))
            if key not in seen:
                seen.add(key)
                out.append(Ambiguity(word, tuple(chain)))
            continue
        last = chain[-1]
        w = last.arrows
        for s in S:
            sw = s.arrows
            # s = (nonempty suffix of last) + u_next with u_next nonempty
            for k in range(1, min(len(w), len(sw) - 1) + 1):
                if w[len(w) - k:] != sw[:k]:
                    continue
                # last * d is irreducible for every proper left subpath d of
                # u_next = sw[k:] iff it is for the longest one: subwords of an
                # irreducible path are irreducible
                if _scan(sw[k:], S) is None and _scan(w + sw[k:-1], S) is None:
                    stack.append(chain + [Path._trusted(quiver, sw[k:], None)])
    out.sort(key=lambda amb: (amb.word.sort_key(), tuple(len(f) for f in amb.factors)))
    return out


def irreducible_paths(S: Sequence[Path], quiver: Quiver, max_len: int | None = None,
                      safety_cap: int = 100_000) -> list[Path]:
    """All irreducible paths of length <= max_len (None = all, if finite).

    Every subpath of an irreducible path is irreducible, so the enumeration
    stops as soon as some length has no irreducible paths.  An unbounded
    request raises a usage error once the irreducible paths of length L-1
    (L the longest left side) are known, if they show the basis infinite
    (``_pumpable``), or once more than ``safety_cap`` paths are found; the
    message says whether the basis was already shown finite.
    """
    if max_len is not None and max_len < 0:
        raise UsageError("max_len must be >= 0")
    S = _indexed(S)
    out: list[Path] = list(quiver.idempotents())
    layer: list[Path] = list(out)
    length = 0
    span = max(S.lengths, default=1) - 1
    while max_len is None or length < max_len:
        if max_len is None and length == span and _pumpable(layer, quiver, S):
            raise UsageError("cannot certify a finite irreducible basis; pass max_len")
        nxt = [Path._trusted(quiver, w, None) for p in layer
               for w in _extensions(p, quiver, S)]
        if not nxt:
            break
        out.extend(nxt)
        layer = nxt
        length += 1
        if max_len is None and len(out) > safety_cap:
            known = "is finite but has" if length > span else "has"
            raise UsageError(f"the irreducible basis {known} more than "
                             f"{safety_cap:,} paths; pass max_len")
    out.sort(key=lambda p: p.sort_key())
    return out


def _extensions(p: Path, quiver: Quiver, S: LeftSides):
    """The arrow words p*a that are irreducible, for an irreducible path p:
    those that no side is a suffix of (w[-n:] is all of w when n > len(w),
    a suffix all the same)."""
    for a in quiver.arrows_from(p.target):
        w = p.arrows + (a,)
        if not any(w[-n:] in S.by_word for n in S.lengths):
            yield w


def _pumpable(states: list[Path], quiver: Quiver, S: LeftSides) -> bool:
    """Whether the irreducible paths of length L-1 (``states``, L the longest
    left side; vertices when there is no side) admit irreducible paths of
    every length.

    The last L-1 arrows of an irreducible path decide which arrows may follow
    it, so its extensions walk a graph on these states, with an edge p -> q
    when q is the tail of an irreducible p*a.  The paths are infinite iff the
    graph has a cycle, which Kahn's topological sort finds in
    O(states x arrows).
    """
    # state (its arrows, or its vertex) -> the states that follow it
    succ = {p.arrows or p.vertex: [w[1:] or quiver.target(w[-1])
                                   for w in _extensions(p, quiver, S)]
            for p in states}
    indegree = Counter(q for qs in succ.values() for q in qs)
    ready = [p for p in succ if not indegree[p]]
    for p in ready:  # the list grows while it is walked
        for q in succ[p]:
            indegree[q] -= 1
            if not indegree[q]:
                ready.append(q)
    return len(ready) < len(succ)


# ---------------------------------------------------------------------------
# Diamond check and completion
# ---------------------------------------------------------------------------

def resolve_overlap(amb: Ambiguity, R: ReductionSystem, budget: int = DEFAULT_BUDGET,
                    rewrites: list | None = None) -> Element:
    """red(phi_uv * w) - red(u * phi_vw) on the overlap uvw, in the ring of
    R's right sides.  phi_uv and phi_vw are the normal forms of uv and vw (right
    sides are irreducible), so on a deformed system this is the associator
    (u*v)*w - u*(v*w) of the star product; the diamond condition is its
    vanishing at phitilde = 0.  ``rewrites``, if given, receives the rewrites
    that resolve the overlap in the format of ``reduce_full``: uvw by uv with
    1 and by vw with -1, as ((), uv, w) and (u, vw, ()), then those of
    ``reduce_full`` on each side, the right side negated."""
    u, v, w = amb.factors
    by_word = R.lhs_set().by_word
    uv, vw = by_word[u.arrows + v.arrows], by_word[v.arrows + w.arrows]
    left = R.by_lhs[uv].rhs * Element.from_path(w)
    right = Element.from_path(u) * R.by_lhs[vw].rhs
    if rewrites is not None:
        one = PolyScalar.rational(1)
        rewrites += [(((), uv.arrows, w.arrows), one),
                     ((u.arrows, vw.arrows, ()), -one)]
    return reduce_full(left, R, budget, rewrites) + reduce_full(-right, R, budget, rewrites)


def check_diamond(R: ReductionSystem, budget: int = DEFAULT_BUDGET) -> DiamondReport:
    """Resolve every overlap ambiguity both ways and compare normal forms."""
    report = DiamondReport()
    for amb in overlaps(R.lhs_set()):
        try:
            diff = resolve_overlap(amb, R, budget)
        except BudgetExceeded:
            report.statuses.append((amb, "budget", None))
            continue
        if diff.is_zero():
            report.statuses.append((amb, "resolved", None))
        else:
            report.statuses.append((amb, "failed", diff))
    return report


def _tip(f: Element, order: AdmissibleOrder) -> Path:
    """The largest path of a relation (each is sorted by it); its coefficient must be rational."""
    tip = max(f.terms, key=order.key)
    if not f.terms[tip].is_rational():
        raise UsageError("completion requires rational leading coefficients")
    return tip


def _orient(f: Element, order: AdmissibleOrder) -> Rule:
    """Orient a uniform relation by its tip, normalized to leading coefficient 1."""
    tip = _tip(f, order)
    if len(tip) < 2:
        raise UsageError(f"relation with tip of length < 2: {tip!r}")
    c = f.terms[tip]
    rest = Element(f.quiver, {p: cc for p, cc in f.terms.items() if p != tip})
    return Rule(tip, (-rest).scale(PolyScalar.rational(Fraction(1) / c.as_rational())))


def _interreduce(relations: list[Element], order: AdmissibleOrder,
                 budget: int) -> list[Element]:
    """Reduce each relation by the rules of those before it, in ascending
    order of tips, until a round changes nothing.

    A larger tip never applies to a relation: it is longer than every path of
    the relation, or has the same length and differs from each one.  Two
    relations with one tip merge: the earlier one's rule rewrites the later tip.
    """
    rels = [r for r in relations if not r.is_zero()]
    for _ in range(INTERREDUCE_ROUNDS):
        rels.sort(key=lambda r: order.key(_tip(r, order)))
        reduced: list[Element] = []
        rules: list[Rule] = []
        for r in rels:
            rr = (reduce_full(r, ReductionSystem(r.quiver, rules, validate=False), budget)
                  if rules else r)
            if not rr.is_zero():
                reduced.append(rr)
                rules.append(_orient(rr, order))
        if reduced == rels:
            return rels
        rels = reduced
    raise CompletionError("inter-reduction did not stabilize", [])


def complete(generators: list[Element], order: AdmissibleOrder,
             max_rounds: int = 50, budget: int = DEFAULT_BUDGET) -> ReductionSystem:
    """Buchberger-style completion of uniform relations into a confluent system.

    The result is the reduced Gröbner basis of the ideal for the order, which
    is unique: the order in which relations are processed never shows in it.
    """
    quiver = order.quiver
    for g in generators:
        if not g.is_uniform():
            raise UsageError("completion generators must be uniform (parallel paths)")
    relations = generators
    report = DiamondReport()
    for _ in range(max_rounds):
        relations = _interreduce(relations, order, budget)
        system = ReductionSystem(quiver, [_orient(r, order) for r in relations])
        report = check_diamond(system, budget)
        if report.verdict == "pass":
            return system
        if report.verdict == "inconclusive":
            raise BudgetExceeded(Element.zero(quiver), budget)
        relations += [defect for _, status, defect in report.statuses if status == "failed"]
    outstanding = [amb.word for amb, st, _ in report.statuses if st != "resolved"]
    raise CompletionError("completion did not converge", outstanding)
