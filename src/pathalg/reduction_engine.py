"""Reduction systems: right-most rewriting, ambiguities, confluence, completion.

A reduction system is a finite set of rules (s, phi_s) whose left sides are
pairwise non-subword paths of length >= 2.  Rewriting replaces the right-most
occurrence of a left side and iterates to a normal form; confluence is checked
on overlap ambiguities and a Buchberger-style completion builds a confluent
system from uniform relations.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .quiver_core import (
    AdmissibleOrder,
    Element,
    Path,
    PolyScalar,
    Quiver,
    UsageError,
    compose,
)

__all__ = [
    "Rule",
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


def _is_subword(small: tuple, big: tuple) -> bool:
    n = len(small)
    return any(big[i:i + n] == small for i in range(len(big) - n + 1))


class ReductionSystem:
    def __init__(self, quiver: Quiver, rules: list[Rule], validate: bool = True):
        self.quiver = quiver
        self.rules = list(rules)
        self.by_lhs: dict[Path, Rule] = {}
        for rule in self.rules:
            if rule.lhs in self.by_lhs:
                raise UsageError(f"duplicate rule for {rule.lhs!r}")
            self.by_lhs[rule.lhs] = rule
        # each right side as (lowest parameter degree, path, coefficient) terms
        # sorted by degree, so that rewriting stops before a term over the trunc
        self.graded = {r.lhs: sorted(((c.min_param_degree(), p, c) for p, c in r.rhs.terms.items()),
                                     key=lambda term: term[0]) for r in self.rules}
        # word -> (rank, right-most split), filled by reduce_full (see _rank)
        self.ranks: dict[Path, tuple[int, SplitResult | None]] = {}
        if validate:
            words = [r.lhs.arrows for r in self.rules]
            for i, w in enumerate(words):
                for j, w2 in enumerate(words):
                    if i != j and _is_subword(w, w2):
                        raise UsageError(
                            f"left side {self.rules[i].lhs!r} is a subpath of {self.rules[j].lhs!r}")
            S = self.lhs_set()
            for rule in self.rules:
                for p in rule.rhs.terms:
                    if not is_irreducible(p, S):
                        raise UsageError(f"rule {rule.lhs!r}: right side term {p!r} is reducible")

    def lhs_set(self) -> list[Path]:
        return [r.lhs for r in self.rules]

    def __repr__(self):
        return f"ReductionSystem({len(self.rules)} rules)"


def is_irreducible(p: Path, S: list[Path]) -> bool:
    """True iff no contiguous subword of p is a rule left side."""
    if p.is_trivial:
        return True
    w = p.arrows
    return not any(_is_subword(s.arrows, w) for s in S)


def rightmost_split(p: Path, S: list[Path]) -> SplitResult | None:
    """The right-most occurrence of an S-word inside p, or None."""
    if p.is_trivial:
        return None
    w = p.arrows
    best: tuple[int, Path] | None = None
    for s in S:
        n = len(s)
        for i in range(len(w) - n, -1, -1):
            if w[i:i + n] == s.arrows:
                if best is None or i > best[0]:
                    best = (i, s)
                break
    if best is None:
        return None
    i, s = best
    j = i + len(s)
    quiver = p.quiver
    q = Path._trusted(quiver, w[:i], None) if i else Path._trusted(quiver, (), p.source)
    r = (Path._trusted(quiver, w[j:], None) if j < len(w)
         else Path._trusted(quiver, (), p.target))
    return SplitResult(q, s, r)


def _splice(quiver, split: SplitResult, m: Path) -> Path:
    """q * m * r, unvalidated: every rhs term is parallel to the left side it replaces."""
    arrows = split.q.arrows + m.arrows + split.r.arrows
    if arrows:
        return Path._trusted(quiver, arrows, None)
    return Path._trusted(quiver, (), split.q.vertex)


def _replacement_terms(quiver, split: SplitResult, rhs: list, c: PolyScalar):
    """Terms of q * rhs * r scaled by c.

    ``rhs`` is graded (``ReductionSystem.graded``): the walk stops at the
    first term whose lowest parameter degree exceeds c.trunc - low(c).
    """
    room = math.inf if c.trunc is None else c.trunc - c.min_param_degree()
    for low, m, cm in rhs:
        if low > room:
            break
        coeff = cm * c
        if not coeff.is_zero():
            yield _splice(quiver, split, m), coeff


def _rank(p: Path, R: ReductionSystem, S: list[Path], limit: int):
    """Rank p and, until ``R.ranks`` and the walk hold ``limit`` words, every
    unranked word its degree-0 rule terms reach, in depth-first post-order: ranks
    fall along every rewrite that keeps the parameter degree.  A word on the
    walk's stack closes a cycle and is skipped."""
    ranks = R.ranks
    stack = []  # (word, its split, iterator over its degree-0 replacements)
    on_stack: set[Path] = set()

    def enter(w: Path):
        split = rightmost_split(w, S)
        kids = []
        if split is not None and len(ranks) + len(stack) < limit:
            kids = [_splice(w.quiver, split, m) for low, m, _ in R.graded[split.s] if low == 0]
        stack.append((w, split, iter(kids)))
        on_stack.add(w)

    enter(p)
    while stack:
        w, split, kids = stack[-1]
        for u in kids:
            if u not in ranks and u not in on_stack:
                enter(u)
                break
        else:
            stack.pop()
            on_stack.discard(w)
            ranks[w] = (len(ranks), split)
    return ranks[p]


def reduce_full(a: Element, R: ReductionSystem, budget: int = DEFAULT_BUDGET) -> Element:
    """Iterate right-most reductions to the normal form (or raise BudgetExceeded).

    Reducible words wait in ``pending`` with their lowest parameter degree,
    and a heap hands them out lowest degree first and, within a degree, by
    descending rank (``_rank``).  Degree-0 rule terms lead to lower ranks and
    the other terms to higher degrees, so when the degree-0 rules terminate,
    every (word, degree) state is rewritten once, after all its mass has
    arrived.  The normal form is linear in the pending terms, so it does not
    depend on this order whenever rewriting terminates.  ``budget`` bounds the
    number of rewrite steps; the ranking walk goes deep for at most ``budget``
    new words per call, so a growing system still ends in BudgetExceeded.
    """
    if budget <= 0:
        raise UsageError("budget must be positive")
    S = R.lhs_set()
    quiver = a.quiver
    ranks = R.ranks
    limit = len(ranks) + budget
    done: dict[Path, PolyScalar] = {}
    pending: dict[Path, tuple[PolyScalar, int]] = {}  # word -> (coefficient, level)
    heap: list[tuple[int, int, int, Path]] = []  # (level, -rank, arrival tick, word)
    tick = itertools.count()

    def add(p: Path, c: PolyScalar):
        if p in pending:
            c = pending[p][0] + c
            if c.is_zero():
                del pending[p]  # its heap entries are skipped when popped
                return
            level = c.min_param_degree()
            if level != pending[p][1]:
                heapq.heappush(heap, (level, -ranks[p][0], next(tick), p))
            pending[p] = (c, level)
        elif p in done:
            c = done[p] + c
            if c.is_zero():
                del done[p]
            else:
                done[p] = c
        else:
            rank, split = ranks.get(p) or _rank(p, R, S, limit)
            if split is None:
                done[p] = c
            else:
                level = c.min_param_degree()
                pending[p] = (c, level)
                heapq.heappush(heap, (level, -rank, next(tick), p))

    for p, c in a.terms.items():
        add(p, c)
    steps = 0
    while heap:
        level, _, _, p = heapq.heappop(heap)
        entry = pending.get(p)
        if entry is None or entry[1] != level:
            continue  # stale: the word was rewritten or its level changed
        del pending[p]
        c, split = entry[0], ranks[p][1]
        steps += 1
        if steps > budget:
            rest = {w: cw for w, (cw, _) in pending.items()}
            partial = Element(quiver, done) + Element(quiver, rest) + Element(quiver, {p: c})
            raise BudgetExceeded(partial, steps - 1, p, split.s)
        for q, cq in _replacement_terms(quiver, split, R.graded[split.s], c):
            add(q, cq)
    return Element(quiver, done)


# ---------------------------------------------------------------------------
# Ambiguities
# ---------------------------------------------------------------------------

def overlaps(S: list[Path]) -> list[Ambiguity]:
    """All overlap words uvw with uv and vw both in S, deterministically ordered."""
    out = []
    seen = set()
    for s1 in S:
        for s2 in S:
            w1, w2 = s1.arrows, s2.arrows
            # nonempty proper suffix of s1 equal to a nonempty proper prefix of s2
            for k in range(1, min(len(w1), len(w2))):
                if w1[len(w1) - k:] == w2[:k]:
                    word = Path(s1.quiver, arrows=w1 + w2[k:])
                    u = word.subword(0, len(w1) - k)
                    v = word.subword(len(w1) - k, len(w1))
                    w = word.subword(len(w1), len(word))
                    key = (word.arrows, len(u), len(v), len(w))
                    if key not in seen:
                        seen.add(key)
                        out.append(Ambiguity(word, (u, v, w)))
    out.sort(key=lambda amb: (amb.word.sort_key(), tuple(len(f) for f in amb.factors)))
    return out


def ambiguities_n(S: list[Path], n: int) -> list[Ambiguity]:
    """The chain ambiguities on n+2 factors (n=0 returns S itself).

    An ambiguity is a word u0 u1 ... u_{n+1} where u0 is a single arrow, each
    u_i is irreducible, each product u_i u_{i+1} is reducible, and u_i d is
    irreducible for every proper left subpath d of u_{i+1}.
    """
    if n < 0:
        raise UsageError("n must be >= 0")
    if not S:
        return []
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
                u_next = Path(quiver, arrows=sw[k:])
                # last * d is irreducible for every proper left subpath d of
                # u_next iff it is for the longest one: subwords of an
                # irreducible path are irreducible
                if (is_irreducible(u_next, S)
                        and is_irreducible(Path(quiver, arrows=w + sw[k:-1]), S)):
                    stack.append(chain + [u_next])
    out.sort(key=lambda amb: (amb.word.sort_key(), tuple(len(f) for f in amb.factors)))
    return out


def irreducible_paths(S: list[Path], quiver: Quiver, max_len: int | None = None,
                      safety_cap: int = 100_000) -> list[Path]:
    """All irreducible paths of length <= max_len (None = all, if finite).

    Every subpath of an irreducible path is irreducible, so the enumeration
    stops as soon as some length has no irreducible paths.  An unbounded
    request on an infinite basis raises a usage error once an irreducible
    path of length L-1+V exists (L the longest left side, V the number of
    irreducible paths of length L-1): the last L-1 arrows decide which arrow
    may follow, so such a path repeats a state and can be pumped.
    """
    if max_len is not None and max_len < 0:
        raise UsageError("max_len must be >= 0")
    out: list[Path] = list(quiver.idempotents())
    layer: list[Path] = list(out)
    length = 0
    span = max([len(s) for s in S] + [1]) - 1
    states = len(layer) if span == 0 else None
    while max_len is None or length < max_len:
        nxt = []
        for p in layer:
            for a in quiver.arrows_from(p.target):
                q = compose(p, quiver.path(a))
                if q is not None and is_irreducible(q, S):
                    nxt.append(q)
        if not nxt:
            break
        out.extend(nxt)
        layer = nxt
        length += 1
        if length == span:
            states = len(layer)
        if max_len is None and (len(out) > safety_cap or (
                states is not None and length >= span + states)):
            raise UsageError("cannot certify a finite irreducible basis; pass max_len")
    out.sort(key=lambda p: p.sort_key())
    return out


# ---------------------------------------------------------------------------
# Diamond check and completion
# ---------------------------------------------------------------------------

def resolve_overlap(amb: Ambiguity, R: ReductionSystem, trunc: int | None = None,
                    budget: int = DEFAULT_BUDGET) -> Element:
    """red(phi_uv * w) - red(u * phi_vw) on the overlap uvw, each product cut
    at ``trunc``.  phi_uv and phi_vw are the normal forms of uv and vw (right
    sides are irreducible), so on a deformed system this is the associator
    (u*v)*w - u*(v*w) of the star product; the diamond condition is its
    vanishing at phitilde = 0."""
    u, v, w = amb.factors
    left = (R.by_lhs[compose(u, v)].rhs * Element.from_path(w)).truncated(trunc)
    right = (Element.from_path(u) * R.by_lhs[compose(v, w)].rhs).truncated(trunc)
    return reduce_full(left, R, budget) - reduce_full(right, R, budget)


def check_diamond(R: ReductionSystem, budget: int = DEFAULT_BUDGET) -> DiamondReport:
    """Resolve every overlap ambiguity both ways and compare normal forms."""
    report = DiamondReport()
    for amb in overlaps(R.lhs_set()):
        try:
            diff = resolve_overlap(amb, R, budget=budget)
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
