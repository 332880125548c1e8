"""The combinatorial star product, Maurer-Cartan checks and gauge verification.

The star product of two normal forms is computed by multiplying them in the
path algebra and rewriting with the deformed rules s -> phi_s + phitilde_s.
``star_k`` reads the strata off the star product of the cochain with every
value scaled by z, a symbol no input uses, counting how often the deformation
part was used: the coefficient of z^k is the k-th stratum.  A cochain
carries its reduction system, so every product and check here takes only the
cochain.  The Maurer-Cartan defects are the overlap resolutions of the
deformed system (``resolve_overlap``), the same kernel as the diamond check.

The cochain bases live here too, for HH^2 (``cohomology``) and the
Maurer-Cartan variety (``variety``), and so does the generic cochain that the
variety equations are read off: one unknown per basis vector of the 2-cochains
on the left sides with values in parallel irreducible paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver_core import Element, Path, PolyScalar, UsageError, lowest_order
from .reduction_engine import (
    DEFAULT_BUDGET,
    ReductionSystem,
    Rule,
    irreducible_paths,
    is_irreducible,
    overlaps,
    reduce_full,
    resolve_overlap,
)

__all__ = [
    "two_cochain_basis",
    "one_cochain_basis",
    "generic_values",
    "DeformationCochain",
    "GaugeOnArrows",
    "DefectReport",
    "star",
    "star_k",
    "associator_defects",
    "mc_check",
    "gauge_check",
]

def _parallel_pairs(R: ReductionSystem, bound: int | None, sides):
    """Pairs (s, u): each path s of ``sides`` with every parallel irreducible
    u of length at most ``bound``, in the order of sides, then of u."""
    if bound not in R.bases:
        R.bases[bound] = irreducible_paths(R.lhs_set(), R.quiver, max_len=bound)
    grouped: dict[tuple[str, str], list[Path]] = {}
    for u in R.bases[bound]:
        grouped.setdefault((u.source, u.target), []).append(u)
    return [(s, u) for s in sides for u in grouped.get((s.source, s.target), ())]


def two_cochain_basis(R: ReductionSystem, bound: int | None = None):
    """Ordered basis (s, u): rule left sides paired with parallel irreducibles."""
    return _parallel_pairs(R, bound, [rule.lhs for rule in R.rules])


def one_cochain_basis(R: ReductionSystem, bound: int | None = None):
    """Ordered basis (x, u): arrows paired with parallel irreducibles."""
    return _parallel_pairs(R, bound, [R.quiver.path(name)
                                      for name in R.quiver.arrow_names()])


def generic_values(R: ReductionSystem, basis, names) -> dict[Path, Element]:
    """The values of the generic cochain sum_i names[i]*(s_i -> u_i)."""
    terms: dict[Path, dict[Path, PolyScalar]] = {}
    for name, (s, u) in zip(names, basis):
        c = PolyScalar.var(name)
        value = terms.setdefault(s, {})
        value[u] = value[u] + c if u in value else c
    return {s: Element(R.quiver, value) for s, value in terms.items()}


def _check_value(kind: str, key: Path, v: Element, system: ReductionSystem, positive: bool):
    """Check that every term of the value at ``key`` is parallel to it and
    irreducible, and of positive parameter degree if ``positive``."""
    for p, c in v.terms.items():
        if (p.source, p.target) != (key.source, key.target):
            raise UsageError(f"{kind} value for {key!r} not parallel: {p!r}")
        if not is_irreducible(p, system.lhs_set()):
            raise UsageError(f"{kind} value for {key!r} has reducible term {p!r}")
        if positive and c.min_param_degree() < 1:
            raise UsageError(f"{kind} value for {key!r} has a parameter-degree-0 term")


class DeformationCochain:
    """A map s -> phitilde_s on the rule left sides, with truncation order.

    Values must be parallel to s and irreducible.  In the formal setting every
    term must lie in the maximal ideal (strictly positive parameter degree);
    pass ``formal=False`` for the algebraized regime where termination comes
    from a degree condition instead of truncation.  Its order is the lowest of
    ``trunc`` and those of the values and rules, which are entered at it.
    """

    def __init__(self, system: ReductionSystem, values: dict[Path, Element],
                 trunc: int | None = 4, formal: bool = True):
        self.system = system
        self.trunc = lowest_order(trunc, system.trunc, *(v.order() for v in values.values()))
        self.formal = formal
        vals: dict[Path, Element] = {}
        for s, v in values.items():
            if s not in system.by_lhs:
                raise UsageError(f"{s!r} is not a rule left side")
            _check_value("cochain", s, v, system, formal)
            v = v.truncated(self.trunc)
            if not v.is_zero():
                vals[s] = v
        self.values = vals
        if formal and trunc is None:
            raise UsageError("formal deformations need a finite truncation order")
        # the rules s -> phi_s + phitilde_s at the cochain's order: the base
        # system's sides and right sides, plus values checked above
        self._deformed = ReductionSystem(system.quiver, [
            Rule(rule.lhs, rule.rhs.truncated(self.trunc) + self.value(rule.lhs))
            for rule in system.rules], validate=False)

    def value(self, s: Path) -> Element:
        return self.values.get(s, Element.zero(self.system.quiver))

    def truncated(self, n: int | None) -> "DeformationCochain":
        """The cochain entered at order n: itself when that cuts nothing."""
        if n is None or self.trunc is not None and n >= self.trunc:
            return self
        return DeformationCochain(self.system, self.values, n, self.formal)

    def __repr__(self):
        return f"DeformationCochain({len(self.values)} values, trunc={self.trunc})"


class GaugeOnArrows:
    """psi: arrows -> elements of positive parameter degree; T(x) = x + psi(x).
    ``gauge_check`` enters the values at the cochain's order."""

    def __init__(self, system: ReductionSystem, values: dict[Path, Element]):
        self.system = system
        vals: dict[Path, Element] = {}
        for x, v in values.items():
            if len(x) != 1:
                raise UsageError(f"gauge values are indexed by arrows, got {x!r}")
            _check_value("gauge", x, v, system, True)
            if not v.is_zero():
                vals[x] = v
        self.values = vals

    def t_of_arrow(self, x: Path) -> Element:
        return Element.from_path(x) + self.values.get(x, Element.zero(self.system.quiver))


def _entered(cochain: DeformationCochain, trunc: int | None, *factors: Element):
    """(cochain, *factors) entered at the lowest of their orders and trunc."""
    n = lowest_order(trunc, cochain.trunc, *(a.order() for a in factors))
    return cochain.truncated(n), *(a.truncated(n) for a in factors)


def star(a: Element, b: Element, cochain: DeformationCochain,
         budget: int = DEFAULT_BUDGET) -> Element:
    """a * b followed by deformed reduction to normal form, all strata summed."""
    cochain, a, b = _entered(cochain, None, a, b)
    return reduce_full(a * b, cochain._deformed, budget)


def star_k(a: Element, b: Element, cochain: DeformationCochain, k: int,
           budget: int = DEFAULT_BUDGET) -> Element:
    """The stratum of the star product using the deformation part exactly k
    times: the coefficient of z^k in a*b starred with every value scaled by z,
    z the first of _z, _z_, _z__, ... that no coefficient of the inputs uses."""
    if k < 0:
        raise UsageError("k must be >= 0")
    scalars = [c for e in (a, b, *cochain.values.values(), *(r.rhs for r in cochain.system.rules))
               for c in e.terms.values()]
    used = {n for c in scalars for m in c.terms for n, _ in m}.union(*(c.params for c in scalars))
    z = "_z"
    while z in used:
        z += "_"
    values = {s: v.scale(PolyScalar.var(z)) for s, v in cochain.values.items()}
    tagged = DeformationCochain(cochain.system, values, cochain.trunc, cochain.formal)
    return star(a, b, tagged, budget).coefficient_of(z, k)


@dataclass
class DefectReport:
    """Named defects, such as (overlap word, associator); all zero is a pass."""

    defects: list[tuple[object, Element]]

    @property
    def verdict(self) -> bool:
        return all(d.is_zero() for _, d in self.defects)


def associator_defects(cochain: DeformationCochain, budget: int = DEFAULT_BUDGET):
    """Yield (overlap index, word, (u*v)*w - u*(v*w)) for every overlap uvw.

    The one associator kernel behind the Maurer-Cartan checks and the
    variety equations: ``resolve_overlap`` on the deformed
    system, whose right sides are the star products u*v and v*w.  It is
    lazy, so a caller that stops at the first nonzero defect does no further
    reductions.
    """
    D = cochain._deformed
    for idx, amb in enumerate(overlaps(D.lhs_set())):
        yield idx, amb.word, resolve_overlap(amb, D, budget)


def mc_check(cochain: DeformationCochain, budget: int = DEFAULT_BUDGET) -> DefectReport:
    """Associativity of the star product on every overlap word uvw."""
    return DefectReport([(word, defect) for _, word, defect
                         in associator_defects(cochain, budget)])


def _t_of_element(a: Element, psi: GaugeOnArrows, cochain: DeformationCochain,
                  budget: int) -> Element:
    """Extend T(x) = x + psi(x), at the cochain's order, multiplicatively (via
    star) and linearly."""
    out = Element.zero(a.quiver)
    for p, c in a.truncated(cochain.trunc).terms.items():
        if p.is_trivial:
            term = Element.from_path(p)
        else:
            term = psi.t_of_arrow(p.subword(0, 1)).truncated(cochain.trunc)
            for i in range(1, len(p)):
                term = star(term, psi.t_of_arrow(p.subword(i, i + 1)), cochain, budget)
        out = out + term.scale(c)
    return out


def gauge_check(psi: GaugeOnArrows, cochain: DeformationCochain,
                cochain_prime: DeformationCochain,
                budget: int = DEFAULT_BUDGET) -> bool:
    """Verify that T = id + psi carries the primed deformation to the unprimed one.

    For every rule left side s = x1...xm this checks
    T(phi_s + phitilde'_s) = red_deformed(T(x1) ... T(xm)) up to the truncation
    order, with T extended multiplicatively through the unprimed star product.
    T and the primed right sides are entered at the cochain's order.
    """
    primed = cochain_prime.truncated(cochain.trunc)._deformed
    for rule in cochain.system.rules:
        s = rule.lhs
        lhs = _t_of_element(primed.by_lhs[s].rhs, psi, cochain, budget)
        prod = psi.t_of_arrow(s.subword(0, 1))
        for i in range(1, len(s)):
            prod = prod * psi.t_of_arrow(s.subword(i, i + 1))
        red = reduce_full(prod.truncated(cochain.trunc), cochain._deformed, budget)
        if not (lhs - red).is_zero():
            return False
    return True
