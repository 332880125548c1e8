"""The combinatorial star product, Maurer-Cartan checks and gauge verification.

The star product of two normal forms is computed by multiplying them in the
path algebra and rewriting with the deformed rules s -> phi_s + phitilde_s.
The strata are read off a second system s -> phi_s + z*phitilde_s, built only
when ``star_k`` asks for it, where z is an internal bookkeeping symbol
counting how often the deformation part was used: the coefficient of z^k is
the k-th stratum, and setting z = 1 gives the full product.  A cochain
carries its reduction system, so every product and check here takes only the
cochain.  The Maurer-Cartan defects are the overlap resolutions of the
deformed system (``resolve_overlap``), the same kernel as the diamond check.

The cochain bases live here too, for HH^2 (``cohomology``) and the
Maurer-Cartan variety (``variety``), and so does the generic cochain that the
variety equations are read off: one unknown per basis vector of the 2-cochains
on the left sides with values in parallel irreducible paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .quiver_core import Element, Path, PolyScalar, UsageError
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
    "Z_SYMBOL",
    "two_cochain_basis",
    "one_cochain_basis",
    "generic_values",
    "DeformationCochain",
    "GaugeOnArrows",
    "McReport",
    "star",
    "star_k",
    "associator_defects",
    "mc_check",
    "gauge_check",
]

Z_SYMBOL = "_z"  # reserved internal bookkeeping symbol


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


class DeformationCochain:
    """A map s -> phitilde_s on the rule left sides, with truncation order.

    Values must be parallel to s and irreducible.  In the formal setting every
    term must lie in the maximal ideal (strictly positive parameter degree);
    pass ``formal=False`` for the algebraized regime where termination comes
    from a degree condition instead of truncation.
    """

    def __init__(self, system: ReductionSystem, values: dict[Path, Element],
                 trunc: int | None = 4, formal: bool = True):
        self.system = system
        self.trunc = trunc
        self.formal = formal
        S = system.lhs_set()
        vals: dict[Path, Element] = {}
        for s, v in values.items():
            if s not in system.by_lhs:
                raise UsageError(f"{s!r} is not a rule left side")
            for p, c in v.terms.items():
                if (p.source, p.target) != (s.source, s.target):
                    raise UsageError(f"cochain value for {s!r} not parallel: {p!r}")
                if not is_irreducible(p, S):
                    raise UsageError(f"cochain value for {s!r} has reducible term {p!r}")
                if Z_SYMBOL in c.symbols():
                    raise UsageError(f"symbol {Z_SYMBOL!r} is reserved")
                if formal and c.min_param_degree() < 1:
                    raise UsageError(
                        f"cochain value for {s!r} has a parameter-degree-0 term")
            v = v.truncated(trunc)
            if not v.is_zero():
                vals[s] = v
        self.values = vals
        if formal and trunc is None:
            raise UsageError("formal deformations need a finite truncation order")
        self._deformed = self._build_deformed()
        self._tagged: ReductionSystem | None = None  # built by star_k

    def value(self, s: Path) -> Element:
        return self.values.get(s, Element.zero(self.system.quiver))

    def _build_deformed(self, tag: PolyScalar | None = None) -> ReductionSystem:
        """The rules s -> phi_s + phitilde_s, each value scaled by ``tag`` if given."""
        rules = []
        for rule in self.system.rules:
            value = self.value(rule.lhs)
            rhs = rule.rhs + (value if tag is None else value.scale(tag))
            rules.append(Rule(rule.lhs, rhs))
        # the base system's sides and right sides, plus values checked in __init__
        return ReductionSystem(self.system.quiver, rules, validate=False)

    def __repr__(self):
        return f"DeformationCochain({len(self.values)} values, trunc={self.trunc})"


class GaugeOnArrows:
    """psi: arrows -> elements of positive parameter degree; T(x) = x + psi(x)."""

    def __init__(self, system: ReductionSystem, values: dict[Path, Element],
                 trunc: int | None = 4):
        self.system = system
        self.trunc = trunc
        S = system.lhs_set()
        vals: dict[Path, Element] = {}
        for x, v in values.items():
            if len(x) != 1:
                raise UsageError(f"gauge values are indexed by arrows, got {x!r}")
            for p, c in v.terms.items():
                if (p.source, p.target) != (x.source, x.target):
                    raise UsageError(f"gauge value for {x!r} not parallel: {p!r}")
                if not is_irreducible(p, S):
                    raise UsageError(f"gauge value for {x!r} has reducible term {p!r}")
                if c.min_param_degree() < 1:
                    raise UsageError(f"gauge value for {x!r} has a parameter-degree-0 term")
            if not v.is_zero():
                vals[x] = v.truncated(trunc)
        self.values = vals

    def t_of_arrow(self, x: Path) -> Element:
        return Element.from_path(x) + self.values.get(x, Element.zero(self.system.quiver))


def star(a: Element, b: Element, cochain: DeformationCochain,
         budget: int = DEFAULT_BUDGET) -> Element:
    """a * b followed by deformed reduction to normal form, all strata summed."""
    prod = (a * b).truncated(cochain.trunc)
    return reduce_full(prod, cochain._deformed, budget)


def star_k(a: Element, b: Element, cochain: DeformationCochain, k: int,
           budget: int = DEFAULT_BUDGET) -> Element:
    """The stratum of the star product using the deformation part exactly k times."""
    if k < 0:
        raise UsageError("k must be >= 0")
    if cochain._tagged is None:
        cochain._tagged = cochain._build_deformed(PolyScalar.var(Z_SYMBOL))
    prod = (a * b).truncated(cochain.trunc)
    red = reduce_full(prod, cochain._tagged, budget)
    return red.coefficient_of(Z_SYMBOL, k).truncated(cochain.trunc)


@dataclass
class McReport:
    defects: list[tuple[Path, Element]] = field(default_factory=list)

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
        yield idx, amb.word, resolve_overlap(amb, D, cochain.trunc, budget)


def mc_check(cochain: DeformationCochain, budget: int = DEFAULT_BUDGET) -> McReport:
    """Associativity of the star product on every overlap word uvw."""
    return McReport([(word, defect) for _, word, defect
                     in associator_defects(cochain, budget)])


def _t_of_element(a: Element, psi: GaugeOnArrows, cochain: DeformationCochain,
                  budget: int) -> Element:
    """Extend T(x) = x + psi(x) multiplicatively (via star) and linearly."""
    quiver = a.quiver
    out = Element.zero(quiver)
    for p, c in a.terms.items():
        if p.is_trivial:
            term = Element.from_path(p)
        else:
            term = psi.t_of_arrow(p.subword(0, 1))
            for i in range(1, len(p)):
                term = star(term, psi.t_of_arrow(p.subword(i, i + 1)), cochain, budget)
        out = out + term.scale(c)
    return out.truncated(cochain.trunc)


def gauge_check(psi: GaugeOnArrows, cochain: DeformationCochain,
                cochain_prime: DeformationCochain,
                budget: int = DEFAULT_BUDGET) -> bool:
    """Verify that T = id + psi carries the primed deformation to the unprimed one.

    For every rule left side s = x1...xm this checks
    T(phi_s + phitilde'_s) = red_deformed(T(x1) ... T(xm)) up to the truncation
    order, with T extended multiplicatively through the unprimed star product.
    """
    trunc = cochain.trunc
    for rule in cochain.system.rules:
        s = rule.lhs
        lhs_arg = rule.rhs + cochain_prime.value(s)
        lhs = _t_of_element(lhs_arg, psi, cochain, budget)
        prod = psi.t_of_arrow(s.subword(0, 1))
        for i in range(1, len(s)):
            prod = prod * psi.t_of_arrow(s.subword(i, i + 1))
        red = reduce_full(prod.truncated(trunc), cochain._deformed, budget)
        if not (lhs - red).truncated(trunc).is_zero():
            return False
    return True
