"""Symbolic Maurer-Cartan equations and PBW deformation varieties.

A generic deformation cochain with one unknown coefficient per admissible
(rule, irreducible-target) pair is pushed through the associativity checks on
overlap words; the coefficients of the resulting defects are polynomial
equations in the unknowns, cutting out the variety of actual deformations.
Degree conditions on the targets guarantee that the symbolic rewriting
terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .quiver_core import (
    AdmissibleOrder,
    Element,
    Mono,
    Path,
    PolyScalar,
    UsageError,
    _mono_key,
    _poly_text,
)
from .reduction_engine import DEFAULT_BUDGET, ReductionSystem
from .star_product import (
    DeformationCochain,
    associator_defects,
    generic_values,
    two_cochain_basis,
)

__all__ = [
    "DegreeCondition",
    "STRICT",
    "WEAK",
    "order_condition",
    "cochain_basis",
    "symbolic_cochain",
    "EquationSet",
    "mc_equations",
    "pbw_check",
]


@dataclass(frozen=True)
class DegreeCondition:
    """Restriction on cochain targets: shorter (<), no longer (<=), or smaller
    under an admissible order (the ``order`` kind)."""

    kind: str  # "strict" | "weak" | "order"
    order: AdmissibleOrder | None = None

    def __post_init__(self):
        if self.kind not in ("strict", "weak", "order"):
            raise UsageError(f"unknown degree condition {self.kind!r}")
        if self.kind == "order" and self.order is None:
            raise UsageError("the order condition needs an AdmissibleOrder")

    def admits(self, s: Path, u: Path) -> bool:
        if self.kind == "strict":
            return len(u) < len(s)
        if self.kind == "weak":
            return len(u) <= len(s)
        return self.order.less(u, s)


STRICT = DegreeCondition("strict")
WEAK = DegreeCondition("weak")


def order_condition(order: AdmissibleOrder) -> DegreeCondition:
    return DegreeCondition("order", order)


def cochain_basis(R: ReductionSystem, cond: DegreeCondition):
    """Admissible pairs (s, u): u irreducible, parallel to s and degree-admissible."""
    if cond.kind == "weak":
        raise UsageError("the weak condition does not guarantee termination; "
                         "use strict or an admissible order")
    max_len = max((len(rule.lhs) for rule in R.rules), default=1)
    if cond.kind == "strict":
        max_len -= 1
    return [(s, u) for s, u in two_cochain_basis(R, max_len)
            if cond.admits(s, u)]


def symbolic_cochain(R: ReductionSystem, basis, names=None):
    """The generic cochain sum(unknown * (s -> u)) over the basis.

    ``names`` is a list of symbol names in the basis order; by default
    unknowns are named c1, c2, ...
    """
    if names is None:
        names = [f"c{i + 1}" for i in range(len(basis))]
    seen = set()
    for name in names:
        if name in seen:
            raise UsageError(f"unknown name {name!r} is given twice")
        seen.add(name)
    n, m = len(names), len(basis)
    if n != m:
        raise UsageError(f"{n} unknown name{'s' * (n != 1)} for {m} basis pair{'s' * (m != 1)}")
    cochain = DeformationCochain(R, generic_values(R, basis, names),
                                 trunc=None, formal=False)
    return cochain, list(names)


@dataclass(frozen=True)
class EquationSet:
    """Canonicalized polynomial equations over Q in the unknowns, as
    ``canonical_set`` builds them: each poly's terms in display order."""

    polys: tuple[PolyScalar, ...]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return "EquationSet(" + ", ".join(repr(p) for p in self.polys) + ")"

    def texts(self) -> list[str]:
        """``repr`` of each poly, read off the terms in their stored order:
        ``canonical_set`` stores them in display order."""
        return [_poly_text(p.terms.items()) for p in self.polys]


def canonical_poly(p: PolyScalar) -> PolyScalar:
    """Clear denominators and content, make the deglex-leading coefficient positive.

    Monomials are compared by total degree, ties broken lexicographically with
    earlier-named unknowns ranked higher.  The work is done in ints: each
    coefficient times the lcm of the denominators, divided by the gcd of those
    products (which is the gcd of the numerators).
    """
    terms = p.terms
    if not terms:
        return PolyScalar.zero()
    denom = lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (denom // c.denominator) for m, c in terms.items()}
    names = sorted({name for m in terms for name, _ in m})
    rank = {name: i for i, name in enumerate(names)}

    def lead_key(m: Mono):
        vec = [0] * len(names)
        for name, e in m:
            vec[rank[name]] = e
        return (sum(vec), tuple(vec))

    g = gcd(*ints.values())
    if ints[max(ints, key=lead_key)] < 0:
        g = -g
    return PolyScalar._exact({m: n // g for m, n in ints.items()}, None, frozenset())


def canonical_set(polys) -> EquationSet:
    """The distinct nonzero canonical polys, ordered by their sorted terms.
    Each poly's terms are stored in display order, so ``texts`` does not sort
    them again."""
    canon = {canonical_poly(p) for p in polys}
    canon.discard(PolyScalar.zero())
    keyed = sorted(sorted((_mono_key(m), c) for m, c in p.terms.items())
                   for p in canon)
    return EquationSet(tuple(PolyScalar._exact({m: c for (_, m), c in terms},
                                               None, frozenset())
                             for terms in keyed))


def mc_equations(R: ReductionSystem, cond: DegreeCondition, names=None,
                 basis=None, budget: int = DEFAULT_BUDGET) -> EquationSet:
    """Defining equations of the variety of actual deformations.

    Every associativity defect on an overlap word is expanded in the path
    basis; the coefficients are polynomials in the unknown cochain
    coefficients and are returned canonicalized.
    """
    if basis is None:
        basis = cochain_basis(R, cond)
    else:
        for s, u in basis:
            if not cond.admits(s, u):
                raise UsageError(f"basis pair ({s!r}, {u!r}) violates the "
                                 "degree condition")
    cochain, _ = symbolic_cochain(R, basis, names)
    polys = [c for _, _, defect in associator_defects(cochain, budget)
             for _, c in defect.sorted_terms()]
    return canonical_set(polys)


def pbw_check(R: ReductionSystem, values: dict[Path, Element],
              budget: int = DEFAULT_BUDGET) -> bool:
    """Whether a numeric strictly-shorter cochain is an actual deformation.

    Requires a homogeneous reduction system (every phi_s term has the same
    length as s) and targets satisfying the strict condition; passes iff all
    overlap defects of the deformed star product vanish.
    """
    for rule in R.rules:
        if any(len(p) != len(rule.lhs) for p in rule.rhs.paths()):
            raise UsageError(f"rule for {rule.lhs!r} is not homogeneous")
    for s, v in values.items():
        for p in v.paths():
            if not STRICT.admits(s, p):
                raise UsageError(f"cochain value {p!r} for {s!r} violates the "
                                 "strict degree condition")
    cochain = DeformationCochain(R, values, trunc=None, formal=False)
    return all(defect.is_zero() for _, _, defect
               in associator_defects(cochain, budget))
