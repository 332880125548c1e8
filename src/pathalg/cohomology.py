"""Second Hochschild cohomology via first-order deformations.

A 2-cochain assigns to every rule left side s an irreducible parallel
element; a 1-cochain does the same for arrows.  Working modulo t^2, the
associativity defects on overlap words are linear in the 2-cochain, and the
gauge action T = id + psi*t linearizes to a map from 1-cochains to
2-cochains.  HH^2 is the kernel of the first map modulo the image of the
second.  Each map is read off one pass with a generic cochain, one unknown
per basis vector times t, and one incremental exact elimination
(``Echelon``) gives the kernel, the image and the representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quiver_core import Element, Path, PolyScalar, UsageError, _q
from .reduction_engine import DEFAULT_BUDGET, ReductionSystem
from .star_product import (
    DeformationCochain,
    GaugeOnArrows,
    _t_of_element,
    associator_defects,
    generic_values,
    one_cochain_basis,
    two_cochain_basis,
)

__all__ = [
    "T_SYMBOL",
    "two_cochain_basis",
    "one_cochain_basis",
    "CocycleSpace",
    "CoboundarySpace",
    "Hh2Result",
    "cocycle_space",
    "coboundary_space",
    "hh2",
]

T_SYMBOL = "t"  # first-order deformation parameter


# ---------------------------------------------------------------------------
# exact linear algebra over Q


class Echelon:
    """A reduced row echelon basis over Q, grown one vector at a time.

    ``rows`` maps each pivot column to its row {column: value}.  A row is 1 at
    its pivot, 0 at every other pivot and 0 left of its pivot, so the rows
    are the (unique) reduced row echelon form of the vectors absorbed so far.
    Entries are ints or Fractions; the one division goes through ``Fraction``,
    so int input never yields a float.
    """

    def __init__(self, vectors=()):
        self.rows: dict[int, dict[int, int | Fraction]] = {}
        for vec in vectors:
            self.absorb(vec)

    def absorb(self, vec) -> bool:
        """Add a dense vector to the span; False if it already lay in it."""
        v = {j: c for j, c in enumerate(vec) if c}
        for pivot, row in self.rows.items():
            if pivot in v:
                _axpy(v, -v[pivot], row)
        if not v:
            return False
        pivot = min(v)
        new = {j: _q(Fraction(c, v[pivot])) for j, c in v.items()}
        for row in self.rows.values():
            if pivot in row:
                _axpy(row, -row[pivot], new)
        self.rows[pivot] = new
        return True

    def dense_rows(self, ncols: int) -> list[tuple[int | Fraction, ...]]:
        """The rows as dense tuples, in pivot order."""
        return [tuple(row.get(j, 0) for j in range(ncols))
                for _, row in sorted(self.rows.items())]

    def kernel(self, ncols: int) -> list[tuple[int | Fraction, ...]]:
        """Basis of the null space, one vector per free column."""
        basis = []
        for j in range(ncols):
            if j in self.rows:
                continue
            vec = [0] * ncols
            vec[j] = 1
            for pivot, row in self.rows.items():
                vec[pivot] = -row.get(j, 0)
            basis.append(tuple(vec))
        return basis


def _axpy(v: dict[int, int | Fraction], f: int | Fraction,
          row: dict[int, int | Fraction]):
    """v += f * row in place, dropping entries that cancel."""
    for j, a in row.items():
        c = v.get(j, 0) + f * a
        if c:
            v[j] = c
        else:
            v.pop(j, None)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleSpace:
    basis: list[tuple[Path, Path]]
    matrix: list[tuple[int | Fraction, ...]]  # rows of the linearized defect map
    kernel: list[tuple[int | Fraction, ...]]


@dataclass(frozen=True)
class CoboundarySpace:
    basis: list[tuple[Path, Path]]       # 2-cochain coordinates
    domain: list[tuple[Path, Path]]      # 1-cochain basis
    columns: list[tuple[int | Fraction, ...]]  # image of each 1-cochain basis vector
    image: list[tuple[int | Fraction, ...]]    # row-reduced basis of the image


@dataclass(frozen=True)
class Hh2Result:
    dimension: int
    basis: list[tuple[Path, Path]]
    representatives: list[dict[Path, Element]]


def _generic_values(R: ReductionSystem, basis, prefix: str):
    """The generic cochain sum_i t*prefix[i]*(s_i -> u_i), and its unknowns.

    A problem file cannot declare a symbol with brackets, so the unknowns
    never meet a symbol of the rules.
    """
    t = PolyScalar.var(T_SYMBOL, is_param=True, trunc=1)
    unknowns = {f"{prefix}[{i}]": i for i in range(len(basis))}
    return generic_values(R, basis, unknowns, t), unknowns


def _columns_at(first_order: Element, unknowns: dict[str, int]):
    """Yield (path, column entries) of a generic pass read at order t.

    The coefficient of the i-th unknown is column i.  A constant comes from
    t in the rules, not from the cochain, so it belongs to every column; any
    other monomial is not a rational coordinate.
    """
    for p, c in first_order.terms.items():
        const, entries = 0, {}
        for m, q in c.terms.items():
            if not m:
                const = q
            elif len(m) == 1 and m[0][1] == 1 and m[0][0] in unknowns:
                entries[unknowns[m[0][0]]] = q
            else:
                raise UsageError(f"not a rational constant: {c}")
        yield p, tuple(const + entries.get(j, 0) for j in range(len(unknowns)))


def cocycle_space(R: ReductionSystem, bound: int | None = None,
                  budget: int = DEFAULT_BUDGET) -> CocycleSpace:
    """Kernel of the linearized defect map on 2-cochains.

    The map is the order-t part of the associator defects of one generic
    cochain; the coefficient of its i-th unknown is column i.
    """
    basis = two_cochain_basis(R, bound)
    rows: dict[tuple[int, Path], tuple[int | Fraction, ...]] = {}
    if basis:
        values, unknowns = _generic_values(R, basis, "c")
        cochain = DeformationCochain(R, values, trunc=1)
        for idx, _, defect in associator_defects(cochain, budget):
            for p, row in _columns_at(defect.coefficient_of(T_SYMBOL, 1), unknowns):
                rows[(idx, p)] = row
    keys = sorted(rows, key=lambda k: (k[0], k[1].sort_key()))
    matrix = [rows[k] for k in keys if any(rows[k])]
    return CocycleSpace(basis=basis, matrix=matrix,
                        kernel=Echelon(matrix).kernel(len(basis)))


def coboundary_space(R: ReductionSystem, bound: int | None = None,
                     budget: int = DEFAULT_BUDGET) -> CoboundarySpace:
    """Image of the linearized gauge action psi -> phitilde'.

    For T = id + psi*t and the undeformed star product the identity
    T(phi_s) + phitilde'(s)*t = T(s_1) * ... * T(s_m)  (mod t^2)
    determines phitilde' uniquely.  One generic psi gives it for every
    1-cochain basis vector at once: the coefficient of its j-th unknown is
    column j.
    """
    basis2 = two_cochain_basis(R, bound)
    index = {pair: i for i, pair in enumerate(basis2)}
    basis1 = one_cochain_basis(R, bound)
    columns = [[0] * len(basis2) for _ in basis1]
    if basis1:
        zero = DeformationCochain(R, {}, trunc=1)
        values, unknowns = _generic_values(R, basis1, "b")
        psi = GaugeOnArrows(R, values, trunc=1)
        for rule in R.rules:
            s = rule.lhs
            induced = _t_of_element(Element.from_path(s) - rule.rhs, psi, zero, budget)
            for p, entries in _columns_at(induced.coefficient_of(T_SYMBOL, 1), unknowns):
                if (s, p) not in index:
                    if any(entries):
                        raise UsageError(
                            f"coboundary target {p!r} outside the capped basis; "
                            "raise the bound")
                    continue
                for col, c in zip(columns, entries):
                    col[index[(s, p)]] = c
    columns = [tuple(col) for col in columns]
    return CoboundarySpace(basis=basis2, domain=basis1, columns=columns,
                           image=Echelon(columns).dense_rows(len(basis2)))


def hh2(R: ReductionSystem, bound: int | None = None,
        budget: int = DEFAULT_BUDGET) -> Hh2Result:
    """dim HH^2 = dim(cocycles) - dim(coboundaries), with representatives.

    Representatives are kernel basis vectors completing the coboundary space
    to the cocycle space, chosen greedily in canonical basis order.
    """
    cocycles = cocycle_space(R, bound, budget)
    coboundaries = coboundary_space(R, bound, budget)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cocycles.matrix]
    for vec in coboundaries.image:
        if any(sum(a * vec[j] for j, a in row if vec[j]) for row in rows):
            raise RuntimeError("coboundary is not a cocycle: d^2 != 0 at first order")
    dim = len(cocycles.kernel) - len(coboundaries.image)
    span = Echelon(coboundaries.image)
    reps: list[tuple[int | Fraction, ...]] = []
    for vec in cocycles.kernel:
        if len(reps) == dim:
            break
        if span.absorb(vec):
            reps.append(vec)
    representatives = []
    for vec in reps:
        values: dict[Path, Element] = {}
        for coeff, (s, u) in zip(vec, cocycles.basis):
            if coeff != 0:
                term = Element.from_path(u, PolyScalar.rational(coeff))
                values[s] = values.get(s, Element.zero(R.quiver)) + term
        representatives.append(values)
    return Hh2Result(dimension=dim, basis=cocycles.basis,
                     representatives=representatives)
