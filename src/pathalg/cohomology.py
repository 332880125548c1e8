"""Second Hochschild cohomology via first-order deformations.

A 2-cochain assigns to every rule left side s an irreducible parallel
element; a 1-cochain does the same for arrows.  Working modulo t^2, the
associativity defects on overlap words are linear in the 2-cochain, and the
gauge action T = id + psi*t linearizes to a map from 1-cochains to
2-cochains.  HH^2 is the kernel of the first map modulo the image of the
second.  Both maps are sums of normal forms of single words taken along
right-most rewrites, and each distinct word is reduced once, with the
undeformed rules; only the part of a coefficient free of parameters enters,
so the parameters of the rules are set to 0 whatever their names.  One
incremental exact elimination (``Echelon``) gives the kernel, the image and
the representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quiver_core import Element, Path, PolyScalar, UsageError, _mono_deg, _mono_mul, _q
from .reduction_engine import (
    DEFAULT_BUDGET,
    ReductionSystem,
    SplitResult,
    overlaps,
    reduce_full,
    resolve_overlap,
)
from .star_product import one_cochain_basis, two_cochain_basis

__all__ = [
    "two_cochain_basis",
    "one_cochain_basis",
    "CocycleSpace",
    "CoboundarySpace",
    "Hh2Result",
    "cocycle_space",
    "coboundary_space",
    "hh2",
]

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


def _order_zero(c: PolyScalar) -> dict:
    """The monomials of c free of parameters: the part of c that survives in
    t*c modulo t^2."""
    return {m: q for m, q in c.terms.items() if not _mono_deg(m, c.params)}


def _first_order_map(R: ReductionSystem, basis, budget: int,
                     normal_forms: dict | None):
    """The kernel of both maps: ``image(rewrites, where)`` sums c * red(q u r)
    over the rewrites (split q s r, c) and the basis vectors j = (s, u), and
    yields ((target, j), entry) for every nonzero entry.

    Only the order-zero part of c counts.  Each distinct word is reduced
    once per ``normal_forms`` memo (a fresh one if None), with the undeformed
    rules at truncation order 1, and only the order-zero part of its normal
    form is kept.  An entry that is not rational raises a usage error naming
    ``where``.
    """
    by_path: dict[Path, list[tuple[int, Path]]] = {}
    for j, (s, u) in enumerate(basis):
        by_path.setdefault(s, []).append((j, u))
    one = PolyScalar.rational(1, trunc=1)
    if normal_forms is None:
        normal_forms = {}  # word -> [(path, order-zero coefficient)]

    def image(rewrites, where: str):
        sums: dict[tuple[Path, int], dict] = {}  # (target, j) -> monomials
        for split, c in rewrites:
            c = _order_zero(c)
            for j, u in (by_path.get(split.s, ()) if c else ()):
                arrows = split.q.arrows + u.arrows + split.r.arrows
                w = Path._trusted(R.quiver, arrows, None) if arrows else u  # u is parallel to s
                if w not in normal_forms:
                    red = reduce_full(Element.from_path(w, one), R, budget)
                    nf = ((p, _order_zero(a)) for p, a in red.terms.items())
                    normal_forms[w] = [(p, a) for p, a in nf if a]
                for target, a in normal_forms[w]:
                    entry = sums.setdefault((target, j), {})
                    for m1, q1 in c.items():
                        for m2, q2 in a.items():
                            m = _mono_mul(m1, m2)
                            entry[m] = entry.get(m, 0) + q1 * q2
        for key, entry in sums.items():
            if any(q for m, q in entry.items() if m):
                raise UsageError(f"{where} has the entry {PolyScalar(entry)}: hh2 "
                                 "needs rational rule coefficients once the "
                                 "parameters are set to 0")
            if entry.get(()):
                yield key, _q(entry[()])

    return image


def cocycle_space(R: ReductionSystem, bound: int | None = None,
                  budget: int = DEFAULT_BUDGET, *,
                  normal_forms: dict | None = None) -> CocycleSpace:
    """Kernel of the linearized defect map on 2-cochains.

    On the overlap uvw, the order-t defect of t*(s -> u) sums c * red(q u r)
    over the rewrites c*(q s r) that resolve the overlap (``resolve_overlap``).
    Rows are keyed by (overlap index, path).  ``normal_forms`` is a word memo
    to share with ``coboundary_space`` on the same R.
    """
    basis = two_cochain_basis(R, bound)
    image = _first_order_map(R, basis, budget, normal_forms)
    rows: dict[tuple[int, Path], list[int | Fraction]] = {}
    for idx, amb in enumerate(overlaps(R.lhs_set()) if basis else ()):
        rewrites: list = []
        resolve_overlap(amb, R, 1, budget, rewrites)
        for (p, j), q in image(rewrites, f"the defect on the overlap {amb.word!r}"):
            rows.setdefault((idx, p), [0] * len(basis))[j] = q
    keys = sorted(rows, key=lambda k: (k[0], k[1].sort_key()))
    matrix = [tuple(rows[k]) for k in keys]
    return CocycleSpace(basis=basis, matrix=matrix,
                        kernel=Echelon(matrix).kernel(len(basis)))


def coboundary_space(R: ReductionSystem, bound: int | None = None,
                     budget: int = DEFAULT_BUDGET, *,
                     normal_forms: dict | None = None) -> CoboundarySpace:
    """Image of the linearized gauge action psi -> phitilde'.

    For a rule s -> phi_s the coboundary of a 1-cochain psi is
    (d psi)(s) = sum over the terms c*p of s - phi_s of
    c * red(sum_i p_{<i} psi(p_i) p_{>i}),
    so the column of the basis vector x -> u sums c * red(w) over the words
    w = p_{<i} u p_{>i} with p_i = x.  When R satisfies the diamond
    condition, red(w) is the product T(x_1) * ... * T(x_m) of the gauge
    T = id + psi*t read at order t.  ``normal_forms`` is as for
    ``cocycle_space``.
    """
    basis2 = two_cochain_basis(R, bound)
    index = {pair: i for i, pair in enumerate(basis2)}
    basis1 = one_cochain_basis(R, bound)
    image = _first_order_map(R, basis1, budget, normal_forms)
    columns = [[0] * len(basis2) for _ in basis1]
    for rule in R.rules:
        s = rule.lhs
        splits = [(SplitResult(p.subword(0, i), p.subword(i, i + 1),
                               p.subword(i + 1, len(p))), c)
                  for p, c in (Element.from_path(s) - rule.rhs).terms.items()
                  for i in range(len(p))]
        for (target, j), q in image(splits, f"the coboundary of the rule for {s!r}"):
            k = index.get((s, target))
            if k is None:
                raise UsageError(f"coboundary target {target!r} outside the "
                                 "capped basis; raise the bound")
            columns[j][k] = q
    columns = [tuple(col) for col in columns]
    return CoboundarySpace(basis=basis2, domain=basis1, columns=columns,
                           image=Echelon(columns).dense_rows(len(basis2)))


def hh2(R: ReductionSystem, bound: int | None = None,
        budget: int = DEFAULT_BUDGET) -> Hh2Result:
    """dim HH^2 = dim(cocycles) - dim(coboundaries), with representatives.

    Representatives are kernel basis vectors completing the coboundary space
    to the cocycle space, chosen greedily in canonical basis order.  Both
    maps share one word memo.
    """
    normal_forms: dict = {}
    cocycles = cocycle_space(R, bound, budget, normal_forms=normal_forms)
    coboundaries = coboundary_space(R, bound, budget, normal_forms=normal_forms)
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
