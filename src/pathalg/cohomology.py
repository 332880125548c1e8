"""Second Hochschild cohomology via first-order deformations.

A 2-cochain assigns to every rule left side s an irreducible parallel
element; a 1-cochain does the same for arrows.  Working modulo t^2, the
associativity defects on overlap words are linear in the 2-cochain, and the
gauge action T = id + psi*t linearizes to a map from 1-cochains to
2-cochains.  HH^2 is the kernel of the first map modulo the image of the
second.  Both maps are sums of normal forms of single words taken along
right-most rewrites, and each distinct word is reduced once, with the
undeformed rules entered at order 0: the parameters of the rules are set to 0
whatever their names (a parameter times a cochain term lies past t).  One
incremental exact elimination (``Echelon``) gives the kernel, the image and
the representatives.  Every vector is a ``Vector``: a {column: value} dict
that stores no zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quiver_core import Element, Path, PolyScalar, UsageError, _mono_mul, _q
from .reduction_engine import (
    DEFAULT_BUDGET,
    ReductionSystem,
    _path,
    _reduce_words,
    overlaps,
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

Vector = dict[int, int | Fraction]


class Echelon:
    """A reduced row echelon basis over Q, grown one vector at a time.

    ``rows`` maps each pivot column to its row, a ``Vector``.  A row is 1 at
    its pivot, 0 at every other pivot and 0 left of its pivot, so the rows
    are the (unique) reduced row echelon form of the vectors absorbed so far.
    ``holders`` maps each column to the pivots of the rows that hold it, so
    back-substitution visits only the rows it changes.  Entries are ints or
    Fractions; the one division goes through ``Fraction``, so int input never
    yields a float.
    """

    def __init__(self, vectors=()):
        self.rows: dict[int, Vector] = {}
        self.holders: dict[int, set[int]] = {}
        for vec in vectors:
            self.absorb(vec)

    def absorb(self, vec: Vector) -> bool:
        """Add a vector {column: value} to the span; False if it already lay
        in it.  Only the pivots the vector holds are eliminated: a row is 0
        at every other pivot, so no elimination brings in a new one."""
        v = dict(vec)
        for pivot in [j for j in v if j in self.rows]:
            _axpy(v, -v[pivot], self.rows[pivot])
        if not v:
            return False
        pivot = min(v)
        new = {j: _q(Fraction(c, v[pivot])) for j, c in v.items()}
        holders = self.holders
        for r in holders.pop(pivot, ()):
            row = self.rows[r]
            f = -row[pivot]
            for j, a in new.items():
                c = row.get(j, 0) + f * a
                if c:
                    if j not in row:
                        holders.setdefault(j, set()).add(r)
                    row[j] = c
                else:
                    del row[j]
                    if j != pivot:  # the pivot's own holders are popped
                        holders[j].remove(r)
                        if not holders[j]:
                            del holders[j]
        self.rows[pivot] = new
        for j in new:
            holders.setdefault(j, set()).add(pivot)
        return True

    def kernel(self, ncols: int) -> list[Vector]:
        """Basis of the null space, one vector per free column j: 1 at j and
        -row[j] at each pivot whose row holds j."""
        basis = {j: {j: 1} for j in range(ncols) if j not in self.rows}
        for pivot, row in self.rows.items():
            for j, a in row.items():
                if j != pivot:
                    basis[j][pivot] = -a
        return list(basis.values())


def _axpy(v: Vector, f: int | Fraction, row: Vector):
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
    matrix: list[Vector]  # rows of the linearized defect map
    kernel: list[Vector]


@dataclass(frozen=True)
class CoboundarySpace:
    basis: list[tuple[Path, Path]]       # 2-cochain coordinates
    domain: list[tuple[Path, Path]]      # 1-cochain basis
    columns: list[Vector]  # image of each 1-cochain basis vector
    image: list[Vector]    # row-reduced basis of the image


@dataclass(frozen=True)
class Hh2Result:
    dimension: int
    basis: list[tuple[Path, Path]]
    representatives: list[dict[Path, Element]]


def _first_order_map(R: ReductionSystem, basis, budget: int,
                     normal_forms: dict | None):
    """The kernel of both maps: ``image(rewrites, where)`` sums c * red(q u r)
    over the rewrites ((q, s, r), c), in the arrow-word format of
    ``reduce_full``, and the basis vectors j = (s, u), and yields
    ((target, j), entry) for every nonzero entry.

    R is entered at order 0 by the callers, so no coefficient holds a
    parameter.  Each distinct word is reduced once per ``normal_forms`` memo
    (a fresh one if None), straight by the engine's ``_reduce_words`` and
    keyed as there: by arrow word, or by the trivial path u for a word of
    length 0.  An entry that is not rational raises a usage error naming
    ``where``.
    """
    by_side: dict[tuple, list[tuple[int, Path]]] = {}
    for j, (s, u) in enumerate(basis):
        by_side.setdefault(s.arrows, []).append((j, u))
    if normal_forms is None:
        normal_forms = {}  # word -> [(path, coefficient terms)]
    one = PolyScalar.rational(1)

    def image(rewrites, where: str):
        sums: dict[tuple[Path, int], dict] = {}  # (target, j) -> monomials
        for (head, side, tail), c in rewrites:
            for j, u in by_side.get(side, ()):
                w = head + u.arrows + tail or u  # u is parallel to the side
                if w not in normal_forms:
                    red = _reduce_words({w: one}, R, budget)
                    normal_forms[w] = [(_path(R.quiver, v), a.terms) for v, a in red.items()]
                for target, a in normal_forms[w]:
                    entry = sums.setdefault((target, j), {})
                    for m1, q1 in c.terms.items():
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
    to share with ``coboundary_space`` on the same R.  R is entered at order 0.
    """
    R = R.truncated(0)
    basis = two_cochain_basis(R, bound)
    image = _first_order_map(R, basis, budget, normal_forms)
    rows: dict[tuple[int, Path], Vector] = {}
    for idx, amb in enumerate(overlaps(R.lhs_set()) if basis else ()):
        rewrites: list = []
        resolve_overlap(amb, R, budget, rewrites)
        for (p, j), q in image(rewrites, f"the defect on the overlap {amb.word!r}"):
            rows.setdefault((idx, p), {})[j] = q
    matrix = [rows[k] for k in sorted(rows, key=lambda k: (k[0], k[1].sort_key()))]
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
    ``cocycle_space``, and R is entered at order 0 as there.
    """
    R = R.truncated(0)
    basis2 = two_cochain_basis(R, bound)
    index = {pair: i for i, pair in enumerate(basis2)}
    basis1 = one_cochain_basis(R, bound)
    image = _first_order_map(R, basis1, budget, normal_forms)
    columns: list[Vector] = [{} for _ in basis1]
    for rule in R.rules:
        s = rule.lhs
        splits = [((p.arrows[:i], p.arrows[i:i + 1], p.arrows[i + 1:]), c)
                  for p, c in (Element.from_path(s) - rule.rhs).terms.items()
                  for i in range(len(p))]
        for (target, j), q in image(splits, f"the coboundary of the rule for {s!r}"):
            k = index.get((s, target))
            if k is None:
                raise UsageError(f"coboundary target {target!r} outside the "
                                 "capped basis; raise the bound")
            columns[j][k] = q
    image = [row for _, row in sorted(Echelon(columns).rows.items())]
    return CoboundarySpace(basis=basis2, domain=basis1, columns=columns, image=image)


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
    for vec in coboundaries.image:
        if any(sum(a * vec[j] for j, a in row.items() if j in vec)
               for row in cocycles.matrix):
            raise RuntimeError("coboundary is not a cocycle: d^2 != 0 at first order")
    dim = len(cocycles.kernel) - len(coboundaries.image)
    span = Echelon(coboundaries.image)
    reps: list[Vector] = []
    for vec in cocycles.kernel:
        if len(reps) == dim:
            break
        if span.absorb(vec):
            reps.append(vec)
    representatives = []
    for vec in reps:
        values: dict[Path, Element] = {}
        for j, coeff in sorted(vec.items()):
            s, u = cocycles.basis[j]
            term = Element.from_path(u, PolyScalar.rational(coeff))
            values[s] = values.get(s, Element.zero(R.quiver)) + term
        representatives.append(values)
    return Hh2Result(dimension=dim, basis=cocycles.basis,
                     representatives=representatives)
