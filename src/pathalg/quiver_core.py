"""Quivers, paths, exact polynomial scalars and path-algebra elements.

Everything here is immutable and exact: coefficients are multivariate
polynomials over arbitrary-precision rationals in a set of commuting formal
symbols.  A rational coefficient is built as a Python ``int`` when it is
integral and as a ``Fraction`` otherwise; the two mix exactly under ``+ - *``
(Fractions may sum to an integral Fraction, which equals the int), so only a
division has to go through ``Fraction``.  Symbols are split into two roles:
*deformation parameters* (t, hbar, ...) which count toward the truncation
order, and *unknowns* (lam, mu, ...) which never get truncated.

A computation works in one coefficient ring, k[params]/(params)^(n+1) over
the unknowns.  Values enter it through one cut (``truncated``) at its order,
the lowest of the one asked for and its inputs' (``lowest_order``); inside,
arithmetic that would mix two orders raises ``RingError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "UsageError",
    "RingError",
    "Quiver",
    "Path",
    "PolyScalar",
    "Element",
    "AdmissibleOrder",
    "compose",
    "lowest_order",
]


class UsageError(ValueError):
    """Raised for malformed inputs (wrong quiver, undeclared symbols, ...)."""


class RingError(RuntimeError):
    """Scalars of two coefficient rings met: a value skipped its entry cut."""


# ---------------------------------------------------------------------------
# Quiver and paths
# ---------------------------------------------------------------------------

class Quiver:
    """A finite directed multigraph with named vertices and arrows."""

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str, str]]):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise UsageError("duplicate vertex ids")
        self.arrows = tuple((str(a), str(s), str(t)) for a, s, t in arrows)
        names = [a for a, _, _ in self.arrows]
        if len(set(names)) != len(names):
            raise UsageError("duplicate arrow ids")
        vset = set(self.vertices)
        for a, s, t in self.arrows:
            if s not in vset or t not in vset:
                raise UsageError(f"arrow {a}: undeclared endpoint {s if s not in vset else t}")
        self._src = {a: s for a, s, _ in self.arrows}
        self._tgt = {a: t for a, _, t in self.arrows}
        self._arrow_index = {a: i for i, (a, _, _) in enumerate(self.arrows)}
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._out: dict[str, tuple[str, ...]] = {
            v: tuple(a for a, s, _ in self.arrows if s == v) for v in self.vertices}

    def source(self, arrow: str) -> str:
        return self._src[arrow]

    def target(self, arrow: str) -> str:
        return self._tgt[arrow]

    def arrow_names(self) -> tuple[str, ...]:
        return tuple(a for a, _, _ in self.arrows)

    def arrows_from(self, vertex: str) -> tuple[str, ...]:
        return self._out.get(vertex, ())

    def trivial(self, vertex: str) -> "Path":
        return Path(self, vertex=vertex)

    def path(self, *arrow_names: str) -> "Path":
        return Path(self, arrows=tuple(arrow_names))

    def idempotents(self) -> list["Path"]:
        return [self.trivial(v) for v in self.vertices]

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {list(self.arrows)})"


class Path:
    """A path in a quiver: a composable arrow word, or a length-0 vertex."""

    __slots__ = ("quiver", "arrows", "vertex", "_hash")

    def __init__(self, quiver: Quiver, arrows: tuple[str, ...] = (), vertex: str | None = None):
        if bool(arrows) == (vertex is not None):
            raise UsageError("a path is either an arrow word or a vertex, not both")
        if vertex is not None and vertex not in quiver._vertex_index:
            raise UsageError(f"unknown vertex {vertex!r}")
        for a in arrows:
            if a not in quiver._src:
                raise UsageError(f"unknown arrow {a!r}")
        for a, b in zip(arrows, arrows[1:]):
            if quiver.target(a) != quiver.source(b):
                raise UsageError(f"non-composable arrows {a!r}, {b!r}")
        self.quiver = quiver
        self.arrows = tuple(arrows)
        self.vertex = vertex
        self._hash = hash((self.arrows, self.vertex))

    @classmethod
    def _trusted(cls, quiver: "Quiver", arrows: tuple[str, ...], vertex: str | None) -> "Path":
        """Construct without validation; callers must guarantee composability."""
        p = object.__new__(cls)
        p.quiver = quiver
        p.arrows = arrows
        p.vertex = vertex
        p._hash = hash((arrows, vertex))
        return p

    @property
    def is_trivial(self) -> bool:
        return self.vertex is not None

    @property
    def source(self) -> str:
        return self.vertex if self.is_trivial else self.quiver.source(self.arrows[0])

    @property
    def target(self) -> str:
        return self.vertex if self.is_trivial else self.quiver.target(self.arrows[-1])

    def __len__(self) -> int:
        return len(self.arrows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Path)
            and self.arrows == other.arrows
            and self.vertex == other.vertex
        )

    def __hash__(self) -> int:
        return self._hash

    def subword(self, start: int, stop: int) -> "Path":
        """The subpath arrows[start:stop]; trivial at the cut vertex if empty."""
        if start == stop:
            at = self.source if start == 0 else self.quiver.target(self.arrows[start - 1])
            return Path(self.quiver, vertex=at)
        return Path(self.quiver, arrows=self.arrows[start:stop])

    def sort_key(self, ranks: Mapping[str, int] | None = None):
        """Deglex key: length first, then arrow ranks (declaration order by default)."""
        q = self.quiver
        if self.is_trivial:
            return (0, (-1 - q._vertex_index[self.vertex],))
        if ranks is None:
            ranks = q._arrow_index
        return (len(self.arrows), tuple(ranks[a] for a in self.arrows))

    def __repr__(self):
        return f"e{self.vertex}" if self.is_trivial else "*".join(self.arrows)


def compose(p: Path, q: Path) -> Path | None:
    """Concatenation pq, or None (zero) when targets do not match."""
    if p.quiver is not q.quiver:
        raise UsageError("paths from different quivers")
    if p.target != q.source:
        return None
    if p.is_trivial:
        return q
    if q.is_trivial:
        return p
    return Path._trusted(p.quiver, p.arrows + q.arrows, None)  # the joint is checked


# ---------------------------------------------------------------------------
# Exact polynomial scalars
# ---------------------------------------------------------------------------

# ((symbol, exponent), ...): sorted by symbol name, each symbol once, every
# exponent positive; the rational 1 is the empty monomial
Mono = tuple[tuple[str, int], ...]

_ONE: Mono = ()
_UNIT = {_ONE: 1}  # the terms of the rational 1


def _q(c):
    """The exact rational c as an int when integral, else as a Fraction."""
    if type(c) is not int:
        c = c if type(c) is Fraction else Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _digits(n: int) -> str:
    """str(n) for an int of any size: pieces of at most 2,000 bits (603
    digits) stay below the lowest digit limit the interpreter accepts (640)."""
    if n.bit_length() <= 2_000:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10 ** k)
    return _digits(hi) + _digits(lo).zfill(k)


def _rational_str(c) -> str:
    """str(c) of an int or Fraction coefficient, of any size."""
    n, d = c.numerator, c.denominator
    return _digits(n) if d == 1 else f"{_digits(n)}/{_digits(d)}"


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    if len(a) == len(b) == 1:  # one symbol each, as in hbar^k
        (n, e), (n2, e2) = a[0], b[0]
        return ((n, e + e2),) if n == n2 else (a[0], b[0]) if n < n2 else (b[0], a[0])
    # merge the two name-sorted tuples; exponents are positive, so none cancels
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        n, e = a[i]
        n2, e2 = b[j]
        if n == n2:
            out.append((n, e + e2))
            i += 1
            j += 1
        elif n < n2:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def _mono_deg(m: Mono, params: frozenset[str]) -> int:
    """Total degree of m in the given parameters."""
    if len(m) == 1:
        return m[0][1] if m[0][0] in params else 0
    return sum(e for n, e in m if n in params)


def _mono_key(m: Mono):
    return (sum(e for _, e in m), m)


class PolyScalar:
    """Multivariate polynomial over Q in the ring (``trunc``, ``params``).

    ``params`` names the symbols whose total degree is capped by ``trunc``
    (None = unbounded); all other symbols are unknowns and never truncated.
    The operands of an operation lie in one ring (``_ring``), or it raises
    ``RingError``.  Instances are never changed after construction.
    """

    __slots__ = ("terms", "trunc", "params")

    def __init__(self, terms: Mapping[Mono, int | Fraction] | None = None,
                 trunc: int | None = None, params: frozenset[str] = frozenset()):
        self.trunc = trunc
        self.params = frozenset(params)
        exact = {m: _q(c) for m, c in (terms or {}).items()}
        self.terms = {m: c for m, c in exact.items()
                      if c and (trunc is None or _mono_deg(m, self.params) <= trunc)}

    @classmethod
    def _exact(cls, terms: dict[Mono, int | Fraction], trunc: int | None,
               params: frozenset[str]) -> "PolyScalar":
        """Construct from ``terms`` as it is: callers guarantee nonzero int or
        Fraction coefficients, a frozenset of params and no term over trunc."""
        ps = object.__new__(cls)
        ps.trunc = trunc
        ps.params = params
        ps.terms = terms
        return ps

    # -- constructors -----------------------------------------------------
    @staticmethod
    def rational(q, trunc: int | None = None, params: frozenset[str] = frozenset()) -> "PolyScalar":
        q = _q(q)
        return PolyScalar._exact({_ONE: q} if q else {}, trunc, frozenset(params))

    @staticmethod
    def zero(trunc: int | None = None, params: frozenset[str] = frozenset()) -> "PolyScalar":
        return PolyScalar({}, trunc, params)

    @staticmethod
    def var(name: str, is_param: bool = False, trunc: int | None = None,
            params: frozenset[str] = frozenset()) -> "PolyScalar":
        ps = params | ({name} if is_param else frozenset())
        return PolyScalar({((name, 1),): 1}, trunc, ps)

    # -- structure --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(m == _ONE for m in self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise UsageError(f"not a rational constant: {self}")
        return Fraction(self.terms[_ONE])

    def min_param_degree(self) -> int:
        ps = self.params
        return min((_mono_deg(m, ps) for m in self.terms), default=0) if ps else 0

    def _uses(self, params: frozenset[str]) -> bool:
        """Whether a term holds a symbol of ``params``."""
        return any(n in params for m in self.terms for n, _ in m)

    def _joins(self, n: int | None, params: frozenset[str]) -> bool:
        """Whether self lies in the ring (n, params): at order n with its
        params among them and no term using another of them (as an unknown),
        or, in a ring with an order, with no order and no parameter term."""
        if self.trunc == n:
            return self.params == params or (
                self.params < params and not self._uses(params - self.params))
        return self.trunc is None and not self._uses(self.params | params)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "PolyScalar") -> "PolyScalar":
        if self.trunc == other.trunc and self.params == other.params:
            tr, ps = self.trunc, self.params
        else:
            tr, ps = _ring((self, other))
        return PolyScalar._exact(_plus(self.terms, other.terms), tr, ps)

    def __sub__(self, other: "PolyScalar") -> "PolyScalar":
        return self + (-other)

    def __neg__(self) -> "PolyScalar":
        return PolyScalar._exact({m: -c for m, c in self.terms.items()}, self.trunc, self.params)

    def __mul__(self, other: "PolyScalar") -> "PolyScalar":
        if self.trunc == other.trunc and self.params == other.params:
            tr, ps = self.trunc, self.params
        else:
            tr, ps = _ring((self, other))
        # the rational 1 times x is x, if x is in the ring of the product
        if self.terms == _UNIT and other.trunc == tr and other.params == ps:
            return other
        if other.terms == _UNIT and self.trunc == tr and self.params == ps:
            return self
        # pair two monomials only if their parameter degrees sum to at most
        # the truncation
        cut = tr is not None and bool(ps)
        d: dict[Mono, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            room = tr - _mono_deg(m1, ps) if cut else 0
            for m2, c2 in other.terms.items():
                if cut and _mono_deg(m2, ps) > room:
                    continue
                m = _mono_mul(m1, m2)
                d[m] = c = d.get(m, 0) + c1 * c2
                if not c:
                    del d[m]
        return PolyScalar._exact(d, tr, ps)

    def scale(self, q) -> "PolyScalar":
        q = _q(q)
        if q == 1:
            return self
        return PolyScalar._exact({m: c * q for m, c in self.terms.items()} if q else {},
                                 self.trunc, self.params)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- extraction -------------------------------------------------------
    def truncated(self, n: int | None) -> "PolyScalar":
        """The scalar entered at order n: cut to n, unless n is None or it has
        an order of at most n, or none and no parameter term (then itself)."""
        if n is None or (self.trunc <= n if self.trunc is not None
                         else not self._uses(self.params)):
            return self
        ps = self.params
        return PolyScalar._exact({m: c for m, c in self.terms.items() if _mono_deg(m, ps) <= n},
                                 n, ps)

    def coefficient_of(self, name: str, power: int) -> "PolyScalar":
        """The coefficient of name**power (the symbol is removed)."""
        d = {}
        for m, c in self.terms.items():
            md = dict(m)
            if md.get(name, 0) == power:
                md.pop(name, None)
                d[tuple(sorted(md.items()))] = c
        return PolyScalar(d, self.trunc, self.params)

    def __repr__(self):
        return _poly_text((m, self.terms[m]) for m in sorted(self.terms, key=_mono_key))


def _poly_text(terms: Iterable[tuple[Mono, int | Fraction]]) -> str:
    """The text of a polynomial from its (monomial, coefficient) pairs, in the
    order given; "0" when there are none."""
    bits = []
    for m, c in terms:
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
        if mono:
            if c == 1:
                s = mono
            elif c == -1:
                s = f"-{mono}"
            else:
                s = f"{_rational_str(c)}*{mono}"
        else:
            s = _rational_str(c)
        bits.append(s)
    return _joined(bits)


def _joined(bits: list[str]) -> str:
    """Signed terms joined by " + " and " - "; "0" when there are none."""
    out = bits[0] if bits else "0"
    for s in bits[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


def lowest_order(*orders: int | None) -> int | None:
    """The lowest of ``orders`` that is not None (None if none is)."""
    return min((n for n in orders if n is not None), default=None)


def _ring(scalars: Sequence[PolyScalar]) -> tuple[int | None, frozenset[str]]:
    """The one ring of ``scalars``, (order, params): their lowest order on the
    union of the params of those at that order, if each joins it
    (``PolyScalar._joins``); else ``RingError``."""
    n = lowest_order(*(c.trunc for c in scalars))
    ps = frozenset().union(*(c.params for c in scalars if c.trunc == n))
    for c in scalars:
        if not c._joins(n, ps):
            raise RingError(f"{c!r} at order {c.trunc} in {sorted(c.params)} is not "
                            f"in the ring at order {n} in {sorted(ps)}")
    return n, ps


def _plus(a: dict, b: dict) -> dict:
    """The sum of two {monomial: rational} dicts as a new dict, with no zero
    term (a and b may be shared, so neither is changed)."""
    s = a.copy()
    for m, q in b.items():
        q += s.get(m, 0)
        if q:
            s[m] = q
        else:
            del s[m]
    return s


# ---------------------------------------------------------------------------
# Elements of the path algebra
# ---------------------------------------------------------------------------

class Element:
    """A finite linear combination of paths with PolyScalar coefficients."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: Mapping[Path, PolyScalar] | None = None):
        self.quiver = quiver
        clean: dict[Path, PolyScalar] = {}
        for p, c in (terms or {}).items():
            if p.quiver is not quiver:
                raise UsageError("path from a different quiver")
            if not c.is_zero():
                clean[p] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(quiver: Quiver) -> "Element":
        return Element(quiver)

    @staticmethod
    def from_path(p: Path, coeff: PolyScalar | None = None) -> "Element":
        return Element(p.quiver, {p: coeff if coeff is not None else PolyScalar.rational(1)})

    # -- structure --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def paths(self) -> list[Path]:
        return sorted(self.terms, key=lambda p: p.sort_key())

    def sorted_terms(self) -> Iterator[tuple[Path, PolyScalar]]:
        for p in self.paths():
            yield p, self.terms[p]

    def is_uniform(self) -> bool:
        """True when all paths share one source and one target."""
        st = {(p.source, p.target) for p in self.terms}
        return len(st) <= 1

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Element") -> "Element":
        if self.quiver is not other.quiver:
            raise UsageError("elements from different quivers")
        d = dict(self.terms)
        for p, c in other.terms.items():
            d[p] = d[p] + c if p in d else c
        return Element(self.quiver, d)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.quiver, {p: -c for p, c in self.terms.items()})

    def scale(self, s: PolyScalar) -> "Element":
        return Element(self.quiver, {p: c * s for p, c in self.terms.items()})

    def __mul__(self, other: "Element") -> "Element":
        if self.quiver is not other.quiver:
            raise UsageError("elements from different quivers")
        d: dict[Path, PolyScalar] = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                pq = compose(p, q)
                if pq is None:
                    continue
                c = cp * cq
                d[pq] = d[pq] + c if pq in d else c
        return Element(self.quiver, d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.quiver is other.quiver
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset((p, frozenset(c.terms.items())) for p, c in self.terms.items()))

    def order(self) -> int | None:
        """The lowest order a coefficient carries, None if none has one."""
        return lowest_order(*(c.trunc for c in self.terms.values()))

    def truncated(self, n: int | None) -> "Element":
        """The element entered at order n: itself when that cuts nothing."""
        if all(c.truncated(n) is c for c in self.terms.values()):
            return self
        return Element(self.quiver, {p: c.truncated(n) for p, c in self.terms.items()})

    def coefficient_of(self, name: str, power: int) -> "Element":
        return Element(self.quiver, {p: c.coefficient_of(name, power) for p, c in self.terms.items()})

    def __repr__(self):
        bits = []
        for p, c in self.sorted_terms():
            cs = repr(c)
            if cs == "1":
                bits.append(repr(p))
            elif cs == "-1":
                bits.append(f"-{p!r}")
            elif ("+" in cs or " - " in cs):
                bits.append(f"({cs})*{p!r}")
            else:
                bits.append(f"{cs}*{p!r}")
        return _joined(bits)


# ---------------------------------------------------------------------------
# Admissible orders
# ---------------------------------------------------------------------------

class AdmissibleOrder:
    """Degree-lexicographic order on paths induced by a total order on arrows."""

    def __init__(self, quiver: Quiver, arrow_order: Iterable[str] | None = None):
        names = list(arrow_order) if arrow_order is not None else list(quiver.arrow_names())
        if sorted(names) != sorted(quiver.arrow_names()):
            raise UsageError("arrow order must list every arrow exactly once")
        self.quiver = quiver
        self.ranks = {a: i for i, a in enumerate(names)}

    def less(self, p: Path, q: Path) -> bool:
        return self.key(p) < self.key(q)  # the key starts with the length

    def key(self, p: Path):
        return p.sort_key(self.ranks)

    def __repr__(self):
        names = sorted(self.ranks, key=self.ranks.get)
        return f"AdmissibleOrder({' < '.join(names)})"
