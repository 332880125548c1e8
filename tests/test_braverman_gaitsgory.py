"""Braverman-Gaitsgory: PBW deformations of Sym V for d = 3.

A bracket maps (j, i), j > i, to {k: coefficient} with k in 0..3, where
index 0 is the unit e0 (a central term).  The rules
x_j*x_i -> x_i*x_j + [x_j, x_i] are confluent exactly when the bracket,
with e0 central, satisfies the Jacobi identity (Braverman-Gaitsgory 1996),
and that is when the strictly-shorter cochain s -> [x_j, x_i] is a point of
the Maurer-Cartan variety of k[x1, x2, x3].  Three code paths decide it:
``pbw_check`` on the non-formal deformed system, ``check_diamond`` on the
rules themselves, and the equations of ``variety`` at that point.  The
bracket generators follow the benchmark's (``perfbench/workloads.py``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from conftest import substitute
from pathalg.quantization import commutator_system
from pathalg.quiver_core import Element, PolyScalar
from pathalg.reduction_engine import ReductionSystem, Rule, check_diamond
from pathalg.variety import STRICT, cochain_basis, mc_equations, pbw_check

D = 3
PAIRS = [(j, i) for j in range(2, D + 1) for i in range(1, j)]

LIE_BASES = [
    {(2, 1): {3: 1}, (3, 1): {2: -1}, (3, 2): {1: 1}},   # so(3)
    {(2, 1): {3: 1}},                                     # Heisenberg
    {(2, 1): {2: -2}, (3, 1): {3: 2}, (3, 2): {1: -1}},  # sl(2)
    {(3, 1): {1: 1}, (3, 2): {2: 1}},                     # solvable r3
    {(2, 1): {0: 1}, (3, 2): {0: 2}},                     # central only
]


def bracket(br, a: int, b: int) -> dict[int, Fraction]:
    """[x_a, x_b] from the entries with a > b."""
    if a == b:
        return {}
    if a > b:
        return dict(br.get((a, b), {}))
    return {k: -c for k, c in br.get((b, a), {}).items()}


def bracket_vec(br, a: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for k, c in vec.items():
        if k == 0:
            continue  # e0 is central
        for m, e in bracket(br, a, k).items():
            out[m] = out.get(m, 0) + c * e
    return out


def jacobi_holds(br) -> bool:
    for a, b, c in itertools.combinations(range(1, D + 1), 3):
        total: dict[int, Fraction] = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, v in bracket_vec(br, x, bracket(br, y, z)).items():
                total[k] = total.get(k, 0) + v
        if any(total.values()):
            return False
    return True


def unimodular(rng: random.Random) -> list[list[int]]:
    """A random integer matrix with determinant +-1."""
    a = [[int(i == j) for j in range(D)] for i in range(D)]
    for _ in range(2 * D):
        i, j = rng.sample(range(D), 2)
        s = rng.choice((-1, 1))
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
    rng.shuffle(a)
    return a


def inverse(a: list[list[int]]) -> list[list[Fraction]]:
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(D)]
         for i, row in enumerate(a)]
    for col in range(D):
        piv = next(r for r in range(col, D) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(D):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[D:] for row in m]


def lie_bracket(rng: random.Random):
    """A base Lie algebra written in a random unimodular basis, scaled."""
    base = rng.choice(LIE_BASES)
    a = unimodular(rng)
    ainv = inverse(a)
    scale = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)))
    out = {}
    for j, i in PAIRS:
        # [y_j, y_i] with y_a = sum_p a[a][p] x_p, written back in the y basis
        w: dict[int, Fraction] = {}
        for p in range(1, D + 1):
            for q in range(1, D + 1):
                c = a[j - 1][p - 1] * a[i - 1][q - 1]
                for k, v in bracket(base, p, q).items():
                    w[k] = w.get(k, 0) + c * v
        vec: dict[int, Fraction] = {}
        for k, v in w.items():
            for m in ([0] if k == 0 else range(1, D + 1)):
                f = 1 if k == 0 else ainv[k - 1][m - 1]
                vec[m] = vec.get(m, 0) + v * f
        vec = {k: c * scale for k, c in vec.items() if c}
        if vec:
            out[(j, i)] = vec
    return out


def random_bracket(rng: random.Random):
    """Random small structure constants; they rarely satisfy Jacobi."""
    out = {}
    for ji in PAIRS:
        vec = {k: Fraction(rng.randint(-2, 2)) for k in range(D + 1)}
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            out[ji] = vec
    return out


def values(br) -> dict:
    """s = x_j*x_i -> [x_j, x_i] as path-algebra elements."""
    q, _ = commutator_system(D)
    out = {}
    for (j, i), vec in br.items():
        value = Element.zero(q)
        for k, c in vec.items():
            target = q.trivial("0") if k == 0 else q.path(f"x{k}")
            value = value + Element.from_path(target, PolyScalar.rational(c))
        out[q.path(f"x{j}", f"x{i}")] = value
    return out


@lru_cache(maxsize=None)
def strict_variety():
    """The strict basis pairs and the Maurer-Cartan equations in c1, c2, ..."""
    _, R = commutator_system(D)
    basis = cochain_basis(R, STRICT)
    return basis, mc_equations(R, STRICT, basis=basis)


def on_variety(br) -> bool:
    basis, equations = strict_variety()
    point = {}
    for idx, (s, u) in enumerate(basis):
        j, i = (int(a[1:]) for a in s.arrows)
        k = 0 if u.is_trivial else int(u.arrows[0][1:])
        point[f"c{idx + 1}"] = PolyScalar.rational(br.get((j, i), {}).get(k, 0))
    return all(substitute(eq, point).is_zero() for eq in equations)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_pbw_deformation_is_flat_iff_jacobi(seed, lie):
    rng = random.Random(seed)
    br = lie_bracket(rng) if lie else random_bracket(rng)
    jacobi = jacobi_holds(br)
    assert jacobi or not lie
    q, R = commutator_system(D)
    phi = values(br)
    deformed = ReductionSystem(q, [Rule(r.lhs, r.rhs + phi.get(r.lhs, Element.zero(q)))
                                   for r in R.rules])
    assert pbw_check(R, phi) == jacobi
    assert (check_diamond(deformed).verdict == "pass") == jacobi
    assert on_variety(br) == jacobi
