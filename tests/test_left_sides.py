"""The left-side index against brute-force scans of every side at every position.

``rightmost_split``, ``is_irreducible``, ``irreducible_paths`` and the
subpath check of ``ReductionSystem`` answer their subword questions from
one ``LeftSides`` index; the references below scan the sides one by one.
The random side lists have no side that is a prefix of another (so at most
one side starts at a position), but may have one side inside another, as a
plain list passed to these functions may.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_brauer
from pathalg.quantization import commutator_system
from pathalg.quiver_core import Element, Path, Quiver, UsageError
from pathalg.reduction_engine import (
    LeftSides,
    ReductionSystem,
    Rule,
    irreducible_paths,
    is_irreducible,
    rightmost_split,
)


# ---------------------------------------------------------------------------
# brute-force references


def _occurs(small: tuple, big: tuple) -> bool:
    n = len(small)
    return any(big[i:i + n] == small for i in range(len(big) - n + 1))


def ref_rightmost(w: tuple, sides) -> tuple[int, Path] | None:
    """(start, side) of the occurrence that starts furthest right."""
    best = None
    for s in sides:
        for i in range(len(w) - len(s) + 1):
            if w[i:i + len(s)] == s.arrows and (best is None or i > best[0]):
                best = (i, s)
    return best


def ref_irreducible(w: tuple, sides) -> bool:
    return not any(_occurs(s.arrows, w) for s in sides)


def ref_irreducible_paths(sides, q: Quiver, max_len: int) -> list[Path]:
    """Every path of length <= max_len that no scan finds a side in; a path
    that contains a side is not extended, since its extensions do too."""
    out = list(q.idempotents())
    layer = [(a,) for a in q.arrow_names()]
    for _ in range(max_len):
        layer = [w for w in layer if ref_irreducible(w, sides)]
        out += [q.path(*w) for w in layer]
        layer = [w + (a,) for w in layer for a in q.arrows_from(q.target(w[-1]))]
    return sorted(out, key=Path.sort_key)


def ref_basis_is_finite(sides, q: Quiver) -> bool:
    """Whether no irreducible path has length L-1+V, L the longest side and V
    the number of irreducible paths of length L-1 (a longer path repeats its
    last L-1 arrows, which decide what may follow, so it can be pumped).
    Searched depth-first over the words the scans find irreducible."""
    longest = max((len(s) for s in sides), default=1)
    layer = [(a,) for a in q.arrow_names()] if longest > 1 else q.idempotents()
    for _ in range(longest - 2):
        layer = [w + (a,) for w in layer for a in q.arrows_from(q.target(w[-1]))]
    top = longest - 1 + sum(1 for w in layer if longest == 1 or ref_irreducible(w, sides))
    stack = [(a,) for a in q.arrow_names()]
    while stack:
        w = stack.pop()
        if ref_irreducible(w, sides):
            if len(w) >= top:
                return False
            stack += [w + (a,) for a in q.arrows_from(q.target(w[-1]))]
    return True


def ref_subpath_error(sides) -> str | None:
    """The first (i, j) in rule order with side i inside side j."""
    for i, s in enumerate(sides):
        for j, s2 in enumerate(sides):
            if i != j and _occurs(s.arrows, s2.arrows):
                return f"left side {s!r} is a subpath of {s2!r}"
    return None


# ---------------------------------------------------------------------------
# inputs


def _walk(q: Quiver, rng: random.Random, length: int) -> Path | None:
    """A random path of the given length, or None if the walk gets stuck."""
    if length == 0:
        return q.trivial(rng.choice(q.vertices))
    w = [rng.choice(q.arrow_names())]
    while len(w) < length:
        nxt = q.arrows_from(q.target(w[-1]))
        if not nxt:
            return None
        w.append(rng.choice(nxt))
    return q.path(*w)


def random_case(seed: int):
    """A quiver on 1-3 vertices and 1-4 arrows, prefix-free sides of lengths
    2-4 in random order, and random words of length 0-8."""
    rng = random.Random(seed)
    verts = [str(v) for v in range(rng.randint(1, 3))]
    arrows = [(f"a{k}", rng.choice(verts), rng.choice(verts))
              for k in range(rng.randint(1, 4))]
    q = Quiver(verts, arrows)
    sides: list[Path] = []
    for _ in range(rng.randint(1, 6)):
        s = _walk(q, rng, rng.randint(2, 4))
        if s is not None and not any(
                s.arrows[:len(t)] == t.arrows or t.arrows[:len(s)] == s.arrows
                for t in sides):
            sides.append(s)
    words = [w for w in (_walk(q, rng, rng.randint(0, 8)) for _ in range(30))
             if w is not None]
    return q, sides, words


def fixture_cases():
    q, R = make_brauer(10)
    q4, R4 = commutator_system(4)
    return {"brauer n=10": (q, R, 5), "commutator d=4": (q4, R4, 4)}


def check_words(sides, S, words):
    for p in words:
        expect = ref_rightmost(p.arrows, sides)
        split = rightmost_split(p, S)
        if expect is None:
            assert split is None, p
        else:
            i, s = expect
            assert (len(split.q), split.s) == (i, s), p
            assert split.q.arrows + s.arrows + split.r.arrows == p.arrows
            assert (split.q.source, split.r.target) == (p.source, p.target)
        assert is_irreducible(p, S) == ref_irreducible(p.arrows, sides), p


def check_basis(q, sides, S, max_len):
    assert irreducible_paths(S, q, max_len=max_len) == ref_irreducible_paths(sides, q, max_len)
    try:
        basis = irreducible_paths(S, q, safety_cap=2000)
    except UsageError:
        # infinite, or over 2,000 paths: on at most 4 arrows that needs
        # irreducible paths of length 6 or more
        top = max((len(s) for s in sides), default=0) + 2
        assert any(len(p) == top for p in ref_irreducible_paths(sides, q, top))
    else:
        top = max(len(p) for p in basis)
        assert basis == ref_irreducible_paths(sides, q, top + 1)


# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
def test_random_sides_match_the_scans(seed, max_len):
    q, sides, words = random_case(seed)
    for S in (sides, LeftSides(sides)):
        check_words(sides, S, words)
    check_basis(q, sides, sides, max_len)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_unbounded_basis_is_finite_iff_the_search_ends(seed):
    """Without max_len (and with the default safety cap) the irreducible
    paths are listed exactly when the depth-first search finds no path long
    enough to pump."""
    q, sides, _ = random_case(seed)
    try:
        basis = irreducible_paths(sides, q)
    except UsageError:
        assert not ref_basis_is_finite(sides, q)
    else:
        assert ref_basis_is_finite(sides, q)
        assert basis == ref_irreducible_paths(sides, q, max(len(p) for p in basis) + 1)


@pytest.mark.parametrize("seed", [31, 97, 178])
def test_infinite_basis_is_certified_at_once(seed):
    """Cases whose layers grow fast: the state cycle is found before any layer
    past the longest side is listed, so the bound fails a walk that lists
    layers up to length L-1+V (over a second on these seeds)."""
    q, sides, _ = random_case(seed)
    assert not ref_basis_is_finite(sides, q)
    start = time.perf_counter()
    with pytest.raises(UsageError, match="cannot certify a finite irreducible basis"):
        irreducible_paths(sides, q)
    assert time.perf_counter() - start < 0.25


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_subpath_error_names_the_first_pair(seed):
    q, sides, _ = random_case(seed)
    rules = [Rule(s, Element.zero(q)) for s in sides]
    expect = ref_subpath_error(sides)
    if expect is None:
        assert ReductionSystem(q, rules).lhs_set() == tuple(sides)
    else:
        with pytest.raises(UsageError) as exc:
            ReductionSystem(q, rules)
        assert str(exc.value) == expect


@pytest.mark.parametrize("name", sorted(fixture_cases()))
def test_fixture_systems_match_the_scans(name):
    q, R, max_len = fixture_cases()[name]
    sides = list(R.lhs_set())
    rng = random.Random(name)
    words = [w for w in (_walk(q, rng, rng.randint(0, 8)) for _ in range(300))
             if w is not None]
    check_words(sides, R.lhs_set(), words)
    check_basis(q, sides, R.lhs_set(), max_len)
    assert ref_subpath_error(sides) is None
