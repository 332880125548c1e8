"""Seeded problem files and job lists for the four benchmark workloads.

Everything here is plain text generation: no ``pathalg`` import, so the
inputs of a seed are fixed before the program under test is loaded.  A job
is one ``pathalg`` command line plus the data its oracle needs.

Where the cost of a job depends on its input by orders of magnitude, the
input comes from a fixed skeleton and the seed draws only what leaves the
work unchanged.  Between random cochains with the same star factors the star
product costs anywhere from 0.02 s to 1.7 s, and even re-drawing only the
+-1, +-2 coefficients of a fixed set of monomials moves a star-rewrite round
by 25 % (cancellations remove pending terms), so seeded shapes would make a
run's throughput a property of the seed rather than of the program.  A
cochain skeleton fixes the monomials and their coefficients; the seed scales
the whole cochain, which is the same as rescaling hbar and leaves every
rewrite step in place, and draws the star-factor coefficients, the arrow and
rule declaration order, and the Lie-algebra points.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

WORKLOADS = ("star-rewrite", "hh2-elim", "graph-calculus", "symbolic-mix")


@dataclass
class Job:
    """One CLI invocation: ``pathalg <problem> <args...>``.

    ``kind`` selects the oracle, ``label`` groups jobs for the layer split,
    ``files`` names the generated files the argv refers to (resolved against
    the work directory), and ``expect`` is the oracle's data.
    """

    kind: str
    label: str
    problem: str
    args: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    files: tuple[str, ...] = ()

    def argv(self, workdir) -> list[str]:
        out = [str(workdir / self.problem)]
        for a in self.args:
            out.append(str(workdir / a) if a in self.files else a)
        return out


@dataclass
class Round:
    """The job list of one workload for one seed, and the files it reads."""

    files: dict[str, str]
    jobs: list[Job]


# ---------------------------------------------------------------------------
# text helpers


def _term(c: Fraction, factors: list[str]) -> str:
    """A signed term '+ c*f1*f2' with the coefficient left out when 1."""
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    body = "*".join(factors)
    if mag != 1:
        body = f"{mag}*{body}"
    return f"{sign} {body}"


def _element(terms: list[tuple[Fraction, list[str]]]) -> str:
    if not terms:
        return "0"
    text = " ".join(_term(c, f) for c, f in terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _mono_factors(exps: tuple[int, ...]) -> list[str]:
    """x1^a*x2^b... as factor tokens (the normal form of the monomial)."""
    return [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps) if e]


def _monomials(d: int, degree: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(degree + 1), repeat=d)
            if sum(e) == degree]


def _pairs(d: int) -> list[tuple[int, int]]:
    """Rule indices (j, i), j > i, of the d-variable commutator system."""
    return [(j, i) for j in range(2, d + 1) for i in range(1, j)]


_COEFFS = [Fraction(c) for c in (-2, -1, 1, 2)]
# Integer coefficients: a seed drawing 3/2 where another draws 2 would make
# every Fraction operation of its jobs dearer, and so the seed would show up
# in the timings.
_FACTOR_COEFFS = [Fraction(c) for c in (1, 2, -1, 3, -2)]
# Element arguments on the command line must not start with '-', which the
# argument parser would read as an option.
_ARG_COEFFS = [c for c in _FACTOR_COEFFS if c > 0]
_SCALES = [Fraction(c) for c in (1, -1, 2, -2, 3, -3)]


def commutator_text(d: int, rng: random.Random, *, params=(), trunc=None,
                    deform=None, rhs_extra=None, order=None, rules=True,
                    shuffle_arrows=True):
    """The d-variable commutator system x_j*x_i -> x_i*x_j (j > i).

    The seed permutes arrow and rule declarations; neither changes any
    answer.  ``rhs_extra`` maps (j, i) to extra right-hand-side terms,
    ``deform`` maps (j, i) to the deform element text.  Returns the text,
    the arrows in declaration order and the rules (j, i) in file order.
    """
    arrows = [f"x{i}" for i in range(1, d + 1)]
    if shuffle_arrows:
        rng.shuffle(arrows)
    lines = ["vertex 0"] + [f"arrow {a} : 0 -> 0" for a in arrows]
    if params:
        lines.append("param " + " ".join(params))
    if trunc is not None:
        lines.append(f"set trunc {trunc}")
    if order is not None:
        lines.append("order " + " < ".join(order))
    pairs = _pairs(d)
    rng.shuffle(pairs)
    if rules:
        for j, i in pairs:
            rhs = f"x{i}*x{j}"
            extra = (rhs_extra or {}).get((j, i))
            if extra:
                rhs += " " + extra if extra[0] in "+-" else " + " + extra
            lines.append(f"rule x{j}*x{i} -> {rhs}")
    for (j, i), value in sorted((deform or {}).items()):
        lines.append(f"deform x{j}*x{i} -> {value}")
    return "\n".join(lines) + "\n", arrows, pairs


def brauer_arrows(n: int) -> list[tuple[str, str, str]]:
    out = []
    for i in range(1, n - 1):
        out.append((f"x{i}", str(i), str(i + 1)))
        out.append((f"y{i}", str(i + 1), str(i)))
    return out


def brauer_rules(n: int) -> list[tuple[str, str]]:
    """The zigzag rules of the Brauer tree algebra on vertices 1..n-1."""
    rules = []
    for i in range(1, n - 2):
        rules.append((f"x{i}*x{i + 1}", "0"))
        rules.append((f"y{i + 1}*y{i}", "0"))
        rules.append((f"x{i + 1}*y{i + 1}", f"y{i}*x{i}"))
    rules.append(("x1*y1*x1", "0"))
    rules.append(("y1*x1*y1", "0"))
    return rules


def brauer_text(n: int, rng: random.Random, *, order=None, rules=True):
    """The Brauer system on n-1 vertices with seeded declaration order.

    Returns the text and the rules (lhs, rhs) in file order.
    """
    arrows = brauer_arrows(n)
    rng.shuffle(arrows)
    lines = ["vertex " + " ".join(str(i) for i in range(1, n))]
    lines += [f"arrow {a} : {s} -> {t}" for a, s, t in arrows]
    if order is not None:
        lines.append("order " + " < ".join(order))
    rule_list = brauer_rules(n)
    rng.shuffle(rule_list)
    if rules:
        lines += [f"rule {lhs} -> {rhs}" for lhs, rhs in rule_list]
    return "\n".join(lines) + "\n", rule_list


# ---------------------------------------------------------------------------
# Lie brackets on span(x1..xd) with a central e0 (index 0)
#
# A bracket maps (j, i), j > i, to {k: coefficient}, k in 0..d.  By the PBW
# theorem the rules x_j*x_i -> x_i*x_j + [x_j, x_i] are confluent, and the
# strict cochain with these values is a point of the deformation variety,
# exactly when the bracket satisfies the Jacobi identity.


def _bracket_basis(br, d, a, b):
    if a == b:
        return {}
    if a > b:
        return dict(br.get((a, b), {}))
    return {k: -c for k, c in br.get((b, a), {}).items()}


def _bracket_vec(br, d, a, vec):
    out: dict[int, Fraction] = {}
    for k, c in vec.items():
        if k == 0:
            continue  # e0 is central
        for m, e in _bracket_basis(br, d, a, k).items():
            out[m] = out.get(m, 0) + c * e
    return {k: c for k, c in out.items() if c}


def jacobi_holds(br, d: int) -> bool:
    for a, b, c in itertools.combinations(range(1, d + 1), 3):
        total: dict[int, Fraction] = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, v in _bracket_vec(br, d, x, _bracket_basis(br, d, y, z)).items():
                total[k] = total.get(k, 0) + v
        if any(total.values()):
            return False
    return True


_LIE_BASES = {
    3: [
        {(2, 1): {3: 1}, (3, 1): {2: -1}, (3, 2): {1: 1}},   # so(3)
        {(2, 1): {3: 1}},                                     # Heisenberg
        {(2, 1): {2: -2}, (3, 1): {3: 2}, (3, 2): {1: -1}},  # sl(2)
        {(3, 1): {1: 1}, (3, 2): {2: 1}},                     # solvable r3
        {(2, 1): {0: 1}, (3, 2): {0: 2}},                     # central only
    ],
    4: [
        {(2, 1): {2: -2}, (3, 1): {3: 2}, (3, 2): {1: -1}},  # gl(2)
        {(2, 1): {3: 1}, (3, 1): {2: -1}, (3, 2): {1: 1}},   # so(3) + R
        {(2, 1): {3: 1}, (3, 1): {4: 1}},                     # filiform n4
        {(4, 1): {1: 1}, (4, 2): {2: 1}, (4, 3): {3: 1}},     # solvable
    ],
}


def _unimodular(d: int, rng: random.Random) -> list[list[int]]:
    """A random integer matrix with determinant +-1 (and an integer inverse)."""
    a = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
    perm = list(range(d))
    rng.shuffle(perm)
    return [a[p] for p in perm]


def _inverse(a: list[list[int]]) -> list[list[Fraction]]:
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def seeded_lie(d: int, rng: random.Random):
    """A Lie bracket: a base algebra in a seeded unimodular basis, scaled."""
    base = {k: {m: Fraction(c) for m, c in v.items()}
            for k, v in rng.choice(_LIE_BASES[d]).items()}
    a = _unimodular(d, rng)
    ainv = _inverse(a)
    scale = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)))
    out = {}
    for j, i in _pairs(d):
        # [y_j, y_i] with y_a = sum_p a[a][p] x_p
        w: dict[int, Fraction] = {}
        for p in range(1, d + 1):
            for q in range(1, d + 1):
                c = a[j - 1][p - 1] * a[i - 1][q - 1]
                if c:
                    for k, v in _bracket_basis(base, d, p, q).items():
                        w[k] = w.get(k, 0) + c * v
        vec: dict[int, Fraction] = {}
        for k, v in w.items():
            if k == 0:
                vec[0] = vec.get(0, 0) + v
                continue
            for m in range(1, d + 1):
                if ainv[k - 1][m - 1]:
                    vec[m] = vec.get(m, 0) + v * ainv[k - 1][m - 1]
        vec = {k: c * scale for k, c in vec.items() if c}
        if vec:
            out[(j, i)] = vec
    assert jacobi_holds(out, d)
    return out


def seeded_non_lie(d: int, rng: random.Random):
    """Random small structure constants that violate the Jacobi identity."""
    while True:
        out = {}
        for j, i in _pairs(d):
            vec = {k: Fraction(rng.randint(-2, 2)) for k in range(0, d + 1)}
            vec = {k: c for k, c in vec.items() if c}
            if vec:
                out[(j, i)] = vec
        if not jacobi_holds(out, d):
            return out


def bracket_text(vec: dict[int, Fraction]) -> str:
    terms = [(c, ["e0" if k == 0 else f"x{k}"]) for k, c in sorted(vec.items())]
    return _element(terms)


# ---------------------------------------------------------------------------
# cochains on commutator systems


def cochain_skeleton(d: int, rng: random.Random):
    """Per rule, 1-3 terms +-1, +-2 * hbar * (distinct monomial of degree <= 2)."""
    monos = [m for deg in range(3) for m in _monomials(d, deg)]
    return {ji: [(rng.choice(_COEFFS), m)
                 for m in rng.sample(monos, rng.randint(1, 3))]
            for ji in _pairs(d)}


def cochain_values(skeleton, rng: random.Random) -> dict:
    """The skeleton cochain times one seeded scale (a rescaling of hbar)."""
    scale = rng.choice(_SCALES)
    out = {}
    for ji, terms in sorted(skeleton.items()):
        out[ji] = _element([(scale * c, ["hbar"] + (_mono_factors(m) or ["e0"]))
                            for c, m in terms])
    return out


def lie_cochain_values(br) -> dict:
    """hbar * [x_j, x_i] for a Lie bracket (an associative deformation)."""
    out = {}
    for ji, vec in sorted(br.items()):
        terms = [(c, ["hbar", "e0" if k == 0 else f"x{k}"])
                 for k, c in sorted(vec.items())]
        out[ji] = _element(terms)
    return out


def _factor(exps, rng) -> str:
    c = rng.choice(_ARG_COEFFS)
    return _element([(c, _mono_factors(exps))])


def _reversal_pair(d: int, a: int, b: int, rng: random.Random):
    """f heavy in high variables, g in low ones: every letter pair inverts."""
    hi = [0] * d
    lo = [0] * d
    for _ in range(a):
        hi[rng.randrange(d // 2, d)] += 1
    for _ in range(b):
        lo[rng.randrange(0, (d + 1) // 2)] += 1
    return tuple(hi), tuple(lo)


def _random_pair(d: int, a: int, b: int, rng: random.Random):
    return rng.choice(_monomials(d, a)), rng.choice(_monomials(d, b))


# ---------------------------------------------------------------------------
# the criterion-03 quiver with formal lam, mu (rewriting cycles until
# truncation at order 8)

NF_ARROWS = [("x", "1", "2"), ("y1", "2", "3"), ("y2", "2", "3"),
             ("z", "3", "4"), ("w", "2", "4")]
NF_PAIRS = [(("x",), ("y1", "z")), (("x", "y2"), ("z",)), (("x",), ("y1",)),
            (("y2",), ("z",)), (("x",), ("y2", "z")), (("x", "y1"), ("z",)),
            (("x",), ("w",)), (("y1",), ("z",))]


def nf_text(rng: random.Random, lam: Fraction, mu: Fraction) -> str:
    arrows = list(NF_ARROWS)
    rng.shuffle(arrows)
    lines = ["vertex 1 2 3 4"]
    lines += [f"arrow {a} : {s} -> {t}" for a, s, t in arrows]
    lines += ["param lam mu", "set trunc 8", "rule x*y1 -> 0", "rule y2*z -> 0",
              f"deform x*y1 -> {_element([(lam, ['lam', 'x', 'y2'])])}",
              f"deform y2*z -> {_element([(mu, ['mu', 'y1', 'z'])])}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads


def star_rewrite(seed: int) -> Round:
    """star and mc jobs: reduce_full does almost all the work.

    Commutator systems d=2,3 at trunc 3 with skeleton cochains, factors of
    degree 2-5 (one pair per cochain with every letter pair inverted), one mc
    job per d=3 cochain plus one on a Lie cochain that passes, and a minority
    of jobs on the formal lam/mu quiver, whose rewriting cycles until the
    truncation at order 8 cuts it.
    """
    shape = random.Random("star-rewrite/skeleton")
    rng = random.Random(f"star-rewrite/{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []
    lam, mu = rng.choice(_FACTOR_COEFFS), rng.choice(_FACTOR_COEFFS)
    files["nf.txt"] = nf_text(rng, lam, mu)
    nf_jobs = []
    for left, right in NF_PAIRS:
        ca, cb = rng.choice(_ARG_COEFFS), rng.choice(_ARG_COEFFS)
        a, b = _element([(ca, list(left))]), _element([(cb, list(right))])
        nf_jobs.append(Job("star", "star/lammu", "nf.txt", ("star", a, b),
                           {"oracle": "lammu", "a": (ca, left), "b": (cb, right),
                            "lam": lam, "mu": mu, "trunc": 8}))
    for c in range(4):
        for d in (2, 3):
            skeleton = cochain_skeleton(d, shape)
            name = f"comm{d}-{c}.txt"
            files[name], _, _ = commutator_text(
                d, rng, params=("hbar",), trunc=3,
                deform=cochain_values(skeleton, rng))
            pairs = [_reversal_pair(d, shape.randint(3, 4), shape.randint(3, 4),
                                    shape)]
            pairs += [_random_pair(d, shape.randint(2, 5), shape.randint(2, 5),
                                   shape) for _ in range(3)]
            for f, g in pairs:
                jobs.append(Job("star", f"star/d{d}", name,
                                ("star", _factor(f, rng), _factor(g, rng)),
                                {"oracle": "graphical"}))
            if d == 3:
                jobs.append(Job("mc", "mc/d3", name, ("mc",)))
        if c == 1:
            lie = f"lie3-{c}.txt"
            files[lie], _, _ = commutator_text(
                3, rng, params=("hbar",), trunc=3,
                deform=lie_cochain_values(seeded_lie(3, rng)))
            jobs.append(Job("mc", "mc/lie", lie, ("mc",)))
        jobs.extend(nf_jobs[2 * c: 2 * c + 2])
    return Round(files, jobs)


def hkr_dimension(d: int, bound: int) -> int:
    """dim HH^2 of k[x1..xd] in cochain lengths <= bound (HKR)."""
    return comb(d, 2) * sum(comb(m + d - 1, d - 1) for m in range(bound + 1))


def hh2_elim(seed: int) -> Round:
    """hh2 jobs: elimination dominates commutator systems (d, --cap b), the
    associator passes dominate the Brauer zigzag algebras n=5..10."""
    rng = random.Random(f"hh2-elim/{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []
    comm = [(2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]
    brauer = list(range(5, 11))
    for idx in range(max(len(comm), len(brauer))):
        if idx < len(comm):
            d, b = comm[idx]
            name = f"hh2-comm{d}-b{b}.txt"
            files[name], _, _ = commutator_text(d, rng)
            jobs.append(Job("hh2", "hh2/comm", name, ("hh2", "--cap", str(b)),
                            {"dim": hkr_dimension(d, b)}))
        if idx < len(brauer):
            n = brauer[idx]
            name = f"hh2-brauer{n}.txt"
            files[name], _ = brauer_text(n, rng)
            jobs.append(Job("hh2", "hh2/brauer", name, ("hh2",), {"dim": 1}))
    return Round(files, jobs)


def graph_calculus(seed: int) -> Round:
    """quantize compare jobs: eval_graph does the work, rewriting little.

    A third of the jobs are d=3, so the tail percentile sits inside the d=3
    cluster and the median inside the d=2 one.
    """
    shape = random.Random("graph-calculus/skeleton")
    rng = random.Random(f"graph-calculus/{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []
    for c in range(2):
        for d in (2, 2, 3):
            name = f"gc{d}-{len(files)}.txt"
            files[name], _, _ = commutator_text(
                d, rng, params=("hbar",), trunc=3,
                deform=cochain_values(cochain_skeleton(d, shape), rng))
            jobs.append(Job("compare", f"compare/d{d}", name,
                            ("quantize", "compare"),
                            {"pairs": len([m for k in range(3)
                                           for m in _monomials(d, k)]) ** 2}))
    return Round(files, jobs)


def _strict_names(d, arrows, pairs):
    """Unknown names in the order of variety.cochain_basis (strict)."""
    names, coords = [], []
    for j, i in pairs:
        for target in ["e0"] + arrows:
            k = 0 if target == "e0" else int(target[1:])
            names.append(f"c{j}{i}_{k}")
            coords.append(((j, i), k))
    return names, coords


def _order_names(d, pairs):
    """Unknown names for --cond order with arrows declared x1..xd and
    order x1 < ... < xd: targets of length <= 2 below x_j*x_i in deglex."""
    names, coords = [], []
    quad = [(a, b) for a in range(1, d + 1) for b in range(a, d + 1)]
    for j, i in pairs:
        targets = [0] + list(range(1, d + 1)) + [q for q in quad if q < (j, i)]
        for t in targets:
            label = "".join(map(str, t)) if isinstance(t, tuple) else str(t)
            names.append(f"c{j}{i}_{label}")
            coords.append(((j, i), t))
    return names, coords


def _lie_point(br, coords):
    return {name: br.get(ji, {}).get(k, Fraction(0)) if isinstance(k, int)
            else Fraction(0) for name, (ji, k) in coords}


def _variety_comm(d, rng, cond):
    """A variety job on the commutator system, named unknowns in basis
    order, two Lie points on the variety and one non-Lie point off it."""
    if cond == "order":
        order = [f"x{i}" for i in range(1, d + 1)]
        text, arrows, pairs = commutator_text(d, rng, order=order,
                                              shuffle_arrows=False)
        names, coords = _order_names(d, pairs)
    else:
        text, arrows, pairs = commutator_text(d, rng)
        names, coords = _strict_names(d, arrows, pairs)
    named = list(zip(names, coords))
    on = [_lie_point(seeded_lie(d, rng), named) for _ in range(2)]
    off = [_lie_point(seeded_non_lie(d, rng), named)]
    text += "unknown " + " ".join(names) + "\n"
    return text, {"names": names, "on": on, "off": off}


def _variety_brauer(n, rng):
    """A strict variety job on a Brauer algebra.  The points come from the
    mu_i = 0 slice of the family that solves every MC equation (criterion
    05): a1 = b1 = t and l_k = +-t alternating; a1 != b1 is off it."""
    text, rule_list = brauer_text(n, rng)
    names = []
    for lhs, _ in rule_list:
        if lhs == "x1*y1*x1":
            names.append("a1")
        elif lhs == "y1*x1*y1":
            names.append("b1")
        elif lhs.startswith("x") and "*y" in lhs:
            names.append(f"l{lhs.split('*')[0][1:]}")   # x_k*y_k -> e_k
    t = rng.choice((Fraction(1), Fraction(-2), Fraction(1, 3)))

    def point(a1, b1):
        p = {"a1": a1, "b1": b1}
        for name in names:
            if name.startswith("l"):
                k = int(name[1:])
                p[name] = t if k % 2 else -t
        return p

    text += "unknown " + " ".join(names) + "\n"
    return text, {"names": names, "on": [point(t, t)], "off": [point(t, 2 * t)]}


def _full_rank(m: int, rng: random.Random) -> list[list[int]]:
    while True:
        a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        if _det(a) != 0:
            return a


def _det(a) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _complete_comm(d, rng):
    order = [f"x{i}" for i in range(1, d + 1)]
    rng.shuffle(order)
    rank = {a: r for r, a in enumerate(order)}
    text, _, _ = commutator_text(d, rng, order=order, rules=False)
    comms = [(f"x{j}", f"x{i}") for j, i in _pairs(d)]
    rels = []
    for row in _full_rank(len(comms), rng):
        terms = []
        for c, (a, b) in zip(row, comms):
            if c:
                terms += [(Fraction(c), [a, b]), (Fraction(-c), [b, a])]
        rels.append(_element(terms))
    for _ in range(2):
        a, b = rng.choice(comms)
        x = rng.choice(order)
        c = rng.choice(_FACTOR_COEFFS)
        word = ([x, a, b], [x, b, a]) if rng.random() < 0.5 else \
            ([a, b, x], [b, a, x])
        rels.append(_element([(c, word[0]), (-c, word[1])]))
    rng.shuffle(rels)
    known = set()
    for a, b in comms:
        hi, lo = (a, b) if rank[a] > rank[b] else (b, a)
        known.add((f"{hi}*{lo}", f"{lo}*{hi}"))
    rules_text = text + "".join(f"rule {lhs} -> {rhs}\n" for lhs, rhs in
                                sorted(known))
    return text, "".join(f"rel {r}\n" for r in rels), known, rules_text


def _complete_brauer(n, rng):
    ys = [f"y{i}" for i in range(1, n - 1)]
    xs = [f"x{i}" for i in range(1, n - 1)]
    rng.shuffle(ys)
    rng.shuffle(xs)
    text, rule_list = brauer_text(n, rng, order=ys + xs, rules=False)
    rels = []
    for i in range(1, n - 2):
        c = rng.choice(_FACTOR_COEFFS)
        rels.append(_element([(c, [f"x{i}", f"x{i + 1}"])]))
        rels.append(_element([(c, [f"y{i + 1}", f"y{i}"])]))
        rels.append(_element([(c, [f"x{i + 1}", f"y{i + 1}"]),
                              (-c, [f"y{i}", f"x{i}"])]))
    rels.append(_element([(Fraction(1), ["y1", "x1", "x2"])]))
    rng.shuffle(rels)
    known = {(lhs, rhs) for lhs, rhs in brauer_rules(n)}
    rules_text = text + "".join(f"rule {lhs} -> {rhs}\n" for lhs, rhs in
                                sorted(known))
    return text, "".join(f"rel {r}\n" for r in rels), known, rules_text


def _reduce_comm(d, rng):
    terms = []
    expected: dict[tuple[str, ...], Fraction] = {}
    for n in range(rng.randint(1, 4)):
        word = [f"x{rng.randint(1, d)}" for _ in range(rng.randint(2, 6))]
        c = rng.choice(_ARG_COEFFS if n == 0 else _FACTOR_COEFFS)
        terms.append((c, word))
        nf = tuple(sorted(word, key=lambda a: int(a[1:])))
        expected[nf] = expected.get(nf, 0) + c
    return _element(terms), {w: c for w, c in expected.items() if c}


_NF_PATHS = [("x", "y1"), ("x", "y2"), ("x", "w"), ("y1", "z"), ("y2", "z"),
             ("x", "y1", "z"), ("x", "y2", "z"), ("x",), ("w",)]


def _reduce_nf(rng):
    terms = []
    expected: dict[tuple[str, ...], Fraction] = {}
    for n, path in enumerate(rng.sample(_NF_PATHS, rng.randint(1, 4))):
        c = rng.choice(_ARG_COEFFS if n == 0 else _FACTOR_COEFFS)
        terms.append((c, list(path)))
        joined = "*".join(path)
        if "x*y1" not in joined and "y2*z" not in joined:
            expected[path] = expected.get(path, 0) + c
    return _element(terms), expected


def symbolic_mix(seed: int) -> Round:
    """Many short variety, complete, diamond and reduce jobs on freshly built
    systems, where a cache has nothing to reuse."""
    rng = random.Random(f"symbolic-mix/{seed}")
    files: dict[str, str] = {}
    heavy: list[Job] = []
    light: list[Job] = []
    for part in range(2):
        _symbolic_part(f"p{part}-", rng, files, heavy, light)
    rng.shuffle(light)
    # spread the heavier jobs evenly through the short ones
    jobs: list[Job] = []
    step = len(light) / len(heavy)
    for i, job in enumerate(heavy):
        jobs.append(job)
        jobs.extend(light[round(i * step): round((i + 1) * step)])
    return Round(files, jobs)


def _symbolic_part(prefix, rng, files, heavy, light):
    for d, cond in ((3, "strict"), (4, "strict"), (3, "order")):
        name = f"{prefix}variety-comm{d}-{cond}.txt"
        files[name], expect = _variety_comm(d, rng, cond)
        heavy.append(Job("variety", f"variety/comm-{cond}", name,
                         ("variety", "--cond", cond), expect))
    for n in (5, 6, 7):
        name = f"{prefix}variety-brauer{n}.txt"
        files[name], expect = _variety_brauer(n, rng)
        heavy.append(Job("variety", "variety/brauer", name, ("variety",),
                         expect))
    for idx, (kind, size) in enumerate((("comm", 2), ("comm", 3), ("comm", 3),
                                        ("comm", 4), ("brauer", 4),
                                        ("brauer", 5), ("brauer", 6))):
        build = _complete_comm if kind == "comm" else _complete_brauer
        text, rels, known, rules_text = build(size, rng)
        name, rel = f"{prefix}complete-{idx}.txt", f"{prefix}complete-{idx}.rel"
        files[name], files[rel] = text, rels
        heavy.append(Job("complete", f"complete/{kind}", name,
                         ("complete", rel), {"rules": known,
                                             "system": rules_text},
                         files=(rel,)))
    for idx in range(10):
        d = 3 if idx < 6 else 4
        br = seeded_lie(d, rng) if idx % 2 == 0 else seeded_non_lie(d, rng)
        name = f"{prefix}diamond-{idx}.txt"
        files[name], _, _ = commutator_text(
            d, rng, rhs_extra={ji: bracket_text(v) for ji, v in br.items()})
        light.append(Job("diamond", f"diamond/comm{d}", name, ("diamond",),
                         {"verdict": "pass" if jacobi_holds(br, d) else "fail"}))
    name = f"{prefix}diamond-brauer.txt"
    files[name], _ = brauer_text(6, rng)
    light.append(Job("diamond", "diamond/brauer", name, ("diamond",),
                     {"verdict": "pass"}))
    for d in (3, 4):
        name = f"{prefix}reduce-comm{d}.txt"
        files[name], _, _ = commutator_text(d, rng)
        for _ in range(10):
            elem, expected = _reduce_comm(d, rng)
            light.append(Job("reduce", "reduce/comm", name, ("reduce", elem),
                             {"terms": expected}))
    name = f"{prefix}reduce-nf.txt"
    files[name] = nf_text(rng, Fraction(1), Fraction(1))
    for _ in range(6):
        elem, expected = _reduce_nf(rng)
        light.append(Job("reduce", "reduce/nf", name, ("reduce", elem),
                         {"terms": expected}))


BUILDERS = {
    "star-rewrite": star_rewrite,
    "hh2-elim": hh2_elim,
    "graph-calculus": graph_calculus,
    "symbolic-mix": symbolic_mix,
}


def build(workload: str, seed: int) -> Round:
    return BUILDERS[workload](seed)
