"""The coboundary map by linearity against the generic gauge pass it replaced.

``coboundary_space`` reduces each word p_{<i} u p_{>i} once and sums the
normal forms.  The reference below is the earlier pass: one gauge psi with an
unknown b[j] per 1-cochain basis vector, pushed through the multiplicative
extension of T = id + psi*t, its columns read off the coefficients of
t*b[j].  On systems that satisfy the diamond condition both give the same
columns and image, or fail with the same exception type.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import dense
from test_cli_fuzz import commutator, random_file
from test_cohomology import REFERENCE_SYSTEMS, _echelon_rows, _sparse
from test_reduction_engine import _homogeneous_relations
from pathalg.cli import ParseError, parse_problem
from pathalg.cohomology import Echelon, coboundary_space, one_cochain_basis, two_cochain_basis
from pathalg.quantization import commutator_system
from pathalg.quiver_core import AdmissibleOrder, Element, PolyScalar, UsageError
from pathalg.reduction_engine import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CompletionError,
    check_diamond,
    complete,
)
from pathalg.star_product import (
    DeformationCochain,
    GaugeOnArrows,
    _t_of_element,
    generic_values,
)

ORACLE_BUDGET = 20_000  # reduction steps per call, for both passes


def reference_coboundary_space(R, bound=None, budget=DEFAULT_BUDGET):
    """(columns, image) of the generic gauge pass.

    For T = id + psi*t and the undeformed star product,
    T(phi_s) + phitilde'(s)*t = T(s_1) * ... * T(s_m)  (mod t^2);
    the coefficient of t*b[j] in T(s) - T(phi_s) is column j.
    """
    basis2 = two_cochain_basis(R, bound)
    index = {pair: i for i, pair in enumerate(basis2)}
    basis1 = one_cochain_basis(R, bound)
    columns = [[0] * len(basis2) for _ in basis1]
    if basis1:
        zero = DeformationCochain(R, {}, trunc=1)
        t = PolyScalar.var("t", is_param=True, trunc=1)
        unknowns = {f"b[{i}]": i for i in range(len(basis1))}
        values = generic_values(R, basis1, unknowns)
        psi = GaugeOnArrows(R, {x: v.scale(t) for x, v in values.items()})
        for rule in R.rules:
            s = rule.lhs
            induced = _t_of_element(Element.from_path(s) - rule.rhs, psi, zero, budget)
            for p, c in induced.coefficient_of("t", 1).terms.items():
                const, entries = 0, {}
                for m, q in c.terms.items():
                    if not m:
                        const = q
                    elif len(m) == 1 and m[0][1] == 1 and m[0][0] in unknowns:
                        entries[unknowns[m[0][0]]] = q
                    else:
                        raise UsageError(f"not a rational constant: {c}")
                entries = [const + entries.get(j, 0) for j in range(len(basis1))]
                if (s, p) not in index:
                    if any(entries):
                        raise UsageError(f"coboundary target {p!r} outside the "
                                         "capped basis; raise the bound")
                    continue
                for col, c in zip(columns, entries):
                    col[index[(s, p)]] = c
    columns = [tuple(col) for col in columns]
    return columns, _echelon_rows(Echelon(map(_sparse, columns)), len(basis2))


def _outcome(compute):
    try:
        return compute()
    except (UsageError, BudgetExceeded) as exc:
        return type(exc)


def check_agrees(R, bound):
    """Equal columns and image, or the same exception type; returns the outcome."""
    def new():
        space = coboundary_space(R, bound, ORACLE_BUDGET)
        n = len(space.basis)
        return dense(space.columns, n), dense(space.image, n)

    got = _outcome(new)
    assert got == _outcome(lambda: reference_coboundary_space(R, bound, ORACLE_BUDGET))
    return got


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_reference_systems(name):
    build, bound = REFERENCE_SYSTEMS[name]
    assert isinstance(check_agrees(build(), bound), tuple)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_commutator_systems(d, bound):
    # every coboundary is zero here, so terms past the cap must cancel
    columns, image = check_agrees(commutator_system(d)[1], bound)
    assert image == []


@settings(max_examples=25, deadline=None)
@given(_homogeneous_relations(), st.randoms(use_true_random=False),
       st.integers(1, 3))
def test_completed_homogeneous_relations(case, rng, bound):
    """Each relation set, completed under two arrow orders."""
    q, order, gens = case
    arrows = list(q.arrow_names())
    rng.shuffle(arrows)
    for o in (order, AdmissibleOrder(q, arrows)):
        try:
            R = complete(gens, o, max_rounds=3, budget=300)
        except (BudgetExceeded, CompletionError):
            continue  # no small confluent system within these bounds
        check_agrees(R, bound)


# commutator rules with lower terms x_j*x_i -> x_i*x_j + c*m: central
# constants keep the diamond condition, the other terms when they satisfy Jacobi
lower_terms = st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(st.sampled_from(["", "2", "-1/3", "hbar", "lam", "t^2"]),
              st.sampled_from(["e0", "e0", "x1", "x2", "x1*x1"])),
    min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2).map(lambda extra: "\n".join(
        ["vertex 0", "param hbar t", "unknown lam"]
        + [f"arrow x{i} : 0 -> 0" for i in range(1, d + 1)]
        + [f"rule x{j}*x{i} -> x{i}*x{j} + {'*'.join(x for x in term if x)}"
           for (j, i), term in zip([(j, i) for j in range(2, d + 1) for i in range(1, j)],
                                   extra)])))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.one_of(random_file, commutator, lower_terms), st.integers(1, 2))
def test_fuzz_grammar_files(text, bound):
    """Problem files of the CLI fuzz grammar and commutator rules with lower
    terms, with hbar, t^2 and lam in the rules, whose rules satisfy the
    diamond condition."""
    try:
        R = parse_problem(text + "\n").system
    except (ParseError, UsageError):
        return
    if check_diamond(R, ORACLE_BUDGET).verdict == "pass":
        check_agrees(R, bound)


def test_parameters_and_unknowns_in_rules():
    """A parameter times t lies past order 1; an unknown reaches a column."""
    text = "\n".join(["vertex 0 1", "param hbar t", "unknown lam",
                      "arrow a : 0 -> 1", "arrow b : 1 -> 0",
                      "rule a*b -> lam*e0 + t^2*e0", "rule b*a -> lam*e1 + t^2*e1"])
    R = parse_problem(text).system
    assert check_diamond(R).verdict == "pass"
    assert check_agrees(R, 2) is UsageError  # lam*t*psi is not rational
    R = parse_problem(text.replace("lam*", "hbar*")).system
    assert check_diamond(R).verdict == "pass"
    assert check_agrees(R, 2) == ([(0, 0)] * 2, [])


def test_four_dim(four_dim):
    _, R = four_dim
    columns, image = check_agrees(R, None)
    assert image
