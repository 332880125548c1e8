"""The cocycle map from single-word normal forms against the generic pass it
replaced.

``cocycle_space`` sums c * red(q u r) over the rewrites c*(q s r) that
resolve each overlap.  The reference below is the earlier pass: one generic
cochain sum_i T*c[i]*(s_i -> u_i) pushed through ``associator_defects``, its
columns read off the coefficients of T*c[i].  T is a symbol that no problem
file can declare, so the rules never meet it.  Both must give the same matrix
and kernel, or fail with the same exception type, whether or not the rules
satisfy the diamond condition.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_brauer
from test_cli_fuzz import commutator, random_file
from test_coboundary import _outcome, lower_terms
from test_cohomology import REFERENCE_SYSTEMS
from test_reduction_engine import _homogeneous_relations
from pathalg.cli import ParseError, parse_problem
from pathalg.cohomology import Echelon, cocycle_space, two_cochain_basis
from pathalg.quantization import commutator_system
from pathalg.quiver_core import AdmissibleOrder, PolyScalar, UsageError
from pathalg.reduction_engine import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CompletionError,
    complete,
)
from pathalg.star_product import DeformationCochain, associator_defects, generic_values

ORACLE_BUDGET = 20_000  # reduction steps per call, for both passes
T = "t[]"  # the first-order symbol of the reference: no file can declare it


def reference_cocycle_space(R, bound=None, budget=DEFAULT_BUDGET):
    """(matrix, kernel) of the generic pass: the coefficient of T times the
    i-th unknown in the defects of the generic cochain is column i; a
    constant belongs to every column; any other monomial is not rational."""
    basis = two_cochain_basis(R, bound)
    rows = {}
    if basis:
        t = PolyScalar.var(T, is_param=True, trunc=1)
        unknowns = {f"c[{i}]": i for i in range(len(basis))}
        values = generic_values(R, basis, unknowns)
        cochain = DeformationCochain(R, {s: v.scale(t) for s, v in values.items()},
                                     trunc=1)
        for idx, _, defect in associator_defects(cochain, budget):
            for p, c in defect.coefficient_of(T, 1).terms.items():
                const, entries = 0, {}
                for m, q in c.terms.items():
                    if not m:
                        const = q
                    elif len(m) == 1 and m[0][1] == 1 and m[0][0] in unknowns:
                        entries[unknowns[m[0][0]]] = q
                    else:
                        raise UsageError(f"not a rational constant: {c}")
                rows[(idx, p)] = tuple(const + entries.get(j, 0)
                                       for j in range(len(basis)))
    keys = sorted(rows, key=lambda k: (k[0], k[1].sort_key()))
    matrix = [rows[k] for k in keys if any(rows[k])]
    return matrix, Echelon(matrix).kernel(len(basis))


def check_agrees(R, bound):
    """Equal matrix and kernel, or the same exception type; returns the outcome."""
    def new():
        space = cocycle_space(R, bound, ORACLE_BUDGET)
        return space.matrix, space.kernel

    got = _outcome(new)
    assert got == _outcome(lambda: reference_cocycle_space(R, bound, ORACLE_BUDGET))
    return got


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_reference_systems(name):
    build, bound = REFERENCE_SYSTEMS[name]
    matrix, _ = check_agrees(build(), bound)
    assert matrix or name.startswith("commutator")


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_commutator_systems(d, bound):
    assert isinstance(check_agrees(commutator_system(d)[1], bound), tuple)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_brauer_algebras(n):
    matrix, kernel = check_agrees(make_brauer(n)[1], None)
    assert matrix and kernel


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


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.one_of(random_file, commutator, lower_terms), st.integers(1, 2))
def test_fuzz_grammar_files(text, bound):
    """Problem files of the CLI fuzz grammar and commutator rules with lower
    terms, with hbar, t^2 and lam in the rules; no diamond filter."""
    try:
        R = parse_problem(text + "\n").system
    except (ParseError, UsageError):
        return
    check_agrees(R, bound)


def test_parameters_in_rules_lie_past_order_1():
    """hbar and t^2 in the rules times a cochain term lie past order 1."""
    text = "\n".join(["vertex 0 1", "param hbar t", "arrow a : 0 -> 1",
                      "arrow b : 1 -> 0", "rule a*b -> hbar*e0 + t^2*e0",
                      "rule b*a -> hbar*e1 + t^2*e1"])
    matrix, kernel = check_agrees(parse_problem(text).system, 2)
    assert matrix and kernel


def test_a_non_rational_entry_names_the_overlap():
    text = "\n".join(["vertex 0", "unknown lam", "arrow x : 0 -> 0",
                      "arrow y : 0 -> 0", "rule x*x -> lam*x", "rule y*x -> 0"])
    R = parse_problem(text).system
    assert check_agrees(R, 2) is UsageError
    with pytest.raises(UsageError, match=r"^the defect on the overlap x\*x\*x has the "
                                         "entry -lam: hh2 needs rational rule"):
        cocycle_space(R, 2)
