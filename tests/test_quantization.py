"""Units for polynomial Poisson structures and the graph expansion."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from pathalg.quantization import (
    _stratum_weights,
    F_SLOT,
    G_SLOT,
    HBAR,
    KGraph,
    PoissonBivector,
    commutator_system,
    enumerate_graphs,
    eval_graph,
    gauge_phi,
    graphical_star,
    monomial,
    moyal,
    poisson_to_cochain,
    poly_diff,
    quantize_check,
    schouten_jacobi_check,
)
from pathalg.quiver_core import Element, PolyScalar, UsageError
from pathalg.reduction_engine import reduce_full
from pathalg.star_product import star


def _hbar(trunc):
    return PolyScalar.var(HBAR, is_param=True, trunc=trunc)


class TestCommutatorSystem:
    def test_rule_count(self):
        q, R = commutator_system(4)
        assert len(R.rules) == 6  # one per pair j > i
        assert len(q.arrows) == 4

    def test_cached_identity(self):
        q1, R1 = commutator_system(3)
        q2, R2 = commutator_system(3)
        assert q1 is q2 and R1 is R2

    def test_dimension_validated(self):
        with pytest.raises(UsageError):
            commutator_system(0)

    def test_monomial_forms(self):
        q, _ = commutator_system(3)
        assert repr(monomial(q, (1, 0, 2)).paths()[0]) == "x1*x3*x3"
        assert repr(monomial(q, {2: 1}).paths()[0]) == "x2"
        assert monomial(q, ()).paths()[0].is_trivial

    def test_poly_diff(self):
        q, _ = commutator_system(2)
        d = poly_diff(monomial(q, (2, 1)), 1)
        assert d == monomial(q, (1, 1), PolyScalar.rational(2))
        assert poly_diff(monomial(q, (0, 3)), 1).is_zero()


class TestPoissonBivector:
    def test_antisymmetric_entry(self):
        q, _ = commutator_system(2)
        eta = PoissonBivector(2, {(2, 1): monomial(q, (1, 0))})
        assert eta.entry(2, 1) == monomial(q, (1, 0))
        assert eta.entry(1, 2) == -monomial(q, (1, 0))
        assert eta.entry(1, 1).is_zero()

    def test_index_validation(self):
        q, _ = commutator_system(2)
        with pytest.raises(UsageError):
            PoissonBivector(2, {(1, 2): monomial(q, ())})

    def test_is_constant(self):
        q, _ = commutator_system(2)
        assert PoissonBivector(2, {(2, 1): monomial(q, ())}).is_constant()
        assert not PoissonBivector(2, {(2, 1): monomial(q, (1, 0))}).is_constant()


class TestJacobi:
    def test_constant_passes(self):
        q, _ = commutator_system(3)
        eta = PoissonBivector(3, {(2, 1): monomial(q, ()),
                                  (3, 1): monomial(q, (0, 0, 1))})
        assert schouten_jacobi_check(eta).verdict

    def test_quadratic_passes(self):
        q, _ = commutator_system(3)
        lam = PolyScalar.var("lam")
        v = monomial(q, (2, 0, 0)) + monomial(q, (0, 1, 1), lam)
        eta = PoissonBivector(3, {(3, 2): -v})
        assert schouten_jacobi_check(eta).verdict

    def test_failure_detected(self):
        q, _ = commutator_system(3)
        eta = PoissonBivector(3, {(2, 1): monomial(q, (0, 1, 0)),
                                  (3, 2): monomial(q, (1, 0, 0))})
        report = schouten_jacobi_check(eta)
        assert not report.verdict
        assert any(not v.is_zero() for _, v in report.defects)


class TestQuantizeCheck:
    def test_quadratic_poisson_quantizes(self):
        q, R = commutator_system(3)
        lam = PolyScalar.var("lam")
        v = monomial(q, (2, 0, 0)) + monomial(q, (0, 1, 1), lam)
        eta = PoissonBivector(3, {(3, 2): -v})
        report = quantize_check(poisson_to_cochain(eta, trunc=4))
        assert report.verdict

    def test_constant_always_quantizes(self):
        q, R = commutator_system(2)
        eta = PoissonBivector(2, {(2, 1): monomial(q, ())})
        assert quantize_check(poisson_to_cochain(eta, trunc=3)).verdict

    def test_poisson_to_cochain_is_hbar_linear(self):
        q, _ = commutator_system(2)
        eta = PoissonBivector(2, {(2, 1): monomial(q, (1, 0))})
        cochain = poisson_to_cochain(eta, trunc=3)
        s = q.path("x2", "x1")
        value = cochain.values[s]
        assert value.coefficient_of(HBAR, 1) == monomial(q, (1, 0))
        assert value.coefficient_of(HBAR, 2).is_zero()


class TestGraphEnumeration:
    def test_known_counts(self):
        assert len(enumerate_graphs(1)) == 1
        assert len(enumerate_graphs(2)) == 6
        assert len(enumerate_graphs(3)) == 80

    def test_bounds_validated(self):
        with pytest.raises(UsageError):
            enumerate_graphs(0)
        with pytest.raises(UsageError):
            enumerate_graphs(5, cap=4)

    def test_k1_graph_shape(self):
        (g,) = enumerate_graphs(1)
        assert g.targets == ((G_SLOT, F_SLOT),)
        assert g.order_at(F_SLOT) == (0,) and g.order_at(G_SLOT) == (0,)

    def test_every_graph_has_two_out_edges_per_vertex(self):
        for g in enumerate_graphs(2):
            assert len(g.targets) == 2
            assert all(len(pair) == 2 for pair in g.targets)


def _min_permutation_form(k, targets, orders):
    """Reference: the least relabeled (targets, orders) over all k! relabelings."""
    best = None
    for perm in itertools.permutations(range(k)):
        relabel = dict(enumerate(perm)) | {F_SLOT: F_SLOT, G_SLOT: G_SLOT}
        enc_t = tuple(pair for _, pair in sorted(
            (relabel[v], tuple(sorted((relabel[a], relabel[b]))))
            for v, (a, b) in enumerate(targets)))
        enc_o = tuple(sorted((relabel[n], tuple(relabel[s] for s in srcs))
                             for n, srcs in orders))
        best = min(best or (enc_t, enc_o), (enc_t, enc_o))
    return best


def _brute_force_graphs(k):
    """Reference: every acyclic candidate, deduplicated by its k! min form."""
    nodes = list(range(k)) + [F_SLOT, G_SLOT]
    forms = set()
    for combo in itertools.product(*[
            itertools.combinations([n for n in nodes if n != v], 2)
            for v in range(k)]):
        incoming = {}
        for v, pair in enumerate(combo):
            for t in pair:
                incoming.setdefault(t, []).append(v)
        for orders in itertools.product(*[
                [(n, perm) for perm in itertools.permutations(srcs)]
                for n, srcs in sorted(incoming.items())]):
            try:
                KGraph(k, combo, orders)
            except UsageError:  # an oriented cycle
                continue
            forms.add(_min_permutation_form(k, combo, orders))
    return sorted(forms)


class TestGraphEnumerationReference:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_brute_force(self, k):
        assert [(g.targets, g.orders) for g in enumerate_graphs(k)] == \
            _brute_force_graphs(k)

    def test_stratum_four(self):
        graphs = enumerate_graphs(4)
        assert len(graphs) == 1754
        assert len({(g.targets, g.orders) for g in graphs}) == 1754
        for g in graphs:
            assert _min_permutation_form(4, g.targets, g.orders) == \
                (g.targets, g.orders)


class TestKGraphValidation:
    def test_loop_rejected(self):
        with pytest.raises(UsageError):
            KGraph(1, ((0, F_SLOT),), ((F_SLOT, (0,)),))

    def test_parallel_edges_rejected(self):
        with pytest.raises(UsageError):
            KGraph(1, ((F_SLOT, F_SLOT),), ((F_SLOT, (0, 0)),))

    def test_cycle_rejected(self):
        with pytest.raises(UsageError):
            KGraph(2, ((1, F_SLOT), (0, G_SLOT)),
                   ((0, (1,)), (1, (0,)), (F_SLOT, (0,)), (G_SLOT, (1,))))

    def test_orders_must_cover_incoming(self):
        with pytest.raises(UsageError):
            KGraph(1, ((G_SLOT, F_SLOT),), ((F_SLOT, (0,)),))


class TestEvalGraph:
    def _setup(self):
        q, R = commutator_system(2)
        eta = PoissonBivector(2, {(2, 1): monomial(q, ())})
        return q, R, poisson_to_cochain(eta, trunc=3)

    def test_single_descent(self):
        q, R, cochain = self._setup()
        (g,) = enumerate_graphs(1)
        out = eval_graph(g, cochain, monomial(q, (0, 1)), monomial(q, (1, 0)))
        assert out == Element.from_path(q.trivial("0"), _hbar(3))

    def test_no_descent_vanishes(self):
        q, R, cochain = self._setup()
        (g,) = enumerate_graphs(1)
        out = eval_graph(g, cochain, monomial(q, (1, 0)), monomial(q, (0, 1)))
        assert out.is_zero()

    def test_divided_derivative_multiplicity(self):
        q, R, cochain = self._setup()
        (g,) = enumerate_graphs(1)
        out = eval_graph(g, cochain, monomial(q, (0, 2)), monomial(q, (1, 0)))
        assert out == monomial(q, (0, 1), _hbar(3).scale(2))


class TestGraphicalStar:
    def test_matches_star_on_samples(self):
        q, R = commutator_system(2)
        eta = PoissonBivector(2, {(2, 1): monomial(q, ())})
        cochain = poisson_to_cochain(eta, trunc=3)
        samples = [(monomial(q, (0, 2)), monomial(q, (2, 0))),
                   (monomial(q, (1, 1)), monomial(q, (1, 1))),
                   (monomial(q, (0, 3)), monomial(q, (1, 0)))]
        for f, g in samples:
            assert graphical_star(f, g, cochain) == star(f, g, cochain)

    def test_merged_table_equals_sum_over_graphs(self):
        # graphical_star applies all strata as one merged table; graph by
        # graph through eval_graph the expansion must come out the same
        q, R = commutator_system(2)
        eta = PoissonBivector(2, {(2, 1): monomial(q, (1, 0)) + monomial(q, (0, 2))})
        cochain = poisson_to_cochain(eta, trunc=3)
        f, g = monomial(q, (1, 2)), monomial(q, (2, 1))
        expected = monomial(q, (3, 3))
        for k in (1, 2, 3):
            for graph in enumerate_graphs(k):
                expected = expected + eval_graph(graph, cochain, f, g)
        assert graphical_star(f, g, cochain) == expected.truncated(3)
        assert graphical_star(f, g, cochain) == star(f, g, cochain)


class TestWeightTables:
    """The graph star applies one integer table per (d, strata), shared by
    every cochain, to f and g in exponent space."""

    def _cochains(self):
        # a d=2 cochain first, so d=2 and d=3 tables live side by side, then
        # two different non-constant d=3 cochains
        q2, R2 = commutator_system(2)
        q, R = commutator_system(3)
        lam = PolyScalar.var("lam")
        etas = [(R2, PoissonBivector(2, {(2, 1): monomial(q2, (2, 0))})),
                (R, PoissonBivector(3, {(3, 2): -(monomial(q, (2, 0, 0))
                                                  + monomial(q, (0, 1, 1), lam))})),
                (R, PoissonBivector(3, {(2, 1): monomial(q, (0, 0, 2)),
                                        (3, 1): monomial(q, (1, 1, 0))}))]
        return [(R, poisson_to_cochain(eta, trunc=3)) for R, eta in etas]

    def _graph_sum(self, f, g, cochain):
        total = reduce_full(f * g, cochain.system)
        for k in (1, 2, 3):
            for graph in enumerate_graphs(k):
                total = total + eval_graph(graph, cochain, f, g)
        return total

    def _check(self, pairs):
        for R, cochain in self._cochains():
            q = R.quiver
            d = len(q.arrows)
            for f, g in pairs(q, d):
                expected = star(f, g, cochain)
                assert graphical_star(f, g, cochain) == expected
                assert self._graph_sum(f, g, cochain).truncated(3) == expected

    def test_cochains_share_one_table(self):
        self._check(lambda q, d: [(monomial(q, (1,) + (2,) * (d - 1)),
                                   monomial(q, (2,) * (d - 1) + (1,)))])
        # fresh cochains of the same dimensions build no new table
        misses = _stratum_weights.cache_info().misses
        for _, cochain in self._cochains():
            x1x2 = monomial(cochain.system.quiver, (1, 1))
            graphical_star(x1x2, x1x2, cochain)
        assert _stratum_weights.cache_info().misses == misses

    def test_cap_above_strata_builds_no_table(self):
        # strata = min(trunc, cap) is 3 for every cap >= 3 at trunc 3
        _, cochain = self._cochains()[1]
        x1x2 = monomial(cochain.system.quiver, (1, 1))
        expected = graphical_star(x1x2, x1x2, cochain)
        misses = _stratum_weights.cache_info().misses
        for cap in (4, 5, 7):
            _, fresh = self._cochains()[1]
            assert graphical_star(x1x2, x1x2, fresh, cap=cap) == expected
        assert _stratum_weights.cache_info().misses == misses

    def test_non_monomial_factors_with_parameter(self):
        # f = x1 + hbar*x2, g = x_d^2 + 2*x1*x2: coefficients and binomials
        # go through the exponent-space apply
        def pairs(q, d):
            f = monomial(q, {1: 1}) + monomial(q, {2: 1}, _hbar(3))
            g = (monomial(q, {d: 2})
                 + monomial(q, {1: 1, 2: 1}, PolyScalar.rational(2)))
            return [(f, g), (g, f)]
        self._check(pairs)


class TestMoyalAndGauge:
    def _eta(self):
        q, R = commutator_system(2)
        return q, R, PoissonBivector(2, {(2, 1): monomial(q, ())})

    def test_moyal_lowest_order(self):
        q, R, eta = self._eta()
        x1, x2 = monomial(q, (1, 0)), monomial(q, (0, 1))
        h = _hbar(4)
        comm = moyal(x2, x1, eta, trunc=4) - moyal(x1, x2, eta, trunc=4)
        assert comm == Element.from_path(q.trivial("0"), h)

    def test_moyal_needs_constant_eta(self):
        q, R = commutator_system(2)
        eta = PoissonBivector(2, {(2, 1): monomial(q, (1, 0))})
        x1 = monomial(q, (1, 0))
        with pytest.raises(UsageError):
            moyal(x1, x1, eta)
        with pytest.raises(UsageError):
            gauge_phi(x1, eta)

    def test_gauge_phi_on_descent_pair(self):
        q, R, eta = self._eta()
        out = gauge_phi(monomial(q, (1, 1)), eta, trunc=3)
        expected = monomial(q, (1, 1)) + Element.from_path(
            q.trivial("0"), _hbar(3).scale(Fraction(1, 2)))
        assert out == expected

    def test_gauge_intertwines_products(self):
        q, R, eta = self._eta()
        cochain = poisson_to_cochain(eta, trunc=3)
        f = monomial(q, (1, 1))
        g = monomial(q, (0, 2))
        left = star(gauge_phi(f, eta, trunc=3), gauge_phi(g, eta, trunc=3),
                    cochain)
        right = gauge_phi(moyal(f, g, eta, trunc=3), eta, trunc=3)
        assert left == right
