"""Radius formulas, cluster graph, budgeted MWIS, full solve, oracle, calibration.

Independent oracles used here:
    - a test-local exhaustive search over ALL subsets of a cluster graph
      (no pruning) for the budgeted MWIS;
    - a test-local scan of every (S, sigma) maximizing the local influence,
      which the solver must match exactly since its cluster scores are exact
      and its independent-set step is exact;
    - closed forms for edgeless and single-edge instances.
"""

import gc
import math
import tracemalloc
import weakref
from itertools import combinations, product

import numpy as np
import pytest

from isingmax import (
    CapacityError,
    Cluster,
    ClusterGraph,
    FamilyParams,
    InfluenceQuery,
    IsingModel,
    SolverConfig,
    WeightVector,
    ball,
    brute_force_infmax,
    budgeted_mwis,
    build_cluster_graph,
    calibrate_decay_constant,
    local_influence,
    power_adjacent,
    radius_schedule,
    random_instance,
    random_weights,
    select_radius,
    solve_infmax,
)


def path_model(n, beta=0.3, h=0.0):
    return IsingModel(n=n, beta={(i, i + 1): beta for i in range(n - 1)}, h=np.full(n, float(h)))


def make_cluster_graph(weights, costs, edges):
    clusters = [
        Cluster(T=(i,), cost=c, weight=w, best_assignment={i: 1})
        for i, (w, c) in enumerate(zip(weights, costs))
    ]
    return ClusterGraph(clusters=clusters, adjacency=sorted(edges), radius=0)


def exhaustive_mwis_value(weights, costs, edges, k):
    """Best independent-set weight under the budget, over ALL subsets."""
    n = len(weights)
    adj = set(edges) | {(j, i) for i, j in edges}
    best = 0.0
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        if sum(costs[i] for i in chosen) > k:
            continue
        if any((a, b) in adj for a, b in combinations(chosen, 2)):
            continue
        best = max(best, sum(weights[i] for i in chosen))
    return best


class TestRadiusFormulas:
    def test_reference_point(self):
        cfg = SolverConfig(k=1, epsilon=0.1, decay_constant=1.0)
        params = FamilyParams.algorithmic(3, 0.5)
        rho, r = radius_schedule(cfg, params)
        # rho = ceil(2 * ln 60) = 9; r = 9 + ceil(2 * (ln 240 + 9 ln 3)) = 9 + 31
        assert math.ceil(2 * math.log(60)) == 9
        assert rho == 9
        assert r == 40
        assert select_radius(cfg, params) == 40

    def test_override_wins(self):
        cfg = SolverConfig(k=3, epsilon=1e-6, radius_override=2)
        assert select_radius(cfg, FamilyParams.algorithmic(3, 0.5)) == 2
        assert select_radius(cfg, None) == 2

    def test_epsilon_shrink_bumps_rho_by_one(self):
        params = FamilyParams.algorithmic(4, 0.25)
        rng = np.random.default_rng(0)
        for _ in range(20):
            eps = float(rng.uniform(0.01, 0.5))
            rho1, _ = radius_schedule(SolverConfig(k=2, epsilon=eps), params)
            rho2, _ = radius_schedule(
                SolverConfig(k=2, epsilon=eps * math.exp(-0.25)), params
            )
            # the argument moves by exactly 1, so the ceiling moves by 1
            # except on exact-integer boundaries (measure zero in sampling)
            assert rho2 - rho1 == 1

    def test_ceilings_and_ordering_sampled(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = float(rng.uniform(0.05, 0.95))
            eps = float(rng.uniform(1e-4, 0.5))
            C = float(rng.uniform(0.5, 4.0))
            k = int(rng.integers(1, 5))
            dm = int(rng.integers(3, 7))
            cfg = SolverConfig(k=k, epsilon=eps, decay_constant=C)
            params = FamilyParams.algorithmic(dm, d)
            rho, r = radius_schedule(cfg, params)
            want_rho = max(1, math.ceil(math.log(6 * C * k / eps) / d))
            want_r = want_rho + max(
                0, math.ceil((math.log(24 * C / eps) + want_rho * math.log(dm)) / d)
            )
            assert (rho, r) == (want_rho, want_r)
            assert r >= rho >= 1

    def test_domain_errors(self):
        cfg = SolverConfig(k=1, epsilon=0.1)
        with pytest.raises(ValueError):
            radius_schedule(cfg, None)
        with pytest.raises(ValueError):
            FamilyParams.algorithmic(3, 1.5)


class TestBuildClusterGraph:
    def test_edgeless_unit_weights(self):
        m = IsingModel(n=3, beta={}, h=np.zeros(3))
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=2)
        H = build_cluster_graph(m, WeightVector.ones(3), cfg, r=2)
        assert [c.T for c in H.clusters] == [(0,), (1,), (2,)]
        for c in H.clusters:
            assert c.weight == pytest.approx(1.0, abs=1e-14)
            assert c.best_assignment == {c.T[0]: 1}
        assert H.adjacency == []

    def test_path3_structure(self):
        m = path_model(3)
        cfg = SolverConfig(k=2, epsilon=0.1)
        H = build_cluster_graph(m, WeightVector.ones(3), cfg, r=0)
        assert [c.T for c in H.clusters] == [(0,), (1,), (2,), (0, 1), (1, 2)]
        pairs = {(H.clusters[i].T, H.clusters[j].T) for i, j in H.adjacency}
        for i, j in combinations(range(len(H.clusters)), 2):
            Ti, Tj = H.clusters[i].T, H.clusters[j].T
            if set(Ti) & set(Tj):
                continue
            assert ((Ti, Tj) in pairs) == power_adjacent(m, Ti, Tj, 0)

    def test_adjacency_matches_definition_on_random_instances(self):
        # adjacent exactly when the clusters overlap or are power-adjacent
        class ZeroScores:
            def local_influence(self, T, sigma, r):
                return 0.0

        for k in (1, 2, 3):
            for r in (0, 1, 2):
                n = 40 if k * r <= 2 else 14  # keeps the pair count small
                m = random_instance(n, 3, (-0.4, 0.4), (-0.5, 0.5), seed=10 * k + r)
                cfg = SolverConfig(k=k, epsilon=0.1, exact_ball_cap=n)
                H = build_cluster_graph(
                    m, WeightVector.ones(n), cfg, r=r, evaluator=ZeroScores()
                )
                assert H.adjacency == sorted(H.adjacency)
                expected = [
                    (i, j)
                    for i, j in combinations(range(len(H.clusters)), 2)
                    if set(H.clusters[i].T) & set(H.clusters[j].T)
                    or power_adjacent(m, H.clusters[i].T, H.clusters[j].T, r)
                ]
                assert H.adjacency == expected, (k, r)
                rebuilt = ClusterGraph(clusters=H.clusters, adjacency=H.adjacency, radius=r)
                assert H.neighbor_sets() == rebuilt.neighbor_sets()
                assert H.max_degree == rebuilt.max_degree

    def test_zero_weights_tie_break_all_plus(self):
        m = path_model(4)
        cfg = SolverConfig(k=2, epsilon=0.1)
        H = build_cluster_graph(m, WeightVector.zeros(4), cfg, r=1)
        for c in H.clusters:
            assert c.weight == 0.0
            assert all(s == 1 for s in c.best_assignment.values())

    def test_scores_are_local_influences(self):
        m = random_instance(10, 3, (-0.4, 0.4), (-0.5, 0.5), seed=21)
        a = random_weights(10, (-1, 1), seed=22)
        cfg = SolverConfig(k=2, epsilon=0.1)
        H = build_cluster_graph(m, a, cfg, r=1)
        for c in H.clusters[:12]:
            best = max(
                local_influence(
                    InfluenceQuery(m, a, c.T, dict(zip(c.T, spins)), radius=1)
                )
                for spins in product((1, -1), repeat=len(c.T))
            )
            assert c.weight == pytest.approx(best, abs=1e-12)

    def test_capacity_error_names_cluster_and_ball(self):
        m = path_model(9)
        cfg = SolverConfig(k=1, epsilon=0.1, exact_ball_cap=3)
        # first offender in canonical order is (1,): B(1,2) = {0,1,2,3}
        with pytest.raises(CapacityError, match=r"cluster \(1,\): \|B\(T,2\)\| = 4"):
            build_cluster_graph(m, WeightVector.ones(9), cfg, r=2)

    def test_scoring_backend_is_swappable(self):
        # any object with local_influence(T, sigma, r) can back the scores
        class FixedScores:
            def local_influence(self, T, sigma, r):
                return float(sum(T)) if all(s == 1 for s in sigma.values()) else -1.0

        m = path_model(4)
        cfg = SolverConfig(k=1, epsilon=0.1)
        H = build_cluster_graph(m, WeightVector.ones(4), cfg, r=0, evaluator=FixedScores())
        assert [c.weight for c in H.clusters] == [0.0, 1.0, 2.0, 3.0]
        assert all(all(s == 1 for s in c.best_assignment.values()) for c in H.clusters)

    def test_scoring_memory_stays_within_a_few_tables(self):
        # tables are freed once their ball is scored, so the peak is that of
        # the largest ball's table, not of every ball's table at once
        m = random_instance(40, 4, (-0.3, 0.3), (-0.5, 0.5), seed=3)
        a = random_weights(40, (-1, 1), seed=4)
        cfg = SolverConfig(k=1, epsilon=0.1)
        largest = max(len(ball(m, (v,), 2)) for v in range(m.n))
        assert largest == 17
        tracemalloc.start()
        try:
            build_cluster_graph(m, a, cfg, r=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (1 << largest) * 8


class TestBudgetedMwis:
    def test_edgeless_top_k(self):
        H = make_cluster_graph([5.0, 3.0, 2.0], [1, 1, 1], [])
        assert budgeted_mwis(H, 2) == [0, 1]

    def test_triangle_takes_heaviest(self):
        H = make_cluster_graph([3.0, 2.0, 1.0], [1, 1, 1], [(0, 1), (0, 2), (1, 2)])
        assert budgeted_mwis(H, 2) == [0]

    def test_path_middle_beats_endpoints(self):
        # independent sets: {}, {a}, {b}, {c}, {a,c}; best is {b} with 5 > 4
        H = make_cluster_graph([2.0, 5.0, 2.0], [1, 1, 1], [(0, 1), (1, 2)])
        assert budgeted_mwis(H, 2) == [1]

    def test_negative_weights_never_forced(self):
        H = make_cluster_graph([-1.0, -5.0], [1, 1], [])
        assert budgeted_mwis(H, 2) == []

    def test_budget_respected_with_costs(self):
        H = make_cluster_graph([4.0, 4.0, 7.0], [2, 2, 3], [])
        assert budgeted_mwis(H, 3) == [2]
        assert budgeted_mwis(H, 4) == [0, 1]

    def test_releases_the_cluster_graph_without_a_collection(self):
        # no reference cycle may keep H alive once the caller drops it
        H = make_cluster_graph([2.0, 5.0, 2.0], [1, 1, 1], [(0, 1), (1, 2)])
        ref = weakref.ref(H)
        gc.disable()
        try:
            assert budgeted_mwis(H, 2) == [1]
            del H
            assert ref() is None
        finally:
            gc.enable()

    def test_matches_exhaustive_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            n = int(rng.integers(1, 14))
            k = int(rng.integers(1, 5))
            weights = rng.uniform(-2, 5, size=n).tolist()
            costs = [int(c) for c in rng.integers(1, 5, size=n)]
            edges = [
                (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.3
            ]
            H = make_cluster_graph(weights, costs, edges)
            got = budgeted_mwis(H, k)
            # feasibility
            assert sum(costs[i] for i in got) <= k
            adj = set(edges)
            assert not any((a, b) in adj for a, b in combinations(sorted(got), 2))
            # optimality
            got_value = sum(weights[i] for i in got)
            assert got_value == pytest.approx(
                exhaustive_mwis_value(weights, costs, edges, k), abs=1e-12
            )

    def test_ties_resolve_to_first_set_in_index_order(self):
        # small integer weights make many ties; the answer is the first
        # maximum-weight set among index-sorted tuples (a prefix first)
        rng = np.random.default_rng(11)
        for trial in range(3000):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, 5))
            weights = [float(w) for w in rng.integers(-2, 5, size=n)]
            costs = [int(c) for c in rng.integers(1, 4, size=n)]
            edges = [
                (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.3
            ]
            adj = set(edges)
            positive = [i for i in range(n) if weights[i] > 0.0]
            best_key = (-0.0, ())
            for size in range(1, k + 1):
                for S in combinations(positive, size):
                    if sum(costs[i] for i in S) > k:
                        continue
                    if any(pair in adj for pair in combinations(S, 2)):
                        continue
                    value = 0.0
                    for i in S:
                        value += weights[i]
                    best_key = min(best_key, (-value, S))
            H = make_cluster_graph(weights, costs, edges)
            assert budgeted_mwis(H, k) == list(best_key[1]), trial

    def test_pair_one_ulp_ahead_survives_the_bound(self):
        # cluster 0 alone (cost 4) weighs one ulp less than the pair {1, 2};
        # the bound at {1} without slack, a + 3 * (b / 3), rounds to <= single
        a, b = 0.5, 50 / 7
        single = math.nextafter(a + b, 0.0)
        assert a + 3 * (b / 3) <= single < a + b
        H = make_cluster_graph([single, a, b], [4, 1, 3], [])
        assert budgeted_mwis(H, 4) == [1, 2]


class TestSolveInfmax:
    def test_edgeless_picks_smallest_field(self):
        h = np.array([0.8, -0.3, 0.5, -0.9])
        m = IsingModel(n=4, beta={}, h=h)
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=0)
        sol = solve_infmax(m, WeightVector.ones(4), cfg)
        assert sol.S_hat == (3,)
        assert sol.sigma_hat == {3: 1}
        assert sol.local_value == pytest.approx(1 - math.tanh(-0.9), abs=1e-12)
        assert sol.global_value == pytest.approx(sol.local_value, abs=1e-12)

    def test_zero_weights_gives_empty_solution(self):
        m = path_model(5)
        cfg = SolverConfig(k=2, epsilon=0.1, radius_override=1)
        sol = solve_infmax(m, WeightVector.zeros(5), cfg)
        assert sol.S_hat == ()
        assert sol.local_value == 0.0
        assert sol.global_value == 0.0

    def test_local_value_is_exact_local_optimum(self):
        # the combined cluster/MWIS machinery must match a direct scan of
        # every (S, sigma) at the same radius
        for seed in (0, 3, 6):
            m = random_instance(9, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            a = random_weights(9, (-1, 1), seed + 70)
            for r in (0, 1):
                cfg = SolverConfig(k=2, epsilon=0.1, radius_override=r)
                sol = solve_infmax(m, a, cfg)
                best = 0.0
                for size in (1, 2):
                    for S in combinations(range(9), size):
                        for spins in product((1, -1), repeat=size):
                            q = InfluenceQuery(m, a, S, dict(zip(S, spins)), radius=r)
                            best = max(best, local_influence(q))
                assert sol.local_value == pytest.approx(best, abs=1e-10)

    def test_local_value_matches_direct_evaluation(self):
        # the assembled pinning decomposes into exactly the chosen clusters,
        # so summed cluster weights must equal the local influence of
        # (S_hat, sigma_hat) evaluated from scratch
        for seed in (1, 5, 11):
            m = random_instance(10, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            a = random_weights(10, (-1, 1), seed + 900)
            for r in (0, 1, 2):
                cfg = SolverConfig(k=2, epsilon=0.1, radius_override=r)
                sol = solve_infmax(m, a, cfg)
                if not sol.S_hat:
                    assert sol.local_value == 0.0
                    continue
                q = InfluenceQuery(m, a, sol.S_hat, sol.sigma_hat, radius=sol.radius_used)
                assert sol.local_value == pytest.approx(local_influence(q), abs=1e-11)

    def test_matches_oracle_at_saturating_radius(self):
        for seed in range(8):
            m = random_instance(11, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            a = random_weights(11, (-1, 1), seed + 500)
            cfg = SolverConfig(k=2, epsilon=0.1, radius_override=10**6)
            sol = solve_infmax(m, a, cfg)
            oracle = brute_force_infmax(m, a, 2)
            assert sol.global_value == pytest.approx(oracle.global_value, abs=1e-10)

    def test_radius_capped_at_diameter(self):
        m = path_model(6)
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=1000)
        sol = solve_infmax(m, WeightVector.ones(6), cfg)
        assert sol.radius_used == 5
        assert sol.diagnostics["requested_radius"] == 1000

    def test_determinism(self):
        m = random_instance(10, 3, (-0.4, 0.4), (-0.5, 0.5), seed=33)
        a = random_weights(10, (-1, 1), seed=34)
        cfg = SolverConfig(k=2, epsilon=0.1, radius_override=4)
        assert solve_infmax(m, a, cfg) == solve_infmax(m, a, cfg)

    def test_budget_guard(self):
        m = path_model(3)
        cfg = SolverConfig(k=7, epsilon=0.1, radius_override=1)
        with pytest.raises(ValueError, match="constant budget"):
            solve_infmax(m, WeightVector.ones(3), cfg)
        sol = solve_infmax(m, WeightVector.ones(3), cfg, max_budget=7)
        assert len(sol.S_hat) <= 3

    def test_budget_beyond_graph_size_is_fine(self):
        m = IsingModel(n=2, beta={}, h=np.array([0.1, -0.1]))
        cfg = SolverConfig(k=5, epsilon=0.1, radius_override=0)
        sol = solve_infmax(m, WeightVector.ones(2), cfg)
        assert sol.S_hat == (0, 1)
        assert sol.sigma_hat == {0: 1, 1: 1}

    def test_capacity_reports_largest_feasible_radius(self):
        m = path_model(9)
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=4, exact_ball_cap=3)
        with pytest.raises(CapacityError, match="largest feasible radius is 1"):
            solve_infmax(m, WeightVector.ones(9), cfg)

    def test_best_effort_shrinks_and_warns(self):
        m = path_model(9)
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=4, exact_ball_cap=3)
        sol = solve_infmax(m, WeightVector.ones(9), cfg, best_effort=True)
        assert sol.radius_used == 1
        assert any("best-effort" in w for w in sol.diagnostics["warnings"])

    def test_family_warning_out_of_regime(self):
        m = IsingModel(n=2, beta={(0, 1): 2.0}, h=np.zeros(2))
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=1)
        sol = solve_infmax(m, WeightVector.ones(2), cfg, FamilyParams.algorithmic(3, 0.24))
        assert any("outside" in w for w in sol.diagnostics["warnings"])


class TestBruteForce:
    def test_edgeless_full_budget(self):
        m = IsingModel(n=3, beta={}, h=np.zeros(3))
        sol = brute_force_infmax(m, WeightVector.ones(3), k=3)
        assert sol.S_hat == (0, 1, 2)
        assert sol.sigma_hat == {0: 1, 1: 1, 2: 1}
        assert sol.global_value == pytest.approx(3.0, abs=1e-13)

    def test_two_vertex_closed_form(self):
        m = path_model(2, beta=0.3)
        sol = brute_force_infmax(m, WeightVector.ones(2), k=1)
        assert sol.global_value == pytest.approx(1 + math.tanh(0.3), abs=1e-12)
        assert sol.S_hat == (0,)  # first canonical maximizer on a tie

    def test_negative_field_single_vertex(self):
        m = IsingModel(n=1, beta={}, h=np.array([-2.0]))
        sol = brute_force_infmax(m, WeightVector.ones(1), k=1)
        assert sol.sigma_hat == {0: 1}
        assert sol.global_value == pytest.approx(1 - math.tanh(-2.0), abs=1e-12)
        assert sol.global_value == pytest.approx(1.964028, abs=1e-6)

    def test_size_guard(self):
        m = IsingModel(n=17, beta={}, h=np.zeros(17))
        with pytest.raises(CapacityError, match="n <= 16"):
            brute_force_infmax(m, WeightVector.ones(17), k=1)
        sol = brute_force_infmax(m, WeightVector.ones(17), k=1, restrict_exact=False)
        assert sol.global_value == pytest.approx(1.0, abs=1e-13)


class TestCalibration:
    def test_edgeless_zero(self):
        m = IsingModel(n=5, beta={}, h=np.linspace(-1, 1, 5))
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=0)
        got = calibrate_decay_constant(m, WeightVector.ones(5), cfg,
                                       FamilyParams.algorithmic(3, 0.24))
        assert got == 0.0

    def test_zero_couplings_zero(self):
        m = path_model(8, beta=0.0, h=0.4)
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=0)
        got = calibrate_decay_constant(m, WeightVector.ones(8), cfg,
                                       FamilyParams.algorithmic(3, 0.24))
        assert got == 0.0

    def test_cycle_positive_finite(self):
        beta_map = {(i, i + 1): 0.3 for i in range(11)}
        beta_map[(0, 11)] = 0.3
        m = IsingModel(n=12, beta=beta_map, h=np.zeros(12))
        cfg = SolverConfig(k=1, epsilon=0.1, radius_override=0)
        got = calibrate_decay_constant(m, WeightVector.ones(12), cfg,
                                       FamilyParams.algorithmic(3, 0.24), samples=3)
        assert 0.0 < got < 100.0
