"""Influence functionals: examples, decomposition, saturation, decay shape.

The independent oracle is a test-local full enumeration of weighted
conditional means (`enum_influence`), also applied to induced subgraphs
for the local variants.
"""

import math
from itertools import product

import numpy as np
import pytest

from isingmax import (
    CapacityError,
    InfluenceEvaluator,
    InfluenceQuery,
    IsingModel,
    MonteCarloFallback,
    WeightVector,
    decompose_local,
    fit_geometric_decay,
    global_influence,
    influence_decay_profile,
    local_influence,
    random_instance,
    random_weights,
    total_influence_profile,
    total_influence_sum,
)
from isingmax.model import induced_submodel
from isingmax import ball as ball_of
from isingmax import influence as influence_module


def enum_weighted_mean(model, a, pinning):
    """Test-local E[sum a_v X_v | pinning] by direct enumeration."""
    free = [v for v in range(model.n) if v not in pinning]
    num = den = 0.0
    for spins in product((1, -1), repeat=len(free)):
        sigma = dict(pinning)
        sigma.update(zip(free, spins))
        e = sum(model.h[v] * sigma[v] for v in range(model.n))
        e += sum(b * sigma[u] * sigma[v] for (u, v), b in model.beta.items())
        w = math.exp(e)
        num += w * sum(a[v] * sigma[v] for v in range(model.n))
        den += w
    return num / den


def enum_influence(model, a, pinning):
    return enum_weighted_mean(model, a, pinning) - enum_weighted_mean(model, a, {})


def enum_local_influence(model, a, pinning, r):
    region = ball_of(model, sorted(pinning), r)
    sub, ids = induced_submodel(model, region)
    sub_pin = {ids.index(v): s for v, s in pinning.items()}
    sub_a = [a[v] for v in ids]
    return enum_influence(sub, sub_a, sub_pin)


def path_model(n, beta=0.3, h=0.0):
    return IsingModel(n=n, beta={(i, i + 1): beta for i in range(n - 1)}, h=np.full(n, float(h)))


def cycle_model(n, beta=0.3):
    beta_map = {(i, i + 1): beta for i in range(n - 1)}
    beta_map[(0, n - 1)] = beta
    return IsingModel(n=n, beta=beta_map, h=np.zeros(n))


class TestGlobalInfluence:
    def test_isolated_vertex(self):
        m = IsingModel(n=1, beta={}, h=np.zeros(1))
        q = InfluenceQuery(m, WeightVector.ones(1), (0,), {0: 1})
        assert global_influence(q) == pytest.approx(1.0, abs=1e-14)

    def test_zero_weights(self):
        m = path_model(5)
        q = InfluenceQuery(m, WeightVector.zeros(5), (1, 3), {1: 1, 3: -1})
        assert global_influence(q) == 0.0

    def test_two_vertex_edge(self):
        m = path_model(2, beta=0.3)
        q = InfluenceQuery(m, WeightVector.ones(2), (0,), {0: 1})
        assert global_influence(q) == pytest.approx(1 + math.tanh(0.3), abs=1e-13)
        assert global_influence(q) == pytest.approx(1.291313, abs=1e-6)

    def test_empty_set(self):
        m = path_model(3)
        q = InfluenceQuery(m, WeightVector.ones(3), (), {})
        assert global_influence(q) == 0.0

    def test_matches_enumeration(self):
        for seed in range(6):
            m = random_instance(10, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            a = random_weights(10, (-1, 1), seed + 100)
            pinning = {0: 1, 7: -1}
            q = InfluenceQuery(m, a, (0, 7), pinning)
            assert global_influence(q) == pytest.approx(
                enum_influence(m, a.a, pinning), abs=1e-11
            )

    def test_untouched_components_are_skipped_exactly(self):
        # two components; pin only in the first
        m = IsingModel(n=4, beta={(0, 1): 0.5, (2, 3): 0.9}, h=np.array([0.1, 0, 2.0, -2.0]))
        a = WeightVector.ones(4)
        q = InfluenceQuery(m, a, (0,), {0: 1})
        assert global_influence(q) == pytest.approx(
            enum_influence(m, a.a, {0: 1}), abs=1e-12
        )

    def test_linearity_in_weights(self):
        m = random_instance(9, 3, (-0.4, 0.4), (-0.5, 0.5), seed=2)
        a = random_weights(9, (-1, 1), seed=3)
        pinning = {2: -1}
        base = global_influence(InfluenceQuery(m, a, (2,), pinning))
        for t in (2.0, -0.5, 7.25):
            scaled = global_influence(InfluenceQuery(m, WeightVector(t * a.a), (2,), pinning))
            assert scaled == pytest.approx(t * base, rel=1e-12, abs=1e-13)

    def test_capacity_routes_to_monte_carlo_when_flagged(self):
        m = path_model(2, beta=0.0)  # independent spins, exact target is 1
        q = InfluenceQuery(m, WeightVector.ones(2), (0,), {0: 1})
        with pytest.raises(CapacityError):
            global_influence(q, ball_cap=1)
        mc = MonteCarloFallback(burn_in=200, samples=4000, thin=2, seed=11)
        got = global_influence(q, ball_cap=1, mc=mc)
        assert got == pytest.approx(1.0, abs=0.1)


class TestLocalInfluence:
    def test_radius_zero_singleton(self):
        m = IsingModel(n=3, beta={(0, 1): 0.4, (1, 2): 0.4}, h=np.zeros(3))
        q = InfluenceQuery(m, WeightVector.ones(3), (1,), {1: 1}, radius=0)
        assert local_influence(q) == pytest.approx(1.0, abs=1e-14)

    def test_ball_covering_component_equals_global(self):
        m = path_model(3)
        sigma = {1: 1}
        loc = local_influence(InfluenceQuery(m, WeightVector.ones(3), (1,), sigma, radius=1))
        glob = global_influence(InfluenceQuery(m, WeightVector.ones(3), (1,), sigma))
        assert loc == pytest.approx(glob, abs=1e-13)

    def test_two_disjoint_balls(self):
        m = path_model(10, beta=0.3)
        sigma = {0: 1, 9: 1}
        q = InfluenceQuery(m, WeightVector.ones(10), (0, 9), sigma, radius=1)
        assert local_influence(q) == pytest.approx(2 * (1 + math.tanh(0.3)), abs=1e-12)
        assert local_influence(q) == pytest.approx(2.582626, abs=1e-6)

    def test_matches_enumeration(self):
        for seed in range(5):
            m = random_instance(11, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            a = random_weights(11, (-1, 1), seed + 50)
            pinning = {1: -1, 8: 1}
            for r in range(3):
                q = InfluenceQuery(m, a, (1, 8), pinning, radius=r)
                assert local_influence(q) == pytest.approx(
                    enum_local_influence(m, a.a, pinning, r), abs=1e-11
                )

    def test_empty_set(self):
        m = path_model(3)
        q = InfluenceQuery(m, WeightVector.ones(3), (), {}, radius=1)
        assert local_influence(q) == 0.0


def two_component_model():
    """A random 7-vertex and a random 6-vertex model side by side."""
    left = random_instance(7, 3, (-0.4, 0.4), (-0.5, 0.5), seed=5)
    right = random_instance(6, 3, (-0.4, 0.4), (-0.5, 0.5), seed=6)
    beta = dict(left.beta)
    beta.update({(u + 7, v + 7): b for (u, v), b in right.beta.items()})
    return IsingModel(n=13, beta=beta, h=np.concatenate([left.h, right.h]))


# Interleaves radii, global queries, pins in both components, balls that
# saturate a component, and (S, r) pairs asked again after other regions.
MEMO_QUERIES = [
    ((0,), {0: 1}, 1),
    ((0,), {0: -1}, 1),
    ((0,), {0: -1}, 3),
    ((0,), {0: 1}, None),
    ((0, 9), {0: 1, 9: -1}, 2),
    ((3,), {3: 1}, None),
    ((2,), {2: -1}, 0),
    ((0,), {0: 1}, 1),
    ((0, 9), {0: 1, 9: -1}, None),
    ((9,), {9: 1}, 6),
    ((9, 10), {9: 1, 10: 1}, 6),
    ((0, 9), {0: -1, 9: 1}, 2),
    ((3,), {3: -1}, None),
    ((0,), {0: 1}, 1),
]


def ask(ev, S, sigma, r):
    return ev.global_influence(S, sigma) if r is None else ev.local_influence(S, sigma, r)


class TestEvaluatorMemo:
    """One evaluator answers every query as a fresh one would, bit for bit."""

    def check_sequence(self):
        m = two_component_model()
        a = random_weights(13, (-1, 1), seed=7)
        ev = InfluenceEvaluator(m, a)
        got = [ask(ev, S, sigma, r) for S, sigma, r in MEMO_QUERIES]
        fresh = [ask(InfluenceEvaluator(m, a), S, sigma, r) for S, sigma, r in MEMO_QUERIES]
        assert got == fresh
        return got

    def test_interleaved_queries_match_fresh_evaluators(self):
        self.check_sequence()

    def test_components_above_the_table_cap(self, monkeypatch):
        tabled = self.check_sequence()
        monkeypatch.setattr(influence_module, "DEFAULT_TABLE_CAP", 3)
        streamed = self.check_sequence()
        assert streamed == pytest.approx(tabled, abs=1e-12)


class TestDecomposition:
    def test_connected_set_single_part(self):
        m = path_model(4)
        q = InfluenceQuery(m, WeightVector.ones(4), (1, 2), {1: 1, 2: -1}, radius=1)
        parts = decompose_local(q)
        assert len(parts) == 1
        assert parts[0][1] == pytest.approx(local_influence(q), abs=1e-13)

    def test_two_far_parts(self):
        m = path_model(10, beta=0.3)
        q = InfluenceQuery(m, WeightVector.ones(10), (0, 9), {0: 1, 9: 1}, radius=1)
        parts = decompose_local(q)
        assert [T for T, _ in parts] == [(0,), (9,)]
        for _, val in parts:
            assert val == pytest.approx(1 + math.tanh(0.3), abs=1e-12)

    def test_zero_weights_all_zero_terms(self):
        m = path_model(6)
        q = InfluenceQuery(m, WeightVector.zeros(6), (0, 5), {0: 1, 5: -1}, radius=1)
        assert all(val == 0.0 for _, val in decompose_local(q))

    def test_sum_identity_randomized(self):
        rng = np.random.default_rng(0)
        for seed in range(15):
            m = random_instance(12, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            a = random_weights(12, (-1, 1), seed + 31)
            size = int(rng.integers(1, 5))
            S = tuple(sorted(rng.choice(12, size=size, replace=False).tolist()))
            sigma = {v: int(1 - 2 * rng.integers(0, 2)) for v in S}
            r = int(rng.integers(0, 4))
            q = InfluenceQuery(m, a, S, sigma, radius=r)
            total = sum(val for _, val in decompose_local(q))
            assert abs(total - local_influence(q)) <= 1e-10


class TestDecayProfile:
    def test_saturation_zeros(self):
        m = path_model(7, beta=0.35)
        prof = influence_decay_profile(m, WeightVector.ones(7), (3,), {3: 1}, r_max=8)
        # eccentricity of vertex 3 is 3; entries from there on vanish
        for r in range(3, 9):
            assert prof[r] <= 1e-10

    def test_edgeless_all_zero(self):
        m = IsingModel(n=4, beta={}, h=np.array([0.3, -0.2, 0.0, 1.0]))
        prof = influence_decay_profile(m, WeightVector.ones(4), (2,), {2: 1}, r_max=3)
        assert all(g == 0.0 for g in prof)

    def test_cycle_gaps_decrease(self):
        m = cycle_model(12, beta=0.3)
        prof = influence_decay_profile(m, WeightVector.ones(12), (0,), {0: 1}, r_max=6)
        positive = [g for g in prof if g > 1e-12]
        assert len(positive) >= 3
        assert all(a > b for a, b in zip(positive, positive[1:]))
        amp, ratio = fit_geometric_decay(prof)
        assert 0 < ratio < 0.9

    def test_fit_on_degenerate_profile(self):
        assert fit_geometric_decay([0.0, 0.0, 0.0]) == (0.0, 0.0)


class TestTotalInfluenceDecay:
    def test_profile_matches_scalar_form(self):
        m = random_instance(10, 3, (-0.4, 0.4), (-0.3, 0.3), seed=8)
        prof = total_influence_profile(m, 0)
        for L in range(1, len(prof) + 1):
            assert total_influence_sum(m, 0, L) == prof[L - 1]

    def test_geometric_domination_in_family(self):
        # anchor the constant at L=1 and require domination at larger L
        for seed in (1, 4, 9, 12):
            m = random_instance(12, 3, (-0.4, 0.4), (-0.5, 0.5), seed)
            prof = total_influence_profile(m, 0)
            if len(prof) < 3 or prof[0] < 1e-9:
                continue
            c_fit = prof[0] / 0.76
            for L, s in enumerate(prof, start=1):
                assert s <= c_fit * 0.76**L * 1.05 + 1e-12

    def test_independent_spins_give_zero(self):
        m = IsingModel(n=6, beta={}, h=np.linspace(-1, 1, 6))
        assert total_influence_profile(m, 2) == []
        m2 = path_model(6, beta=0.0, h=0.3)
        prof = total_influence_profile(m2, 0)
        assert all(s <= 1e-12 for s in prof)

    def test_capacity_gate(self):
        m = path_model(8)
        with pytest.raises(CapacityError):
            total_influence_profile(m, 0, ball_cap=3)
