"""Glauber dynamics: invariants, stationarity, and the influence estimator.

Statistical checks run with fixed seeds and 3-sigma bands (on thinned
samples where autocorrelation matters), so they are deterministic.
"""

import copy
import math

import numpy as np
import pytest

from isingmax import (
    ChainState,
    InfluenceQuery,
    IsingModel,
    WeightVector,
    estimate_influence,
    glauber_step,
    global_influence,
    make_chain,
    random_instance,
    random_weights,
)
from isingmax.estimate import batch_means_stderr, colour_classes, default_burn_in, run_steps
from isingmax.exact import PinnedModel
from isingmax import log_partition


def single_vertex(h):
    return IsingModel(n=1, beta={}, h=np.array([float(h)]))


class TestColourClasses:
    @pytest.mark.parametrize("model", [
        *(random_instance(n, d, (-0.5, 0.5), (-0.5, 0.5), seed=s)
          for n, d, s in ((12, 3, 1), (30, 4, 2), (50, 5, 3), (40, 2, 4))),
        IsingModel(n=6, beta={}, h=np.zeros(6)),
        single_vertex(0.3),
    ], ids=["random-12", "random-30", "random-50", "random-40", "edgeless", "n1"])
    def test_independent_partition_within_degree_bound(self, model):
        classes = colour_classes(model)
        merged = np.sort(np.concatenate(classes))
        assert np.array_equal(merged, np.arange(model.n))
        colour = np.empty(model.n, dtype=np.int64)
        for c, verts in enumerate(classes):
            assert verts.size > 0
            colour[verts] = c
        assert all(colour[u] != colour[v] for u, v in model.beta)
        assert len(classes) <= model.max_degree() + 1


class TestGlauberStep:
    def test_fully_pinned_chain_never_moves(self):
        m = IsingModel(n=3, beta={(0, 1): 0.5, (1, 2): 0.5}, h=np.zeros(3))
        chain = make_chain(m, {0: 1, 1: -1, 2: 1}, seed=0)
        before = chain.spins.copy()
        for _ in range(50):
            glauber_step(chain, m)
        assert np.array_equal(chain.spins, before)

    def test_pinned_coordinates_invariant(self):
        m = random_instance(8, 3, (-0.5, 0.5), (-0.5, 0.5), seed=1)
        chain = make_chain(m, {2: -1, 5: 1}, seed=7)
        run_steps(chain, m, 5000)
        assert chain.spins[2] == -1
        assert chain.spins[5] == 1
        assert chain.steps_taken == 5000

    def test_identical_seeds_identical_paths(self):
        m = random_instance(8, 3, (-0.5, 0.5), (-0.5, 0.5), seed=2)
        a = make_chain(m, {0: 1}, seed=99)
        b = make_chain(m, {0: 1}, seed=99)
        for _ in range(200):
            glauber_step(a, m)
            glauber_step(b, m)
            assert np.array_equal(a.spins, b.spins)

    def test_free_row_follows_the_one_row_chain(self):
        # Both rows read the same random numbers, so the free row of a
        # coupled pair retraces a one-row free chain with the same start.
        m = random_instance(10, 3, (-0.4, 0.4), (-0.5, 0.5), seed=3)
        alone = make_chain(m, {}, seed=5)
        start = alone.spins.copy()
        pair = ChainState(np.stack([start, start]), {4: 1, 7: -1}, copy.deepcopy(alone.rng))
        run_steps(alone, m, 400)
        run_steps(pair, m, 400)
        assert np.array_equal(pair.spins[1], alone.spins)
        assert pair.spins[0, 4] == 1 and pair.spins[0, 7] == -1
        assert pair.steps_taken == alone.steps_taken == 400

    def test_isolated_vertex_symmetric(self):
        m = single_vertex(0.0)
        chain = make_chain(m, {}, seed=3)
        hits = 0
        steps = 4000
        for _ in range(steps):
            glauber_step(chain, m)
            hits += chain.spins[0] == 1
        p = hits / steps
        sigma = math.sqrt(0.25 / steps)
        assert abs(p - 0.5) <= 3 * sigma

    def test_isolated_vertex_with_field(self):
        m = single_vertex(0.5)
        chain = make_chain(m, {}, seed=4)
        hits = 0
        steps = 6000
        for _ in range(steps):
            glauber_step(chain, m)
            hits += chain.spins[0] == 1
        target = (1 + math.tanh(0.5)) / 2
        sigma = math.sqrt(target * (1 - target) / steps)
        assert abs(hits / steps - target) <= 3 * sigma


class TestStationarity:
    def test_two_vertex_detailed_balance_spot_check(self):
        m = IsingModel(n=2, beta={(0, 1): 0.4}, h=np.array([0.2, -0.1]))
        # exact Gibbs probabilities from the log partition
        lz = log_partition(PinnedModel.make(m))
        probs = {}
        for s0 in (1, -1):
            for s1 in (1, -1):
                e = 0.4 * s0 * s1 + 0.2 * s0 - 0.1 * s1
                probs[(s0, s1)] = math.exp(e - lz)
        chain = make_chain(m, {}, seed=12)
        run_steps(chain, m, 2000)
        counts = {key: 0 for key in probs}
        n_samples = 10**5
        thin = 10  # near-independent samples for the multinomial band
        for _ in range(n_samples):
            run_steps(chain, m, thin)
            counts[(int(chain.spins[0]), int(chain.spins[1]))] += 1
        for key, p in probs.items():
            got = counts[key] / n_samples
            sigma = math.sqrt(p * (1 - p) / n_samples)
            assert abs(got - p) <= 3.5 * sigma


class TestEstimateInfluence:
    def test_zero_weights_exact_zero(self):
        m = random_instance(6, 3, (-0.3, 0.3), (-0.3, 0.3), seed=5)
        got, err = estimate_influence(
            m, WeightVector.zeros(6), (0,), {0: 1},
            burn_in=10, samples=100, thin=1, seed=0,
        )
        assert got == 0.0 and err == 0.0

    def test_independent_spins_closed_form(self):
        h = np.array([0.3, -0.6, 0.1])
        m = IsingModel(n=3, beta={}, h=h)
        got, err = estimate_influence(
            m, WeightVector.ones(3), (0,), {0: 1},
            burn_in=500, samples=10000, thin=3, seed=8,
        )
        assert err > 0
        assert abs(got - (1 - math.tanh(0.3))) <= 3 * err

    def test_matches_exact_influence(self):
        m = random_instance(12, 3, (-0.25, 0.25), (-0.4, 0.4), seed=6)
        a = random_weights(12, (-1, 1), seed=7)
        sigma = {1: 1, 9: -1}
        exact_value = global_influence(InfluenceQuery(m, a, (1, 9), sigma))
        got, err = estimate_influence(
            m, a, (1, 9), sigma,
            burn_in=default_burn_in(12), samples=10000, thin=12, seed=9,
        )
        assert abs(got - exact_value) <= 3 * err

    def test_pins_hold_for_later_colour_classes(self):
        # Path 0-1-3-2-4 colours as {0, 2}, {1, 4}, {3}: the pinned vertex 1
        # sits in the middle class and vertex 3, updated after it in every
        # sweep, must read it pinned.
        m = IsingModel(n=5, beta={(0, 1): 0.9, (1, 3): 0.9, (2, 3): 0.9, (2, 4): 0.9},
                       h=np.array([0.1, -0.2, 0.0, 0.2, -0.1]))
        classes = [set(c.tolist()) for c in colour_classes(m)]
        assert classes == [{0, 2}, {1, 4}, {3}]
        a = WeightVector.ones(5)
        sigma = {1: -1}
        exact_value = global_influence(InfluenceQuery(m, a, (1,), sigma))
        got, err = estimate_influence(
            m, a, (1,), sigma, burn_in=500, samples=4000, thin=5, seed=21,
        )
        assert abs(got - exact_value) <= 4 * err

    def test_error_bars_calibrated_over_many_pinnings(self):
        zs = []
        for seed in range(24):
            rng = np.random.default_rng(seed)
            n = 8 + seed % 5
            m = random_instance(n, 3, (-0.35, 0.35), (-0.5, 0.5), seed=seed)
            a = random_weights(n, (-1, 1), seed=seed + 100)
            S = tuple(sorted(int(v) for v in rng.choice(n, size=1 + seed % 3, replace=False)))
            sigma = {v: int(s) for v, s in zip(S, rng.choice((-1, 1), size=len(S)))}
            exact_value = global_influence(InfluenceQuery(m, a, S, sigma))
            got, err = estimate_influence(
                m, a, S, sigma,
                burn_in=default_burn_in(n), samples=2000, thin=n, seed=seed,
            )
            zs.append((got - exact_value) / err)
        assert max(abs(z) for z in zs) <= 4
        assert sum(z * z for z in zs) / len(zs) <= 2

    def test_diagnostics_count_sweeps_and_agreement(self):
        m = random_instance(10, 3, (-0.3, 0.3), (-0.3, 0.3), seed=3)
        a = random_weights(10, (-1, 1), seed=4)
        diagnostics = {}
        plain = estimate_influence(m, a, (2,), {2: 1}, burn_in=25, samples=50,
                                   thin=11, seed=5)
        traced = estimate_influence(m, a, (2,), {2: 1}, burn_in=25, samples=50,
                                    thin=11, seed=5, diagnostics=diagnostics)
        assert traced == plain
        # 25 updates round up to 3 sweeps of 10, and 11 to 2 per sample
        assert diagnostics["sweeps"] == 3 + 2 * 50
        assert diagnostics["site_updates"] == 10 * diagnostics["sweeps"]
        assert 0.0 < diagnostics["agree_fraction"] < 1.0

    def test_input_validation(self):
        m = single_vertex(0.0)
        with pytest.raises(ValueError):
            estimate_influence(m, WeightVector.ones(1), (0,), {0: 1},
                               burn_in=1, samples=1, thin=1, seed=0)
        with pytest.raises(ValueError):
            estimate_influence(m, WeightVector.ones(1), (0,), {},
                               burn_in=1, samples=10, thin=1, seed=0)


def test_batch_means_on_iid_samples():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4000)
    se = batch_means_stderr(x)
    # for iid data the batch-means SE approximates sigma/sqrt(n)
    assert se == pytest.approx(1 / math.sqrt(4000), rel=0.5)
    assert batch_means_stderr(np.array([1.0])) == 0.0


def test_default_burn_in_scales():
    assert default_burn_in(1) > 0
    assert default_burn_in(100) == math.ceil(100 * 100 * math.log(100))
