"""Exact inference: closed forms, normalization, symmetry, factorization.

The independent oracle throughout is a test-local enumeration that walks
every spin configuration with plain Python arithmetic.  Two claims are
checked for bit-for-bit equality rather than tolerance, because the
implementation arranges them structurally: spin-flip antisymmetry of
expectations and additivity of the log partition over disconnected parts.
"""

import math
from itertools import product

import numpy as np
import pytest

from isingmax import (
    CapacityError,
    IsingModel,
    JointTable,
    PinnedModel,
    expectation,
    log_partition,
    marginal_plus,
    random_instance,
)
from isingmax.exact import vertex_expectations, weighted_expectation


def local_energy(model, sigma):
    """Test-local energy of a full configuration (dict vertex -> spin)."""
    e = sum(model.h[v] * sigma[v] for v in range(model.n))
    e += sum(b * sigma[u] * sigma[v] for (u, v), b in model.beta.items())
    return e


def local_logz(model, pinning=None):
    """Test-local log partition via direct enumeration (no shift tricks needed
    at these sizes)."""
    pinning = pinning or {}
    free = [v for v in range(model.n) if v not in pinning]
    total = 0.0
    for spins in product((1, -1), repeat=len(free)):
        sigma = dict(pinning)
        sigma.update(zip(free, spins))
        total += math.exp(local_energy(model, sigma))
    return math.log(total)


def local_expectation(model, v, pinning=None):
    pinning = pinning or {}
    if v in pinning:
        return float(pinning[v])
    free = [u for u in range(model.n) if u not in pinning]
    num = den = 0.0
    for spins in product((1, -1), repeat=len(free)):
        sigma = dict(pinning)
        sigma.update(zip(free, spins))
        w = math.exp(local_energy(model, sigma))
        num += w * sigma[v]
        den += w
    return num / den


def single_vertex(h):
    return IsingModel(n=1, beta={}, h=np.array([float(h)]))


def edge_model(beta, h=0.0):
    return IsingModel(n=2, beta={(0, 1): float(beta)}, h=np.full(2, float(h)))


class TestLogPartition:
    def test_free_spin(self):
        assert log_partition(PinnedModel.make(single_vertex(0.0))) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_single_field(self):
        for h in (0.5, -1.2, 3.0):
            got = log_partition(PinnedModel.make(single_vertex(h)))
            assert got == pytest.approx(math.log(2.0 * math.cosh(h)), abs=1e-13)

    def test_two_vertex_hand_enumeration(self):
        # four configurations: ++, +-, -+, -- with weights e^b, e^-b, e^-b, e^b
        want = math.log(2 * math.exp(0.3) + 2 * math.exp(-0.3))
        assert want == pytest.approx(1.43064, abs=1e-5)
        got = log_partition(PinnedModel.make(edge_model(0.3)))
        assert got == pytest.approx(want, abs=1e-13)

    def test_pinned_partition_matches_local_enumeration(self):
        for seed in range(6):
            m = random_instance(8, 3, (-0.5, 0.5), (-0.8, 0.8), seed)
            pinning = {0: 1, 3: -1}
            got = log_partition(PinnedModel.make(m, pinning=pinning))
            assert got == pytest.approx(local_logz(m, pinning), abs=1e-11)

    def test_normalization(self):
        # exp(weight - logZ) over all completions sums to 1
        for seed in range(5):
            m = random_instance(10, 3, (-0.5, 0.5), (-0.5, 0.5), seed)
            pinning = {1: -1}
            lz = log_partition(PinnedModel.make(m, pinning=pinning))
            free = [v for v in range(m.n) if v not in pinning]
            total = 0.0
            for spins in product((1, -1), repeat=len(free)):
                sigma = dict(pinning)
                sigma.update(zip(free, spins))
                total += math.exp(local_energy(m, sigma) - lz)
            assert abs(total - 1.0) <= 1e-12

    def test_capacity_error(self):
        m = random_instance(8, 3, (-0.2, 0.2), (0, 0), seed=0)
        with pytest.raises(CapacityError):
            log_partition(PinnedModel.make(m), cap=3)


class TestExpectation:
    def test_isolated_field(self):
        got = expectation(PinnedModel.make(single_vertex(0.5)), 0)
        assert got == pytest.approx(math.tanh(0.5), abs=1e-14)
        assert got == pytest.approx(0.462117, abs=1e-6)

    def test_zero_field_symmetry(self):
        assert expectation(PinnedModel.make(single_vertex(0.0)), 0) == 0.0

    def test_conditional_closed_form(self):
        # E[X_v | X_u = +1] on one edge equals tanh(beta)
        for beta in (0.3, -0.7, 1.1):
            pm = PinnedModel.make(edge_model(beta), pinning={0: 1})
            assert expectation(pm, 1) == pytest.approx(math.tanh(beta), abs=1e-12)
        pm = PinnedModel.make(edge_model(0.3), pinning={0: 1})
        assert expectation(pm, 1) == pytest.approx(0.291313, abs=1e-6)

    def test_pinned_vertex_returns_its_spin(self):
        pm = PinnedModel.make(edge_model(0.3), pinning={0: -1})
        assert expectation(pm, 0) == -1.0
        assert marginal_plus(pm, 0) == 0.0

    def test_matches_local_enumeration(self):
        for seed in range(6):
            m = random_instance(9, 3, (-0.5, 0.5), (-0.8, 0.8), seed)
            for pinning in ({}, {2: 1}, {0: -1, 5: 1}):
                pm = PinnedModel.make(m, pinning=pinning)
                for v in (1, 4, 8):
                    if v in pinning:
                        continue
                    assert expectation(pm, v) == pytest.approx(
                        local_expectation(m, v, pinning), abs=1e-12
                    )

    def test_spin_flip_antisymmetry_is_exact(self):
        for seed in range(8):
            m = random_instance(9, 3, (-0.6, 0.6), (-1.0, 1.0), seed)
            flipped = IsingModel(n=m.n, beta=dict(m.beta), h=-m.h)
            pinning = {0: 1, 4: -1}
            neg_pinning = {v: -s for v, s in pinning.items()}
            for v in (1, 2, 7):
                a = expectation(PinnedModel.make(m, pinning=pinning), v)
                b = expectation(PinnedModel.make(flipped, pinning=neg_pinning), v)
                assert b == -a  # bitwise, by construction

    def test_ferromagnetic_monotonicity(self):
        # all couplings >= 0, zero fields: pinning +1 helps, -1 hurts
        for seed in range(6):
            m = random_instance(8, 3, (0.05, 0.5), (0, 0), seed)
            up = PinnedModel.make(m, pinning={0: 1})
            down = PinnedModel.make(m, pinning={0: -1})
            for v in range(1, 8):
                assert expectation(up, v) >= expectation(down, v) - 1e-12


class TestMarginalPlus:
    def test_half_at_zero_field(self):
        assert marginal_plus(PinnedModel.make(single_vertex(0.0)), 0) == 0.5

    def test_pinned_is_certain(self):
        pm = PinnedModel.make(edge_model(0.2), pinning={1: 1})
        assert marginal_plus(pm, 1) == 1.0

    def test_field_closed_form(self):
        got = marginal_plus(PinnedModel.make(single_vertex(0.5)), 0)
        assert got == pytest.approx((1 + math.tanh(0.5)) / 2, abs=1e-14)
        assert got == pytest.approx(0.731059, abs=1e-6)


class TestFactorization:
    def test_disconnected_is_exactly_additive(self):
        part_a = IsingModel(n=2, beta={(0, 1): 0.4}, h=np.array([0.2, -0.1]))
        part_b = IsingModel(n=3, beta={(0, 1): -0.3, (1, 2): 0.6}, h=np.array([0.0, 0.5, -0.7]))
        joint = IsingModel(
            n=5,
            beta={(0, 1): 0.4, (2, 3): -0.3, (3, 4): 0.6},
            h=np.array([0.2, -0.1, 0.0, 0.5, -0.7]),
        )
        got = log_partition(PinnedModel.make(joint))
        want = log_partition(PinnedModel.make(part_a)) + log_partition(PinnedModel.make(part_b))
        assert got == want  # bitwise, by per-component construction

    def test_additive_under_pinning(self):
        part_a = IsingModel(n=2, beta={(0, 1): 0.4}, h=np.array([0.2, -0.1]))
        joint = IsingModel(
            n=4, beta={(0, 1): 0.4, (2, 3): 0.9}, h=np.array([0.2, -0.1, 1.0, -1.0])
        )
        part_b = IsingModel(n=2, beta={(0, 1): 0.9}, h=np.array([1.0, -1.0]))
        got = log_partition(PinnedModel.make(joint, pinning={0: -1, 2: 1}))
        want = log_partition(PinnedModel.make(part_a, pinning={0: -1})) + log_partition(
            PinnedModel.make(part_b, pinning={0: 1})
        )
        assert got == want


class TestJointTable:
    def test_ratio_form_agrees_with_enumeration(self):
        # conditioning via the unpinned joint table is an independent route
        for seed in range(6):
            m = random_instance(9, 3, (-0.5, 0.5), (-0.8, 0.8), seed)
            table = JointTable(m, range(m.n))
            for pinning in ({}, {3: -1}, {1: 1, 6: -1}):
                pm = PinnedModel.make(m, pinning=pinning)
                assert table.log_partition(pinning) == pytest.approx(
                    log_partition(pm), abs=1e-12
                )
                means = table.vertex_means(pinning)
                for v in range(m.n):
                    if v in pinning:
                        continue
                    assert means[v] == pytest.approx(expectation(pm, v), abs=1e-12)

    def test_mean_of_weighted_sum(self):
        m = random_instance(8, 3, (-0.4, 0.4), (-0.5, 0.5), seed=42)
        a = np.linspace(-1, 1, 8)
        table = JointTable(m, range(8))
        vals = table.config_values(a)
        pm = PinnedModel.make(m, pinning={2: 1})
        assert table.mean_of(vals, {2: 1}) == pytest.approx(
            weighted_expectation(pm, a), abs=1e-12
        )

    def test_capacity(self):
        m = random_instance(8, 3, (-0.2, 0.2), (0, 0), seed=0)
        with pytest.raises(CapacityError):
            JointTable(m, range(8), cap=5)

    def test_conditional_queries_match_brute_force(self):
        # against the test-local oracle, not the enumeration the table shares
        for seed in range(4):
            m = random_instance(8, 3, (-0.5, 0.5), (-0.8, 0.8), seed)
            a = np.linspace(-1, 1, 8)
            table = JointTable(m, range(m.n))
            vals = table.config_values(a)
            for pinning in ({}, {5: 1}, {0: -1, 7: 1}, {2: 1, 3: 1, 6: -1}):
                assert table.log_partition(pinning) == pytest.approx(
                    local_logz(m, pinning), abs=1e-11
                )
                want = [local_expectation(m, v, pinning) for v in range(m.n)]
                assert table.vertex_means(pinning) == pytest.approx(want, abs=1e-12)
                assert table.mean_of(vals, pinning) == pytest.approx(
                    float(np.dot(a, want)), abs=1e-12
                )


def test_vertex_expectations_matches_scalar_path():
    m = random_instance(10, 3, (-0.5, 0.5), (-0.6, 0.6), seed=17)
    pm = PinnedModel.make(m, pinning={4: -1})
    means = vertex_expectations(pm)
    assert means[4] == -1.0
    for v in (0, 3, 9):
        assert means[v] == pytest.approx(expectation(pm, v), abs=1e-12)


def test_chunked_path_agrees_with_small_path():
    # 18 free vertices forces multiple 2^16 chunks through the streaming code
    m = random_instance(18, 3, (-0.3, 0.3), (-0.4, 0.4), seed=5)
    import isingmax.exact as ex

    old = ex._SINGLE_PASS_BITS
    try:
        lz_small = log_partition(PinnedModel.make(m))
        e_small = expectation(PinnedModel.make(m, pinning={0: 1}), 9)
        ex._SINGLE_PASS_BITS = 0  # force streaming everywhere
        lz_stream = log_partition(PinnedModel.make(m))
        e_stream = expectation(PinnedModel.make(m, pinning={0: 1}), 9)
    finally:
        ex._SINGLE_PASS_BITS = old
    assert lz_stream == pytest.approx(lz_small, abs=1e-12)
    assert e_stream == pytest.approx(e_small, abs=1e-12)


def test_streaming_means_agree_with_single_pass():
    # 18 free vertices make four 2^16 chunks; the pinned vertices come
    # before the chunk bits and after the chunk-selecting high bits
    m = random_instance(20, 3, (-0.3, 0.3), (-0.4, 0.4), seed=5)
    a = np.linspace(-1, 1, 20)
    pm = PinnedModel.make(m, pinning={0: 1, 19: -1})
    import isingmax.exact as ex

    old = ex._SINGLE_PASS_BITS
    try:
        w_small = weighted_expectation(pm, a)
        v_small = vertex_expectations(pm)
        ex._SINGLE_PASS_BITS = 0  # force streaming everywhere
        w_stream = weighted_expectation(pm, a)
        v_stream = vertex_expectations(pm)
    finally:
        ex._SINGLE_PASS_BITS = old
    assert w_stream == pytest.approx(w_small, abs=1e-12)
    assert v_stream[0] == 1.0 and v_stream[19] == -1.0
    for v in range(20):
        assert v_stream[v] == pytest.approx(v_small[v], abs=1e-12)
