"""Balls, power adjacency, power components, and cluster enumeration.

The enumeration is checked against an independent brute force that builds
the power graph from a test-local Floyd-Warshall distance matrix and
checks connectivity with a test-local union-find.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from isingmax import (
    IsingModel,
    ModelFormatError,
    ball,
    components_in_power_graph,
    connected_components,
    enumerate_connected_clusters,
    graph_diameter,
    power_adjacent,
    random_instance,
)
from isingmax.graph import bfs_distances, induced_components, set_distance


def path_model(n):
    return IsingModel(n=n, beta={(i, i + 1): 0.1 for i in range(n - 1)}, h=np.zeros(n))


def triangle_model():
    return IsingModel(n=3, beta={(0, 1): 0.1, (0, 2): 0.1, (1, 2): 0.1}, h=np.zeros(3))


def all_pairs_distances(model):
    """Test-local Floyd-Warshall, independent of the BFS implementation."""
    n = model.n
    INF = 10**9
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for (u, v) in model.beta:
        d[u][v] = d[v][u] = 1
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][mid] + d[mid][j] < d[i][j]:
                    d[i][j] = d[i][mid] + d[mid][j]
    return d


def bfs_view(d):
    """The distance matrix with -1 for unreachable pairs, as the BFS reports them."""
    return [[x if x < 10**9 else -1 for x in row] for row in d]


def split_instances():
    """Degree-2 random graphs, each with an isolated vertex and two or more components."""
    models = [random_instance(30, 2, (-0.2, 0.2), (0, 0), seed) for seed in range(6)]
    for m in models:
        d = bfs_view(all_pairs_distances(m))
        assert any(row.count(-1) == m.n - 1 for row in d)
        assert len({tuple(x >= 0 for x in row) for row in d}) >= 2
    return models


class TestBall:
    def test_radius_zero_is_the_set(self):
        m = path_model(6)
        assert ball(m, [2, 4], 0) == (2, 4)

    def test_path_neighbors(self):
        m = path_model(5)
        assert ball(m, [2], 1) == (1, 2, 3)

    def test_two_sources_on_a_path(self):
        m = path_model(10)
        assert ball(m, [0, 9], 2) == (0, 1, 2, 7, 8, 9)

    def test_unknown_vertex(self):
        with pytest.raises(ModelFormatError):
            ball(path_model(3), [7], 1)

    def test_empty_set_rejected(self):
        with pytest.raises(ModelFormatError):
            ball(path_model(3), [], 1)

    def test_growth_bound(self):
        # |B(S,r)| <= |S| * delta_max^(r+1) for delta_max >= 3
        for seed in range(10):
            m = random_instance(30, 3, (-0.2, 0.2), (0, 0), seed)
            rng = np.random.default_rng(seed)
            S = sorted(rng.choice(30, size=2, replace=False).tolist())
            for r in range(4):
                assert len(ball(m, S, r)) <= len(S) * 3 ** (r + 1)

    def test_matches_distance_matrix(self):
        for seed, m in enumerate(split_instances()):
            d = bfs_view(all_pairs_distances(m))
            rng = np.random.default_rng(300 + seed)
            sets = [[v] for v in range(m.n)]
            sets += [rng.choice(m.n, size=size, replace=False).tolist() for size in (2, 3) * 10]
            for S in sets:
                for r in range(5):
                    want = tuple(v for v in range(m.n) if any(0 <= d[s][v] <= r for s in S))
                    assert ball(m, S, r) == want


class TestPowerAdjacent:
    def test_adjacent_vertices_any_radius(self):
        m = path_model(4)
        for r in range(3):
            assert power_adjacent(m, [0], [1], r)

    def test_far_apart_on_path(self):
        m = path_model(10)
        assert not power_adjacent(m, [0], [9], 1)  # distance 9 > 3

    def test_boundary_distance(self):
        m = path_model(4)
        assert power_adjacent(m, [0], [3], 1)  # distance 3 == 2*1+1

    def test_overlap_rejected(self):
        with pytest.raises(ModelFormatError, match="overlap"):
            power_adjacent(path_model(4), [0, 1], [1, 2], 1)

    def test_matches_distance_matrix(self):
        for seed in range(8):
            m = random_instance(12, 3, (-0.2, 0.2), (0, 0), seed)
            d = all_pairs_distances(m)
            rng = np.random.default_rng(100 + seed)
            for _ in range(20):
                pts = rng.choice(12, size=4, replace=False)
                T1, T2 = sorted(pts[:2].tolist()), sorted(pts[2:].tolist())
                r = int(rng.integers(0, 3))
                want = min(d[u][v] for u in T1 for v in T2) <= 2 * r + 1
                assert power_adjacent(m, T1, T2, r) == want


class TestPowerComponents:
    def test_singleton(self):
        assert components_in_power_graph(path_model(3), [1], 2) == [(1,)]

    def test_split_on_long_path(self):
        assert components_in_power_graph(path_model(10), [0, 9], 1) == [(0,), (9,)]

    def test_merge_on_short_path(self):
        assert components_in_power_graph(path_model(3), [0, 2], 1) == [(0, 2)]

    def test_partition_properties(self):
        for seed in range(8):
            m = random_instance(12, 3, (-0.2, 0.2), (0, 0), seed)
            rng = np.random.default_rng(200 + seed)
            S = sorted(rng.choice(12, size=5, replace=False).tolist())
            r = int(rng.integers(0, 3))
            parts = components_in_power_graph(m, S, r)
            flat = sorted(v for p in parts for v in p)
            assert flat == S  # a partition
            for p1, p2 in combinations(parts, 2):
                assert not power_adjacent(m, p1, p2, r)
            d = all_pairs_distances(m)
            for p in parts:
                # induced power graph on the part is connected (union-find)
                root = {v: v for v in p}

                def find(v):
                    while root[v] != v:
                        v = root[v]
                    return v

                for u, v in combinations(p, 2):
                    if d[u][v] <= 2 * r + 1:
                        root[find(u)] = find(v)
                assert len({find(v) for v in p}) == 1


class TestClusterEnumeration:
    def test_k1_gives_singletons(self):
        m = random_instance(9, 3, (-0.2, 0.2), (0, 0), seed=3)
        assert enumerate_connected_clusters(m, 1, 2) == [(v,) for v in range(9)]

    def test_path3_k2_r0(self):
        got = enumerate_connected_clusters(path_model(3), 2, 0)
        assert got == [(0,), (1,), (2,), (0, 1), (1, 2)]

    def test_triangle_k2(self):
        got = enumerate_connected_clusters(triangle_model(), 2, 0)
        assert got == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_matches_brute_force(self):
        for seed in range(6):
            m = random_instance(10, 3, (-0.2, 0.2), (0, 0), seed)
            d = all_pairs_distances(m)
            for k, r in [(1, 0), (2, 0), (2, 1), (3, 1)]:
                want = []
                for size in range(1, k + 1):
                    for T in combinations(range(10), size):
                        # power-graph connectivity by union-find
                        root = {v: v for v in T}

                        def find(v):
                            while root[v] != v:
                                v = root[v]
                            return v

                        for u, v in combinations(T, 2):
                            if d[u][v] <= 2 * r + 1:
                                root[find(u)] = find(v)
                        if len({find(v) for v in T}) == 1:
                            want.append(T)
                want.sort(key=lambda t: (len(t), t))
                assert enumerate_connected_clusters(m, k, r) == want

    def test_monotone_in_radius(self):
        m = random_instance(10, 3, (-0.2, 0.2), (0, 0), seed=9)
        prev = set()
        for r in range(4):
            cur = set(enumerate_connected_clusters(m, 3, r))
            assert prev <= cur
            prev = cur


def test_bfs_and_set_distance_consistency():
    m = random_instance(12, 3, (-0.2, 0.2), (0, 0), seed=4)
    d = all_pairs_distances(m)
    assert set_distance(m, [0], [1]) == (d[0][1] if d[0][1] < 10**9 else -1)
    for i, m in enumerate([m, *split_instances()]):
        d = bfs_view(all_pairs_distances(m))
        rng = np.random.default_rng(400 + i)
        sources = [[u] for u in range(m.n)]
        sources += [rng.choice(m.n, size=3, replace=False).tolist() for _ in range(10)]
        for S in sources:
            near = [min((d[s][v] for s in S if d[s][v] >= 0), default=-1) for v in range(m.n)]
            assert bfs_distances(m, S) == near
            for limit in range(4):
                want = [x if x <= limit else -1 for x in near]
                assert bfs_distances(m, S, limit=limit) == want
        for _ in range(30):
            T1 = rng.choice(m.n, size=2, replace=False).tolist()
            T2 = rng.choice(m.n, size=3, replace=False).tolist()
            want = min((d[a][b] for a in T1 for b in T2 if d[a][b] >= 0), default=-1)
            assert set_distance(m, T1, T2) == want
            for limit in range(4):
                assert set_distance(m, T1, T2, limit) == (want if want <= limit else -1)


def test_diameter_and_induced_components():
    m = path_model(7)
    assert graph_diameter(m) == 6
    two = IsingModel(n=4, beta={(0, 1): 0.1, (2, 3): 0.1}, h=np.zeros(4))
    assert graph_diameter(two) == 1
    assert induced_components(two, [0, 1, 2, 3]) == [(0, 1), (2, 3)]
    assert induced_components(two, [0, 2, 3]) == [(0,), (2, 3)]
    for m in split_instances():
        d = bfs_view(all_pairs_distances(m))
        assert graph_diameter(m) == max(max(row) for row in d)
        comps = sorted({tuple(v for v in range(m.n) if d[u][v] >= 0) for u in range(m.n)})
        assert connected_components(m) == comps
        assert connected_components(m) == induced_components(m, range(m.n))


def test_bounded_queries_stay_local():
    """A ball or a power adjacency allocates for the vertices it reaches, not for n."""
    n = 100_000
    m = IsingModel(n=n, beta={(i, i + 1): 0.1 for i in range(5)}, h=np.zeros(n))
    for query, want in ((lambda: ball(m, (0,), 2), (0, 1, 2)),
                        (lambda: power_adjacent(m, [0], [2], 1), True)):
        tracemalloc.start()
        try:
            got = query()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 64 * 1024
